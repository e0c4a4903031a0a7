"""Property tests of the geometry array forms and the filter's Joseph update.

Oracles: each array form is checked against its scalar form on one-row
arrays, bit for bit; compose/invert and Euler conversions are checked
against the identities they must satisfy; the Joseph-form updates must keep
any PSD covariance exactly symmetric and PSD, and agree with a textbook
Joseph update written with ``scipy.linalg.solve``.
"""

import math

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from coloc.ekf import (
    STATE_DIM,
    MeasurementKind,
    StateEstimate,
    differential_velocity,
    update_absolute,
    update_differential,
)
from coloc.geometry import (
    BODY_ADAS,
    LOCAL,
    WORLD,
    Pose,
    Quaternion,
    compose,
    compose_arrays,
    euler_to_quaternions,
    geodesic_angles,
    invert,
    invert_arrays,
    multiply_quaternions,
    quaternions_to_euler,
    rotate_vectors,
    rotation_geodesic,
    wrap_angle,
)
from pose_rows import pose_event

SETTINGS = settings(max_examples=100, deadline=None)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
vectors = st.tuples(finite, finite, finite).map(np.array)
angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False)
# scalar-last 4-tuples of any norm well away from zero
raw_quaternions = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 4).filter(
    lambda c: math.sqrt(sum(v * v for v in c)) > 1e-3
)
quaternions = raw_quaternions.map(lambda c: Quaternion(*c))


def poses(parent=WORLD, child=BODY_ADAS):
    return st.builds(lambda t, q: Pose(1.0, t, q, parent, child), vectors, quaternions)


def row(a):
    """One-row array of a vector or a quaternion."""
    return (a.as_array() if isinstance(a, Quaternion) else np.asarray(a, dtype=float))[None]


# ---------------------------------------------------------------------------
# Array forms against scalar forms
# ---------------------------------------------------------------------------

@SETTINGS
@given(quaternions, quaternions)
def test_multiply_quaternions_is_quaternion_product(a, b):
    assert multiply_quaternions(row(a), row(b))[0].tolist() == (a * b).as_array().tolist()


@SETTINGS
@given(raw_quaternions, raw_quaternions)
def test_trusted_quaternion_of_normalized_row_is_bit_identical(a, b):
    # rows multiply_quaternions gives are unit within construction's 1e-12
    # rule, so skipping the check changes no bit
    r = multiply_quaternions(np.array([a]), np.array([b]))[0].tolist()
    assert Quaternion(*r).as_array().tolist() == r
    assert Quaternion._trusted(*r).as_array().tolist() == r


@SETTINGS
@given(quaternions, vectors)
def test_rotate_vectors_is_quaternion_rotate(q, v):
    assert rotate_vectors(row(q), row(v))[0].tolist() == q.rotate(v).tolist()


@SETTINGS
@given(poses(WORLD, LOCAL), poses(LOCAL, BODY_ADAS))
def test_compose_arrays_is_compose(a, b):
    t, q = compose_arrays(row(a.translation), row(a.rotation), row(b.translation), row(b.rotation))
    c = compose(a, b)
    assert (t[0].tolist(), q[0].tolist()) == (c.translation.tolist(), c.rotation.as_array().tolist())


@SETTINGS
@given(poses())
def test_invert_arrays_is_invert(p):
    t, q = invert_arrays(row(p.translation), row(p.rotation))
    i = invert(p)
    assert (t[0].tolist(), q[0].tolist()) == (i.translation.tolist(), i.rotation.as_array().tolist())


@SETTINGS
@given(angles, angles, angles)
def test_euler_to_quaternions_is_from_euler(roll, pitch, yaw):
    got = euler_to_quaternions(np.array([[roll, pitch, yaw]]))[0]
    assert got.tolist() == Quaternion.from_euler(roll, pitch, yaw).as_array().tolist()


@SETTINGS
@given(quaternions)
def test_quaternions_to_euler_is_to_euler(q):
    assert quaternions_to_euler(row(q))[0].tolist() == list(q.to_euler())


@SETTINGS
@given(quaternions, quaternions)
def test_geodesic_angles_is_rotation_geodesic(a, b):
    # The relative rotation is bit-identical; np.arctan2 and math.atan2 may
    # round the final angle differently, by at most one unit in the last place.
    got = geodesic_angles(row(a), row(b))[0]
    want = rotation_geodesic(a, b)
    assert abs(got - want) <= np.spacing(want)


# ---------------------------------------------------------------------------
# compose / invert / Euler identities
# ---------------------------------------------------------------------------

@SETTINGS
@given(poses())
def test_compose_with_inverse_is_identity(p):
    for c in (compose(p, invert(p)), compose(invert(p), p)):
        assert np.allclose(c.translation, 0.0, atol=1e-9 * (1.0 + np.abs(p.translation).max()))
        assert rotation_geodesic(c.rotation, Quaternion.identity()) < 1e-7


@SETTINGS
@given(poses())
def test_double_inverse_is_identity_map(p):
    back = invert(invert(p))
    assert (back.parent_frame, back.child_frame) == (p.parent_frame, p.child_frame)
    np.testing.assert_allclose(back.translation, p.translation, rtol=1e-12, atol=1e-9)
    assert rotation_geodesic(back.rotation, p.rotation) < 1e-7


@SETTINGS
@given(poses(WORLD, LOCAL), poses(LOCAL, BODY_ADAS), vectors)
def test_compose_chains_point_maps(a, b, v):
    # The composed pose maps a point as b, then a, would.
    c = compose(a, b)
    via_b = b.rotation.rotate(v) + b.translation
    want = a.rotation.rotate(via_b) + a.translation
    scale = 1.0 + np.abs(a.translation).max() + np.abs(b.translation).max() + np.abs(v).max()
    np.testing.assert_allclose(c.rotation.rotate(v) + c.translation, want, rtol=0.0, atol=1e-9 * scale)


@SETTINGS
@given(quaternions)
def test_quaternion_to_euler_and_back(q):
    roll, pitch, yaw = q.to_euler()
    if abs(abs(pitch) - math.pi / 2) < 1e-3:  # gimbal lock: roll and yaw are not unique
        return
    assert rotation_geodesic(Quaternion.from_euler(roll, pitch, yaw), q) < 1e-6


@SETTINGS
@given(
    st.floats(-math.pi + 1e-6, math.pi, allow_nan=False),
    st.floats(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, allow_nan=False),
    st.floats(-math.pi + 1e-6, math.pi, allow_nan=False),
)
def test_euler_to_quaternion_and_back(roll, pitch, yaw):
    got = Quaternion.from_euler(roll, pitch, yaw).to_euler()
    for a, b in zip(got, (roll, pitch, yaw)):
        assert abs(math.remainder(a - b, 2 * math.pi)) < 1e-6


# ---------------------------------------------------------------------------
# Joseph-form updates keep P symmetric and PSD
# ---------------------------------------------------------------------------

def psd(n, scale):
    """Random n x n PSD matrices B B^T of any rank, exactly symmetric, plus a small ridge."""

    def build(seed, rank, size):
        B = np.random.default_rng(seed).normal(0.0, size, (n, rank))
        M = B @ B.T
        return 0.5 * (M + M.T) + 1e-6 * np.eye(n)

    return st.builds(build, st.integers(0, 2**32 - 1), st.integers(1, n), st.floats(1e-3, scale))


def assert_symmetric_psd(P):
    assert np.array_equal(P, P.T)
    eig = np.linalg.eigvalsh(P)
    assert eig[0] >= -1e-9 * max(1.0, eig[-1])


@SETTINGS
@given(psd(STATE_DIM, 3.0), psd(6, 1.0), vectors, quaternions)
def test_absolute_update_keeps_covariance_psd(P, r6, t, q):
    state = StateEstimate(np.zeros(STATE_DIM), P, 1.0)
    event = pose_event(MeasurementKind.PERCEPTION_ABSOLUTE, Pose(1.0, t, q, WORLD, BODY_ADAS), r6)
    assert_symmetric_psd(update_absolute(state, event).P)


@SETTINGS
@given(
    psd(STATE_DIM, 3.0),
    psd(6, 0.3),
    psd(6, 0.3),
    st.floats(0.01, 1.0),
    vectors,
    quaternions,
    quaternions,
)
def test_differential_update_keeps_covariance_psd(P, r0, r1, dt, step, q0, q1):
    state = StateEstimate(np.zeros(STATE_DIM), P, 1.0)
    kind = MeasurementKind.ODOMETRY_DIFFERENTIAL
    prev = pose_event(kind, Pose(1.0, np.zeros(3), q0, LOCAL, BODY_ADAS), r0)
    cur = pose_event(kind, Pose(1.0 + dt, step * dt, q1, LOCAL, BODY_ADAS), r1)
    assert_symmetric_psd(update_differential(state, prev, cur).P)


# ---------------------------------------------------------------------------
# Joseph-form updates against a textbook oracle
# ---------------------------------------------------------------------------

def positive_definite(n, scale):
    """Random n x n B B^T of any rank plus a ridge of at least 1e-3.

    The ridge bounds the innovation covariance's condition number, so two
    LAPACK solves of it agree far inside the oracle tests' 1e-9.
    """

    def build(seed, rank, size, ridge):
        B = np.random.default_rng(seed).normal(0.0, size, (n, rank))
        M = B @ B.T
        return 0.5 * (M + M.T) + ridge * np.eye(n)

    return st.builds(
        build, st.integers(0, 2**32 - 1), st.integers(1, n), st.floats(1e-3, scale), st.floats(1e-3, 1.0)
    )


def states():
    """Seeded states away from the angle wrap and the pitch singularity."""

    def build(seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5.0, 5.0, STATE_DIM)
        x[3:6] = rng.uniform([-2.5, -1.2, -2.5], [2.5, 1.2, 2.5])
        return x

    return st.builds(build, st.integers(0, 2**32 - 1))


def joseph_oracle(x, P, lo, z, R, angles):
    """K = P H^T S^-1 and (I - K H) P (I - K H)^T + K R K^T with H selecting ``lo:lo+6``."""
    H = np.zeros((6, STATE_DIM))
    H[:, lo : lo + 6] = np.eye(6)
    y = np.asarray(z) - H @ x
    if angles:
        y[3:6] = wrap_angle(y[3:6])
    S = H @ P @ H.T + R
    K = scipy.linalg.solve(S, H @ P).T
    x_new = x + K @ y
    x_new[3:6] = wrap_angle(x_new[3:6])
    I_KH = np.eye(STATE_DIM) - K @ H
    return x_new, I_KH @ P @ I_KH.T + K @ R @ K.T


def assert_matches_oracle(got, x_want, P_want):
    # the angle block is compared on the circle, both results being wrapped
    dx = got.x - x_want
    dx[3:6] = wrap_angle(dx[3:6])
    assert np.abs(dx).max() <= 1e-9 * max(1.0, np.abs(x_want).max())
    assert np.abs(got.P - P_want).max() <= 1e-9 * np.abs(P_want).max()


@SETTINGS
@given(states(), psd(STATE_DIM, 3.0), positive_definite(6, 1.0), vectors, quaternions)
def test_absolute_update_matches_joseph_oracle(x, P, r6, t, q):
    pose = Pose(1.0, t, q, WORLD, BODY_ADAS)
    event = pose_event(MeasurementKind.PERCEPTION_ABSOLUTE, pose, r6)
    got = update_absolute(StateEstimate(x, P, 1.0), event)
    z = [*t, *q.to_euler()]
    assert_matches_oracle(got, *joseph_oracle(x, P, 0, z, r6, True))


@SETTINGS
@given(
    states(),
    psd(STATE_DIM, 3.0),
    positive_definite(6, 0.3),
    positive_definite(6, 0.3),
    st.floats(0.01, 1.0),
    vectors,
    quaternions,
    quaternions,
)
def test_differential_update_matches_joseph_oracle(x, P, r0, r1, dt, step, q0, q1):
    kind = MeasurementKind.ODOMETRY_DIFFERENTIAL
    prev = pose_event(kind, Pose(1.0, np.zeros(3), q0, LOCAL, BODY_ADAS), r0)
    cur = pose_event(kind, Pose(1.0 + dt, step * dt, q1, LOCAL, BODY_ADAS), r1)
    got = update_differential(StateEstimate(x, P, 1.0), prev, cur)
    # the pair's pose covariances propagate to the velocity as (R0 + R1) / dt^2
    z = differential_velocity(prev, cur)
    assert_matches_oracle(got, *joseph_oracle(x, P, 6, z, (r0 + r1) / (dt * dt), False))
