"""Property tests of the geometry array forms and the filter's Joseph update.

Oracles: each array form is checked against its scalar form on one-row
arrays, bit for bit, and node 2's block of twists against the scalar twist
of each pose pair; compose/invert and Euler conversions are checked
against the identities they must satisfy; the Joseph-form updates, each
applied alone by a one-member node at the state's stamp, must keep any PSD
covariance exactly symmetric and PSD, and agree with a textbook Joseph
update written with ``scipy.linalg.solve``; every member of a batched
filter kernel equals ``predict`` or a one-member node, bit for bit; the
array update's state correction equals the scalar correction of each
member, and its angle wraps (a stack's ufuncs and one member's scalar
code) the scalar wrap, bit for bit, sign of zero included; and report bytes do not depend on the filter's block length.
"""

import math
from itertools import accumulate
from operator import add, sub

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coloc import harness
from coloc.ekf import (
    ANG,
    STATE_DIM,
    EkfNode,
    FilterNodeConfig,
    MeasurementEvent,
    MeasurementKind,
    _finish,
    _Workspace,
    _predict_kernel,
    _update_kernel,
    _wrap,
    body_twists,
    default_process_noise,
    predict,
)
from coloc.geometry import (
    BODY_ADAS,
    LOCAL,
    WORLD,
    compose_arrays,
    euler_to_quaternions,
    geodesic_angles,
    invert_arrays,
    multiply_quaternions,
    quaternions_to_euler,
    rotate_vectors,
    rotation_matrix_to_quaternion,
    rotation_vectors,
    wrap_angle,
)
from coloc.harness import ExperimentConfig, InputConfig, SyntheticSpec, report_json, run_report
from coloc.noise import NoiseSpec
from coloc.perception import PerceptionConfig
from pose_objects import Pose, Quaternion, compose, invert, rotation_geodesic, velocity_measurement
from pose_rows import pose_event, twist_event

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
@given(quaternions)
@example(Quaternion(1.0, 0.0, 0.0, 0.0))  # 180 degrees about x: the R[0, 0] branch
@example(Quaternion(0.0, 1.0, 0.0, 0.0))  # about y: the R[1, 1] branch
@example(Quaternion(0.0, 0.0, 1.0, 0.0))  # about z: the R[2, 2] branch
def test_rotation_matrix_to_quaternion_is_from_rotation_matrix(q):
    R = q.rotation_matrix()
    assert rotation_matrix_to_quaternion(R).tolist() == Quaternion.from_rotation_matrix(R).as_array().tolist()


@SETTINGS
@given(quaternions)
@example(Quaternion(0.0, 0.0, -1.0, 0.0))  # w == 0: the z < 0 cover flip
@example(Quaternion(0.0, -1.0, 0.0, 0.0))  # w == z == 0: the y < 0 flip
@example(Quaternion(-1.0, 0.0, 0.0, 0.0))  # w == z == y == 0: the x < 0 flip
@example(Quaternion(0.0, 0.0, 0.0, -1.0))  # the identity on the w < 0 cover
@example(Quaternion(1e-13, 0.0, -2e-13, 1.0))  # a rotation below 1e-12
def test_rotation_vectors_is_rotation_vector(q):
    assert rotation_vectors(row(q))[0].tolist() == q.rotation_vector().tolist()


@SETTINGS
@given(quaternions, quaternions)
def test_geodesic_angles_is_rotation_geodesic(a, b):
    # The relative rotation is bit-identical; np.arctan2 and math.atan2 may
    # round the final angle differently, by at most one unit in the last place.
    got = geodesic_angles(row(a), row(b))[0]
    want = rotation_geodesic(a, b)
    assert abs(got - want) <= np.spacing(want)


pose_rows = st.tuples(finite, finite, finite, angles, angles, angles)
# each member's two rows make a relative rotation on a cover the rotation
# vector flips or keeps: w < 0; w == 0 with z < 0, with z == 0 and y < 0,
# and with z == y == 0 and x < 0; and rotations of 1e-13 and 0 rad
HALF_PI, PI = math.pi / 2, math.pi
COVER_CHAIN = [
    [(0.0, 0.0, 0.0, 0.0, 0.0, -3.0), (0.0, 0.0, 0.0, 0.0, 0.0, PI), (0.0, 0.0, 0.0, 0.0, HALF_PI, PI),
     (0.0, 0.0, 0.0, 0.0, HALF_PI, -HALF_PI), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 0.0, 0.1, 0.2, 0.4)],
    [(1.0, 0.0, 0.0, 0.0, 0.0, 3.0), (0.0, 1.0, 0.0, PI, PI, PI), (0.0, 0.0, 1.0, PI, -HALF_PI, 0.0),
     (1.0, 1.0, 0.0, 0.0, -3 * HALF_PI, -3 * HALF_PI), (0.0, 0.0, 0.0, 0.0, 0.0, 2e-13), (1.5, 2.0, 0.0, 0.1, 0.2, 0.4)],
]


@SETTINGS
@given(
    st.integers(1, 3).flatmap(lambda b: st.lists(st.lists(pose_rows, min_size=b, max_size=b), min_size=2, max_size=5)),
    st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=4),
)
@example(COVER_CHAIN, [0.01, 0.01, 0.01, 0.01])
def test_body_twists_are_velocity_measurements(chain, steps):
    # a chain of n + 1 rows of B members, (n + 1, B, 6), in one array pass
    stamps = list(accumulate([1.0, *steps[:len(chain) - 1]]))
    twists = body_twists(np.array(chain), np.diff(stamps))
    for i, (rows0, rows1) in enumerate(zip(chain, chain[1:])):
        dt = stamps[i + 1] - stamps[i]
        for b, (p0, p1) in enumerate(zip(rows0, rows1)):
            assert twists[i, b].tolist() == velocity_measurement(p0, p1, dt), (i, b)


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
@example(Pose(1.0, [0.0, 334.0, 0.0], Quaternion(0.0, 0.0, 1.0, 1e-06), WORLD, BODY_ADAS))
def test_double_inverse_is_identity_map(p):
    back = invert(invert(p))
    assert (back.parent_frame, back.child_frame) == (p.parent_frame, p.child_frame)
    # A rotation is kept when it is unit within 1e-12, so each rotate may
    # scale a vector by up to about 1 + 2e-12: the bound grows with |t|.
    np.testing.assert_allclose(
        back.translation, p.translation, rtol=0.0, atol=1e-9 * (1.0 + np.abs(p.translation).max())
    )
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


def node_at(x, P, t):
    """A one-member node at state (x, P) and stamp t: an event at t is one update alone."""
    return EkfNode(FilterNodeConfig(t, x, P, default_process_noise()))


def twist_pair(r6, dt, step, q0, q1):
    """Node 2's twist event of two local pose rows dt apart that share ``r6``; it is stamped 1 + dt."""
    kind = MeasurementKind.ODOMETRY_DIFFERENTIAL
    prev = pose_event(kind, Pose(1.0, np.zeros(3), q0, LOCAL, BODY_ADAS), r6)
    return twist_event(prev, pose_event(kind, Pose(1.0 + dt, step * dt, q1, LOCAL, BODY_ADAS), r6))


@SETTINGS
@given(psd(STATE_DIM, 3.0), psd(6, 1.0), vectors, quaternions)
def test_absolute_update_keeps_covariance_psd(P, r6, t, q):
    node = node_at(np.zeros(STATE_DIM), P, 1.0)
    node.node2_step(pose_event(MeasurementKind.PERCEPTION_ABSOLUTE, Pose(1.0, t, q, WORLD, BODY_ADAS), r6))
    assert_symmetric_psd(node.P[0])


@SETTINGS
@given(psd(STATE_DIM, 3.0), psd(6, 0.3), st.floats(0.01, 1.0), vectors, quaternions, quaternions)
def test_differential_update_keeps_covariance_psd(P, r6, dt, step, q0, q1):
    event = twist_pair(r6, dt, step, q0, q1)
    node = node_at(np.zeros(STATE_DIM), P, event.timestamp)
    node.node2_step(event)
    assert_symmetric_psd(node.P[0])


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


def assert_matches_oracle(node, x_want, P_want):
    # the angle block is compared on the circle, both results being wrapped
    (x,), (P,) = node.x, node.P
    dx = x - x_want
    dx[3:6] = wrap_angle(dx[3:6])
    assert np.abs(dx).max() <= 1e-9 * max(1.0, np.abs(x_want).max())
    assert np.abs(P - P_want).max() <= 1e-9 * np.abs(P_want).max()


@SETTINGS
@given(states(), psd(STATE_DIM, 3.0), positive_definite(6, 1.0), vectors, quaternions)
def test_absolute_update_matches_joseph_oracle(x, P, r6, t, q):
    pose = Pose(1.0, t, q, WORLD, BODY_ADAS)
    node = node_at(x, P, 1.0)
    node.node2_step(pose_event(MeasurementKind.PERCEPTION_ABSOLUTE, pose, r6))
    z = [*t, *q.to_euler()]
    assert_matches_oracle(node, *joseph_oracle(x, P, 0, z, r6, True))


@SETTINGS
@given(
    states(),
    psd(STATE_DIM, 3.0),
    positive_definite(6, 0.3),
    st.floats(0.01, 1.0),
    vectors,
    quaternions,
    quaternions,
)
def test_differential_update_matches_joseph_oracle(x, P, r6, dt, step, q0, q1):
    event = twist_pair(r6, dt, step, q0, q1)
    node = node_at(x, P, event.timestamp)
    node.node2_step(event)
    # the rows' shared pose covariance propagates to the velocity as (r6 + r6) / dt^2
    (z,) = event.z
    assert_matches_oracle(node, *joseph_oracle(x, P, 6, z, (r6 + r6) / (dt * dt), False))


# ---------------------------------------------------------------------------
# Batched kernels against predict and one-member nodes
# ---------------------------------------------------------------------------

def batch(seed, size):
    """``size`` members: states, exactly symmetric PSD covariances, positive-definite r6 and pose rows, all different."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(size):
        x = rng.uniform(-5.0, 5.0, STATE_DIM)
        x[3:6] = rng.uniform([-2.5, -1.2, -2.5], [2.5, 1.2, 2.5])
        A = rng.normal(0.0, rng.uniform(0.01, 2.0), (STATE_DIM, rng.integers(1, STATE_DIM + 1)))
        L = rng.normal(0.0, rng.uniform(0.01, 1.0), (6, 6))
        z = np.concatenate((rng.uniform(-5.0, 5.0, 3), rng.uniform([-3.0, -1.2, -3.0], [3.0, 1.2, 3.0])))
        P = A @ A.T + 1e-6 * np.eye(STATE_DIM)
        members.append(((x, 0.5 * (P + P.T)), L @ L.T + rng.uniform(1e-3, 1.0) * np.eye(6), z))
    return members


def finished(kernel, *args):
    """The result of ``kernel(*args)`` on a fresh workspace sized by ``args[0]``, finished."""
    work = _Workspace(len(args[0]))
    kernel(*args, work)
    return _finish(work)


def assert_member_is(x, P, want_x, want_P):
    assert x.tolist() == want_x.tolist()
    assert np.array_equal(P, want_P)


members_of = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 7])).map(lambda a: batch(*a))


@SETTINGS
@given(members_of, st.floats(0.001, 0.5))
def test_batched_predict_is_predict_per_member(members, dt):
    q = default_process_noise()
    states = [s for s, _, _ in members]
    x, P = finished(
        _predict_kernel, np.array([x for x, _ in states]), np.array([P for _, P in states]), dt, q * dt
    )
    for b, (x_b, P_b) in enumerate(states):
        assert_member_is(x[b], P[b], *predict(x_b, P_b, q, dt))


@SETTINGS
@given(members_of)
def test_batched_absolute_update_is_update_absolute_per_member(members):
    r6 = np.array([r for _, r, _ in members])
    x, P = finished(
        _update_kernel, np.array([x for (x, _), _, _ in members]), np.array([P for (_, P), _, _ in members]), 0,
        np.array([z for *_, z in members]), r6, True,
    )
    for b, ((x_b, P_b), r, z) in enumerate(members):
        node = node_at(x_b, P_b, 1.0)
        node.node2_step(MeasurementEvent(1.0, MeasurementKind.PERCEPTION_ABSOLUTE, WORLD, z, r))
        assert_member_is(x[b], P[b], node.x[0], node.P[0])


@SETTINGS
@given(members_of)
def test_batched_differential_update_is_update_differential_per_member(members):
    # each member's row and covariance stand for its twist and the twist's covariance
    r_vel = np.array([r for _, r, _ in members])
    x, P = finished(
        _update_kernel, np.array([x for (x, _), _, _ in members]), np.array([P for (_, P), _, _ in members]), 6,
        np.array([z for *_, z in members]), r_vel, False,
    )
    for b, ((x_b, P_b), r, z) in enumerate(members):
        node = node_at(x_b, P_b, 1.0)
        node.node2_step(MeasurementEvent(1.0, MeasurementKind.ODOMETRY_DIFFERENTIAL, LOCAL, z, r))
        assert_member_is(x[b], P[b], node.x[0], node.P[0])


# ---------------------------------------------------------------------------
# The array update against the scalar correction of each member
# ---------------------------------------------------------------------------

def scalar_wrap(a: float) -> float:
    """The motion model's scalar angle wrap to (-pi, pi]."""
    return -((-a + math.pi) % (2.0 * math.pi) - math.pi)


def corrected(x: list[float], z: list[float], K: np.ndarray, lo: int, angles: bool) -> list[float]:
    """One member's state row plus its gain ``K`` times its innovation on
    ``lo:lo+6``, in scalar form: the oracle of the update kernel's state
    correction.

    The innovation is computed and wrapped float by float and reaches the
    gain product as a float64 vector.  The row's angles are wrapped, and
    with ``angles`` so are the last three innovations.
    """
    d = list(map(sub, z, x[lo:lo + 6]))
    if angles:
        d[3:6] = map(scalar_wrap, d[3:6])
    x = list(map(add, x, K.dot(np.array(d)).tolist()))
    x[3:6] = map(scalar_wrap, x[3:6])
    return x


def bits(a) -> list[int]:
    return np.asarray(a, dtype=float).view(np.uint64).ravel().tolist()


TWO_PI = 2.0 * math.pi
# the wrap's edges: +-pi, exact multiples of 2 pi, signed zeros, the
# neighbours of pi and a huge angle
SPECIAL_ANGLES = [
    math.pi, -math.pi, 0.0, -0.0, TWO_PI, -TWO_PI, 3.0 * TWO_PI, -5.0 * TWO_PI,
    math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, 0.0), 1e300, -1e300,
]


def row_wraps(values) -> list[list[float]]:
    """``values`` wrapped three at a time by a one-member workspace's
    wraps: once as its state row's angles, once as its innovation's."""
    work = _Workspace(None)
    padded = [*values, *[0.0] * (-len(values) % 3)]
    out = []
    for row, wrap in ((work.x[0], work.wrap_x), (work.d[0], work.wrap_d)):
        got = []
        for k in range(0, len(padded), 3):
            row[ANG] = padded[k:k + 3]
            wrap()
            got += row[ANG].tolist()
        out.append(got[:len(values)])
    return out


def test_array_wrap_is_scalar_wrap_on_its_edges():
    values = np.array(SPECIAL_ANGLES)
    np.testing.assert_array_equal(bits(np.remainder(values, TWO_PI)), bits([v % TWO_PI for v in SPECIAL_ANGLES]))
    wrapped = values.copy()
    _wrap(wrapped, np.empty(len(values)))
    for got in (wrapped, *row_wraps(SPECIAL_ANGLES)):
        assert bits(got) == bits([scalar_wrap(v) for v in SPECIAL_ANGLES])
        # a zero wraps to -0.0, as the scalar form gives it
        assert bits(got[2:6]) == bits([-0.0] * 4)
    # a non-finite angle wraps to NaN in both forms; the one-member form
    # warns of nothing (RuntimeWarnings are errors in this suite)
    non_finite = [math.nan, math.inf, -math.inf]
    wrapped = np.array(non_finite)
    with np.errstate(invalid="ignore"):
        _wrap(wrapped, np.empty(3))
    for got in (wrapped.tolist(), *row_wraps(non_finite)):
        assert all(map(math.isnan, got))


@SETTINGS
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
def test_array_wrap_is_scalar_wrap(values):
    a = np.array(values)
    assert bits(np.remainder(a, TWO_PI)) == bits([v % TWO_PI for v in values])
    _wrap(a, np.empty(len(values)))
    want = bits([scalar_wrap(v) for v in values])
    assert bits(a) == want
    for got in row_wraps(values):
        assert bits(got) == want


def with_special_angles(rng, a):
    """``a`` with about half of its angle columns set to SPECIAL_ANGLES."""
    a = a.copy()
    ang = a[:, 3:6]
    pick = rng.random(ang.shape) < 0.5
    ang[pick] = rng.choice(SPECIAL_ANGLES, ang.shape)[pick]
    return a


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 12, 60]), st.booleans(), st.booleans())
def test_array_update_is_scalar_correction_per_member(seed, size, angles, shared_r6):
    # angle updates fuse poses on the pose block, twist updates twists on the
    # twist block; states and rows include the wrap's edge angles
    rng = np.random.default_rng(seed)
    members = batch(seed, size)
    lo = 0 if angles else 6
    x = with_special_angles(rng, np.array([x for (x, _), _, _ in members]))
    z = np.array([z for *_, z in members])
    if angles:
        z = with_special_angles(rng, z)
    # rows that agree with their state: a zero innovation leaves the state's
    # edge angles to the wrap alone
    agree = rng.random(size) < 0.25
    z[agree] = x[agree, lo:lo + 6]
    P = np.array([P for (_, P), _, _ in members])
    r6 = np.array([r for _, r, _ in members])
    if shared_r6:
        r6 = r6[0]
    # a one-member node holds its matrices without the stack axis
    P_in, r6_in = (P[0], r6 if shared_r6 else r6[0]) if size == 1 else (P, r6)
    got, _ = _update_kernel(x, P_in, lo, z, r6_in, angles, _Workspace(size if size > 1 else None))
    # each member's gain as the kernel lays it out: the transpose of its solve
    P_rows = P[:, lo:lo + 6, :]
    K = np.linalg.solve(P_rows[:, :, lo:lo + 6] + r6, P_rows).mT
    for b in range(size):
        want = corrected(x[b].tolist(), z[b].tolist(), K[b], lo, angles)
        assert bits(got[b]) == bits(want), b


# ---------------------------------------------------------------------------
# Filter blocks
# ---------------------------------------------------------------------------

def test_report_bytes_do_not_depend_on_the_block(monkeypatch):
    # node 2's twists start each block from the row that ended the one
    # before: blocks of one and two odometry rows per member must give the
    # bytes of one block per run
    cfg = ExperimentConfig(
        input=InputConfig(synthetic=SyntheticSpec("figure-eight", 4.0, 20.0, 8.0)),
        raw_noise=NoiseSpec(2.5, 1.0),
        perception=PerceptionConfig(NoiseSpec(0.3, 10.0), output_rate=5.0),
        seeds=(3, 5),
    )
    want = report_json(run_report(cfg)[0])
    for block in (1, 5):
        monkeypatch.setattr(harness, "_BLOCK", block)
        assert report_json(run_report(cfg)[0]) == want, block
