"""Filter tests.

Every update runs through :class:`EkfNode`, the filter's one API: a
one-member node at a given state, stepped at that state's stamp, applies a
single update.  Oracles, all independent of the implementation under test:
* central finite differences of the motion model for its Jacobian,
* a hand-rolled two-state (position, velocity) Kalman filter for the
  linear-equivalence check,
* closed-form kinematics for single-step propagation,
* exact arithmetic identities (offset cancellation, zero innovation),
* scipy's discrete algebraic Riccati solution for node 1's steady state
  and for node 2's twist channel.
"""

import math
from copy import copy
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from coloc.errors import FrameMismatchError, NumericError, OutOfOrderError
from coloc.ekf import (
    ACC,
    ANG,
    OMEGA,
    POS,
    POSE_BLOCK,
    STATE_DIM,
    TWIST_BLOCK,
    VEL,
    EkfNode,
    FilterNodeConfig,
    MeasurementEvent,
    MeasurementKind,
    _JACOBIAN_T_FLAT_INDEX,
    _Workspace,
    _checked_r6,
    _finish,
    _predict_kernel,
    _propagate,
    _update_kernel,
    default_process_noise,
    finite_rows,
    measurement_covariance,
    predict,
    state_from_row,
    twist_measurements,
)
from coloc.geometry import BODY_ADAS, LOCAL, WORLD, wrap_angle
from pose_objects import Pose, Quaternion, quat_yaw
from coloc.noise import NoiseSpec, RandomStream
from pose_rows import pose_event, twist_event

RNG = np.random.default_rng(555)

ODO = MeasurementKind.ODOMETRY_DIFFERENTIAL
PER = MeasurementKind.PERCEPTION_ABSOLUTE


def random_state(rng=RNG) -> np.ndarray:
    """A state away from wrap boundaries and the pitch singularity."""
    x = np.empty(STATE_DIM)
    x[POS] = rng.uniform(-50, 50, 3)
    x[ANG] = rng.uniform([-2.5, -1.2, -2.5], [2.5, 1.2, 2.5])
    x[VEL] = rng.uniform(-5, 5, 3)
    x[OMEGA] = rng.uniform(-1, 1, 3)
    x[ACC] = rng.uniform(-2, 2, 3)
    return x


def random_psd(n, rng=RNG, scale=1.0) -> np.ndarray:
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T) + 1e-9 * np.eye(n)


# one covariance per channel: node 1's raw odometry, node 2's smoothed
# odometry, and perception
RAW_R6 = measurement_covariance(NoiseSpec(2.5, 0.0))
SMOOTHED_R6 = measurement_covariance(NoiseSpec(0.05, 0.1))
PERCEPTION_R6 = measurement_covariance(NoiseSpec(0.3, 10.0))
# symmetric with a positive diagonal, but eigenvalues -0.5 and 2.5 in the
# pitch/yaw block
INDEFINITE_R6 = np.eye(6)
INDEFINITE_R6[4, 5] = INDEFINITE_R6[5, 4] = 1.5


def local_event(t, translation, yaw=0.0, r6=RAW_R6, kind=ODO):
    return MeasurementEvent(t, kind, LOCAL, [*translation, 0.0, 0.0, yaw], r6)


def world_event(t, translation, yaw=0.0, r6=PERCEPTION_R6):
    return MeasurementEvent(t, PER, WORLD, [*translation, 0.0, 0.0, yaw], r6)


def node_at(t, x, P):
    """A one-member node whose clock is ``t`` and whose estimate is ``x``, ``P``.

    Stepped with an event at its own stamp, it predicts nothing and applies
    that event's update alone.
    """
    return EkfNode(FilterNodeConfig(t, x, P, default_process_noise()))


def assert_same_estimate(node, before):
    """The node still holds the estimate ``before``, its (x, P) read earlier:
    no step committed since (a commit replaces x)."""
    x, P = before
    assert node.x is x and np.array_equal(node.P, P)


def assert_healthy(x, P, atol=1e-9):
    """Full health check of one member's estimate: P symmetric and positive
    semi-definite, the orientation angles wrapped to (-pi, pi]."""
    assert np.allclose(P, P.T, atol=atol), "covariance is not symmetric"
    assert np.linalg.eigvalsh(P).min() >= -atol, "covariance has a significantly negative eigenvalue"
    ang = x[ANG]
    assert not (np.any(ang > math.pi) or np.any(ang <= -math.pi)), "orientation angles are not wrapped to (-pi, pi]"


def jacobian(x, dt):
    """The transition Jacobian at state x over dt, from the entries :func:`_propagate` packs."""
    entries = np.empty(len(_JACOBIAN_T_FLAT_INDEX))
    _propagate(list(x), dt, entries)
    At = np.eye(STATE_DIM)
    At.ravel()[_JACOBIAN_T_FLAT_INDEX] = entries
    return At.T


# ---------------------------------------------------------------------------
# Transition model
# ---------------------------------------------------------------------------

class TestTransition:
    def test_zero_rates_fixed_point(self):
        x = np.zeros(STATE_DIM)
        x[POS] = [3.0, -2.0, 1.0]
        x[ANG] = [0.2, -0.1, 1.5]
        out = _propagate(x.tolist(), 0.5)
        np.testing.assert_array_equal(out[POS], x[POS])
        np.testing.assert_allclose(out[ANG], x[ANG], atol=1e-15)

    def test_forward_motion_rotated_by_yaw(self):
        x = np.zeros(STATE_DIM)
        x[ANG] = [0.0, 0.0, math.pi / 2]
        x[VEL] = [1.0, 0.0, 0.0]
        out = np.array(_propagate(x.tolist(), 1.0))
        np.testing.assert_allclose(out[POS], [0.0, 1.0, 0.0], atol=1e-12)

    def test_acceleration_terms(self):
        x = np.zeros(STATE_DIM)
        x[ACC] = [2.0, 0.0, 0.0]
        out = np.array(_propagate(x.tolist(), 0.5))
        np.testing.assert_allclose(out[POS], [0.25, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out[VEL], [1.0, 0.0, 0.0], atol=1e-12)

    def test_yaw_rate_integration(self):
        x = np.zeros(STATE_DIM)
        x[OMEGA] = [0.0, 0.0, 0.5]
        out = np.array(_propagate(x.tolist(), 0.2))
        np.testing.assert_allclose(out[ANG], [0.0, 0.0, 0.1], atol=1e-12)

    def test_angles_wrap(self):
        x = np.zeros(STATE_DIM)
        x[ANG] = [0.0, 0.0, math.pi - 0.01]
        x[OMEGA] = [0.0, 0.0, 1.0]
        out = np.array(_propagate(x.tolist(), 0.02))
        assert out[5] == pytest.approx(-math.pi + 0.01)

    def test_euler_rate_matrix_consistent_with_quaternion_integration(self):
        # One Euler step of the rate equation must agree with exact quaternion
        # integration to second order in dt: halving dt shrinks the gap ~4x.
        from pose_objects import rotation_geodesic

        for _ in range(20):
            x = random_state()
            omega = x[OMEGA]

            def gap(dt):
                rpy_next = _propagate(x.tolist(), dt)[ANG]
                q_euler = Quaternion.from_euler(*rpy_next)
                angle = np.linalg.norm(omega) * dt
                if angle < 1e-15:
                    return 0.0
                axis = omega / np.linalg.norm(omega)
                half = 0.5 * angle
                q_step = Quaternion(*(math.sin(half) * axis), math.cos(half))
                q_exact = Quaternion.from_euler(*x[ANG]) * q_step
                return rotation_geodesic(q_euler, q_exact)

            g1, g2 = gap(2e-3), gap(1e-3)
            assert g1 < 1e-5
            if g1 > 1e-12:
                assert g2 < g1 / 3.0

    def test_gimbal_singularity_raises(self):
        x = np.zeros(STATE_DIM)
        x[ANG] = [0.0, math.pi / 2, 0.0]
        with pytest.raises(NumericError):
            _propagate(x.tolist(), 0.01)


class TestTransitionJacobian:
    def test_matches_central_finite_differences(self):
        # Acceptance-grade check: relative error < 1e-5 over 100 random states.
        worst = 0.0
        for _ in range(100):
            x = random_state()
            dt = float(RNG.uniform(0.001, 0.2))
            A = jacobian(x, dt)
            A_fd = np.empty_like(A)
            for i in range(STATE_DIM):
                eps = 1e-6 * max(1.0, abs(x[i]))
                hi, lo = x.copy(), x.copy()
                hi[i] += eps
                lo[i] -= eps
                A_fd[:, i] = (np.array(_propagate(hi.tolist(), dt)) - _propagate(lo.tolist(), dt)) / (2 * eps)
            err = np.max(np.abs(A - A_fd) / (1.0 + np.abs(A_fd)))
            worst = max(worst, err)
        assert worst < 1e-5

    def test_identity_rows_for_constant_states(self):
        A = jacobian(random_state(), 0.1)
        np.testing.assert_array_equal(A[OMEGA, :9], np.zeros((3, 9)))
        np.testing.assert_array_equal(A[OMEGA, OMEGA], np.eye(3))
        np.testing.assert_array_equal(A[ACC, ACC], np.eye(3))


# ---------------------------------------------------------------------------
# Node config and predict
# ---------------------------------------------------------------------------

def indefinite_covariance():
    """Symmetric, with eigenvalue -1 on the pose block."""
    P = np.eye(STATE_DIM)
    P[POSE_BLOCK, POSE_BLOCK] = -np.eye(6)
    return P


def with_entry(a, index, value):
    a = a.copy()
    a[index] = value
    return a


# Each fault of a node config, with its exception and full text, in the
# order construction checks them: the state and its stamp, the step
# limits, Q, and last whether P is indefinite.
CONFIG_FAULTS = [
    ("state-shape", dict(x0=np.zeros(14)), ValueError, "state must have shape (15,), got (14,)"),
    ("covariance-shape", dict(P0=np.eye(14)), ValueError, "covariance must be 15x15, got (14, 14)"),
    ("state-nan", dict(x0=with_entry(np.zeros(STATE_DIM), 0, math.nan)), NumericError,
     "state vector contains non-finite values"),
    ("covariance-inf", dict(P0=with_entry(np.eye(STATE_DIM), (3, 3), math.inf)), NumericError,
     "covariance contains non-finite values"),
    ("stamp-nan", dict(t0=math.nan), ValueError, "timestamp must be finite"),
    ("max-predict-dt", dict(max_predict_dt=0.0), ValueError, "prediction step limits must be positive"),
    ("predict-substep", dict(predict_substep=-0.1), ValueError, "prediction step limits must be positive"),
    ("q-shape", dict(q=np.eye(14)), ValueError, "Q must be 15x15, got (14, 14)"),
    ("q-asymmetric", dict(q=with_entry(default_process_noise(), (0, 1), 1e-3)), ValueError, "Q must be symmetric"),
    ("q-indefinite", dict(q=with_entry(default_process_noise(), (0, 0), -1.0)), ValueError,
     "Q must be positive semi-definite"),
    ("covariance-indefinite", dict(P0=indefinite_covariance()), NumericError,
     "node covariance is indefinite: smallest eigenvalue -1"),
]


def config(**overrides):
    fields = dict(t0=0.0, x0=np.zeros(STATE_DIM), P0=np.eye(STATE_DIM), q=default_process_noise())
    fields.update(overrides)
    return FilterNodeConfig(**fields)


class TestFilterNodeConfig:
    @pytest.mark.parametrize(
        "k, error, text", [(k, error, text) for k, (_, _, error, text) in enumerate(CONFIG_FAULTS)],
        ids=[name for name, *_ in CONFIG_FAULTS],
    )
    def test_fault_raises_before_every_later_fault(self, k, error, text):
        # the config carries this fault and every one checked after it
        overrides = {}
        for _, fault, _, _ in reversed(CONFIG_FAULTS[k:]):
            overrides.update(fault)
        with pytest.raises(error) as raised:
            config(**overrides)
        assert str(raised.value) == text

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="state must have shape"):
            config(x0=np.zeros((1, STATE_DIM)))
        with pytest.raises(ValueError, match="covariance must be 15x15"):
            config(P0=np.eye(STATE_DIM)[None])

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError, match="state vector"):
            config(x0=with_entry(np.zeros(STATE_DIM), 5, -math.inf))
        with pytest.raises(NumericError, match="covariance contains"):
            config(P0=with_entry(np.eye(STATE_DIM), (0, 14), math.nan))
        with pytest.raises(ValueError, match="timestamp"):
            config(t0=math.inf)

    def test_indefinite_covariance_rejected(self):
        # an invertible pose block does not hide an indefinite P
        P = np.eye(STATE_DIM)
        P[POSE_BLOCK, POSE_BLOCK] = -0.5 * np.eye(6)
        with pytest.raises(NumericError, match="node covariance is indefinite"):
            config(P0=P)
        # a PSD P rounded a hair below zero is kept
        config(P0=with_entry(np.zeros((STATE_DIM, STATE_DIM)), (0, 0), -1e-12))

    def test_symmetrizes_exactly(self):
        P = with_entry(np.eye(STATE_DIM), (0, 1), 1e-12)
        q = with_entry(default_process_noise(), (2, 3), 1e-12)
        cfg = config(P0=P, q=q)
        np.testing.assert_array_equal(cfg.P0, cfg.P0.T)
        np.testing.assert_array_equal(cfg.q, cfg.q.T)
        assert cfg.P0[0, 1] == cfg.q[2, 3] == 0.5e-12

    def test_arrays_are_read_only_copies(self):
        # a caller changing its arrays after construction reaches no node
        rng = np.random.default_rng(24)
        x0, P0, q = random_state(rng), random_psd(STATE_DIM, rng), default_process_noise()
        cfg = config(x0=x0, P0=P0, q=q)
        kept = config(x0=x0.copy(), P0=P0.copy(), q=q.copy())
        for name in ("x0", "P0", "q"):
            assert not getattr(cfg, name).flags.writeable
            with pytest.raises(ValueError):
                getattr(cfg, name)[0] = 9.0
        x0[:], P0[:], q[:] = 1.0, 2.0, 3.0
        node, reference = EkfNode(cfg, 2), EkfNode(kept, 2)
        for t in (0.5, 0.6):
            event = tuple.__new__(MeasurementEvent, (t, PER, WORLD, np.full((2, 6), t), PERCEPTION_R6))
            node.node2_step(event)
            reference.node2_step(event)
        assert np.array_equal(node.x, reference.x) and np.array_equal(node.P, reference.P)

    def test_compares_by_identity(self):
        cfg = config()
        assert cfg == cfg and cfg != config()
        assert len({cfg, cfg, config()}) == 2


class TestPredict:
    q = default_process_noise()

    def test_dt_zero_is_exact_noop(self):
        x, P = random_state(), random_psd(STATE_DIM)
        out_x, out_P = predict(x, P, self.q, 0.0)
        assert out_x is x and out_P is P

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            predict(np.zeros(STATE_DIM), np.eye(STATE_DIM), self.q, -0.01)

    def test_zero_motion_grows_covariance_by_q_dt(self):
        x = np.zeros(STATE_DIM)
        out_x, out_P = predict(x, np.zeros((STATE_DIM, STATE_DIM)), self.q, 0.25)
        np.testing.assert_allclose(out_P, self.q * 0.25, atol=1e-15)
        np.testing.assert_array_equal(out_x, x)
        assert not (out_x.flags.writeable or out_P.flags.writeable)

    def test_forward_motion_example(self):
        x = np.zeros(STATE_DIM)
        x[ANG] = [0.0, 0.0, math.pi / 2]
        x[VEL] = [1.0, 0.0, 0.0]
        out_x, _ = predict(x, np.eye(STATE_DIM), self.q, 1.0)
        np.testing.assert_allclose(out_x[POS], [0.0, 1.0, 0.0], atol=1e-12)

    def test_covariance_health_over_many_steps(self):
        x, P = random_state(), random_psd(STATE_DIM, scale=0.1)
        for _ in range(200):
            x, P = predict(x, P, self.q, 0.01)
            assert_healthy(x, P)


# ---------------------------------------------------------------------------
# Absolute update
# ---------------------------------------------------------------------------

class TestUpdateAbsolute:
    """Node 1's absolute update of a local pose, applied alone."""

    @staticmethod
    def make_state(P=None):
        x = np.zeros(STATE_DIM)
        x[POS] = [1.0, 2.0, 0.0]
        x[ANG] = [0.0, 0.0, 0.3]
        return x, np.eye(STATE_DIM) if P is None else P

    def event_at(self, translation, yaw, r6):
        return MeasurementEvent(1.0, PER, LOCAL, [*translation, 0.0, 0.0, yaw], r6)

    def test_zero_innovation_keeps_pose_and_shrinks_p(self):
        x, P = self.make_state()
        node = node_at(1.0, x, P)
        node.node1_step(self.event_at([1.0, 2.0, 0.0], 0.3, np.eye(6) * 1e-12))
        np.testing.assert_allclose(node.x[0, POSE_BLOCK], x[POSE_BLOCK], atol=1e-9)
        assert np.trace(node.P[0]) < np.trace(P)

    def test_huge_r_is_uninformative(self):
        x, P = self.make_state(P=random_psd(STATE_DIM))
        node = node_at(1.0, x, P)
        node.node1_step(self.event_at([5.0, -3.0, 1.0], -0.7, np.eye(6) * 1e12))
        np.testing.assert_allclose(node.x[0], x, atol=1e-6)
        np.testing.assert_allclose(node.P[0], P, atol=1e-4, rtol=1e-6)

    def test_scalar_closed_form(self):
        # Classic textbook case on a decoupled axis: prior (0, 1), measurement
        # (1, 1) -> posterior (0.5, 0.5).
        P = np.zeros((STATE_DIM, STATE_DIM))
        P[0, 0] = 1.0
        node = node_at(1.0, np.zeros(STATE_DIM), P)
        node.node1_step(self.event_at([1.0, 0.0, 0.0], 0.0, np.eye(6)))
        (x,), (P,) = node.x, node.P
        assert x[0] == pytest.approx(0.5, abs=1e-12)
        assert P[0, 0] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(x[1:], np.zeros(STATE_DIM - 1), atol=1e-12)

    def test_innovation_wraps_across_pi(self):
        x = np.zeros(STATE_DIM)
        x[5] = math.radians(-179.0)
        P = np.zeros((STATE_DIM, STATE_DIM))
        P[5, 5] = 1.0
        node = node_at(1.0, x, P)
        node.node1_step(self.event_at([0.0, 0.0, 0.0], math.radians(179.0), np.eye(6)))
        # Innovation is -2 deg, gain 0.5: posterior moves 1 deg toward the
        # boundary, never 179 deg the long way round.
        moved = math.degrees(abs(wrap_angle(node.x[0, 5] - x[5])))
        assert moved == pytest.approx(1.0, abs=1e-9)

    def test_monotone_information(self):
        for _ in range(20):
            x, P = random_state(), random_psd(STATE_DIM)
            r6 = np.diag(RNG.uniform(0.01, 10.0, 6))
            node = node_at(1.0, x, P)
            node.node1_step(self.event_at(RNG.normal(size=3), RNG.uniform(-1, 1), r6))
            assert np.trace(node.P[0]) <= np.trace(P) + 1e-9
            assert_healthy(node.x[0], node.P[0])

    def test_singular_innovation_raises(self):
        # a zero r6 is rejected when the event is built, so S = P block + r6
        # of a PSD P is always invertible in the update
        node = node_at(1.0, np.zeros(STATE_DIM), np.zeros((STATE_DIM, STATE_DIM)))
        with pytest.raises(NumericError, match="singular"):
            node.node1_step(self.event_at([1.0, 0.0, 0.0], 0.0, np.zeros((6, 6))))

    def test_missing_r6_rejected(self):
        # an event without a covariance cannot be built, so none reaches the update
        node = node_at(1.0, *self.make_state())
        with pytest.raises(ValueError, match="r6"):
            node.node1_step(self.event_at([1.0, 2.0, 0.0], 0.3, None))

    def test_indefinite_covariance_raises_numeric_error(self):
        # S = P block + r6 = 0 would make the solve warn, and the test suite
        # turns that RuntimeWarning into an error: the node config refuses
        # the state before any update
        P = indefinite_covariance()
        with pytest.raises(NumericError, match="indefinite"):
            node_at(1.0, np.zeros(STATE_DIM), P)
        # an invertible S does not hide the indefinite P
        P[POSE_BLOCK, POSE_BLOCK] = -0.5 * np.eye(6)
        with pytest.raises(NumericError, match="indefinite"):
            node_at(1.0, np.zeros(STATE_DIM), P)


# ---------------------------------------------------------------------------
# Differential update
# ---------------------------------------------------------------------------

class TestDifferentialVelocity:
    """The body twist node 2 takes from two consecutive pose rows."""

    def test_no_motion_gives_zero(self):
        a = local_event(1.000, [2.0, 3.0, 0.0], yaw=0.4)
        b = local_event(1.005, [2.0, 3.0, 0.0], yaw=0.4)
        np.testing.assert_allclose(twist_event(a, b).z[0], np.zeros(6), atol=1e-12)

    def test_straight_line_speed(self):
        a = local_event(0.0, [0.0, 0.0, 0.0])
        b = local_event(0.5, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(twist_event(a, b).z[0][:3], [2.0, 0.0, 0.0], atol=1e-12)

    def test_motion_is_expressed_in_body_frame(self):
        a = local_event(0.0, [0.0, 0.0, 0.0], yaw=math.pi / 2)
        b = local_event(0.5, [0.0, 1.0, 0.0], yaw=math.pi / 2)
        np.testing.assert_allclose(twist_event(a, b).z[0][:3], [2.0, 0.0, 0.0], atol=1e-12)

    def test_yaw_rate(self):
        a = local_event(0.0, [0.0, 0.0, 0.0], yaw=0.0)
        b = local_event(0.1, [0.0, 0.0, 0.0], yaw=0.1)
        np.testing.assert_allclose(twist_event(a, b).z[0][3:], [0.0, 0.0, 1.0], atol=1e-12)

    def test_rejects_bad_pairs(self):
        a = local_event(1.0, [0.0, 0.0, 0.0])
        b = local_event(1.0, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            twist_event(a, b)
        with pytest.raises(ValueError):
            twist_event(b, local_event(0.5, [1.0, 0.0, 0.0]))

    def test_measurements_stop_before_a_non_finite_twist(self):
        # the second step's difference overflows, the third is finite again
        stamps = np.arange(4.0)
        rows = np.zeros((4, 2, 6))
        rows[1:, 1, 0] = [-1e308, 1e308, 1e308]
        measurements = twist_measurements(stamps, rows, SMOOTHED_R6)
        assert len(measurements) == 1
        assert measurements[0][0].tolist() == [[0.0] * 6, [-1e308] + [0.0] * 5]


class TestUpdateDifferential:
    """Node 2's update of a twist event, applied alone."""

    @staticmethod
    def node_at(t):
        return node_at(t, np.zeros(STATE_DIM), np.eye(STATE_DIM))

    def test_offset_invariance_bitwise(self):
        # Dyadic coordinates keep the offset additions exactly representable,
        # so the cancellation in the delta is bit-for-bit.
        offset = np.array([100.0, -50.0, 0.0])
        r6 = np.eye(6) * 0.01
        a = local_event(0.9, [1.0, 2.25, 0.0], yaw=0.3, r6=r6)
        b = local_event(1.0, [1.5, 2.5, 0.0], yaw=0.35, r6=r6)
        a_off = local_event(0.9, offset + [1.0, 2.25, 0.0], yaw=0.3, r6=r6)
        b_off = local_event(1.0, offset + [1.5, 2.5, 0.0], yaw=0.35, r6=r6)
        plain, shifted = self.node_at(1.0), self.node_at(1.0)
        plain.node2_step(twist_event(a, b))
        shifted.node2_step(twist_event(a_off, b_off))
        assert np.array_equal(plain.x, shifted.x)
        assert np.array_equal(plain.P, shifted.P)

    def test_offset_invariance_general_values(self):
        # Arbitrary (non-representable) offsets cancel to rounding error.
        offset = np.array([1234.567, -890.123, 0.0])
        r6 = np.eye(6) * 0.01
        a = local_event(0.9, [1.0, 2.2, 0.0], yaw=0.3, r6=r6)
        b = local_event(1.0, [1.5, 2.4, 0.0], yaw=0.35, r6=r6)
        a_off = local_event(0.9, offset + [1.0, 2.2, 0.0], yaw=0.3, r6=r6)
        b_off = local_event(1.0, offset + [1.5, 2.4, 0.0], yaw=0.35, r6=r6)
        plain, shifted = self.node_at(1.0), self.node_at(1.0)
        plain.node2_step(twist_event(a, b))
        shifted.node2_step(twist_event(a_off, b_off))
        np.testing.assert_allclose(plain.x, shifted.x, atol=1e-9)
        np.testing.assert_allclose(plain.P, shifted.P, atol=1e-9)

    def test_velocity_states_move_toward_measurement(self):
        r6 = np.eye(6) * 1e-6
        a = local_event(0.5, [0.0, 0.0, 0.0], r6=r6)
        b = local_event(1.0, [1.0, 0.0, 0.0], r6=r6)
        node = self.node_at(1.0)
        node.node2_step(twist_event(a, b))
        assert node.x[0, 6] == pytest.approx(2.0, rel=1e-2)
        np.testing.assert_allclose(node.x[0, POSE_BLOCK], np.zeros(6), atol=1e-12)

    def test_r_scales_with_dt_squared(self):
        r6 = np.eye(6)
        a = local_event(0.0, [0.0, 0.0, 0.0], r6=r6)
        b = local_event(0.1, [0.2, 0.0, 0.0], r6=r6)
        fast = self.node_at(0.1)
        fast.node2_step(twist_event(a, b))
        c = local_event(0.0, [0.0, 0.0, 0.0], r6=r6)
        d = local_event(1.0, [2.0, 0.0, 0.0], r6=r6)
        slow = self.node_at(1.0)
        slow.node2_step(twist_event(c, d))
        # Same measured velocity, but the longer baseline is far more
        # trustworthy, so it pulls the velocity state harder.
        assert abs(slow.x[0, 6] - 2.0) < abs(fast.x[0, 6] - 2.0)

    def test_monotone_information_and_health(self):
        x, P = random_state(), random_psd(STATE_DIM)
        r6 = np.diag(RNG.uniform(0.001, 0.1, 6))
        a = local_event(0.90, RNG.normal(size=3), yaw=0.1, r6=r6)
        b = local_event(0.95, RNG.normal(size=3), yaw=0.12, r6=r6)
        node = node_at(0.95, x, P)
        node.node2_step(twist_event(a, b))
        assert np.trace(node.P[0]) <= np.trace(P) + 1e-9
        assert_healthy(node.x[0], node.P[0])

    def test_missing_covariance_rejected(self):
        a = local_event(0.0, [0.0, 0.0, 0.0])
        node = self.node_at(0.5)
        with pytest.raises(ValueError, match="r6"):
            node.node2_step(twist_event(a, local_event(0.5, [1.0, 0.0, 0.0], r6=None)))

    def test_indefinite_covariance_raises_numeric_error(self):
        P = np.eye(STATE_DIM)
        P[TWIST_BLOCK, TWIST_BLOCK] = -np.eye(6)
        a = local_event(0.0, [0.0, 0.0, 0.0], r6=np.eye(6))
        b = local_event(1.0, [1.0, 0.0, 0.0], r6=np.eye(6))
        with pytest.raises(NumericError, match="indefinite"):
            node_at(1.0, np.zeros(STATE_DIM), P).node2_step(twist_event(a, b))


# ---------------------------------------------------------------------------
# Equivalence with a hand-rolled linear Kalman filter
# ---------------------------------------------------------------------------

def reference_linear_kf(z_seq, dt, q_pos, q_vel, r, p0_pos, p0_vel):
    """Textbook 2-state (position, velocity) Kalman filter, Joseph update."""
    x = np.zeros(2)
    P = np.diag([p0_pos, p0_vel])
    F = np.array([[1.0, dt], [0.0, 1.0]])
    Q = np.diag([q_pos, q_vel]) * dt
    H = np.array([[1.0, 0.0]])
    history = []
    for z in z_seq:
        x = F @ x
        P = F @ P @ F.T + Q
        S = P[0, 0] + r
        K = P[:, 0] / S
        x = x + K * (z - x[0])
        IKH = np.eye(2) - np.outer(K, H[0])
        P = IKH @ P @ IKH.T + np.outer(K, K) * r
        history.append((x.copy(), P.copy()))
    return history


class TestLinearEquivalence:
    def test_matches_reference_kf_over_1000_steps(self):
        # node 1 predicts from its initial stamp to each event's, then updates
        dt, q_pos, q_vel, r = 0.02, 0.01, 0.05, 0.5
        p0_pos, p0_vel = 2.0, 3.0
        rng = np.random.default_rng(2024)
        z_seq = rng.normal(0.0, 1.0, size=1000) + np.arange(1000) * dt * 1.5

        ref = reference_linear_kf(z_seq, dt, q_pos, q_vel, r, p0_pos, p0_vel)

        q15 = np.zeros((STATE_DIM, STATE_DIM))
        q15[0, 0] = q_pos
        q15[6, 6] = q_vel
        P0 = np.zeros((STATE_DIM, STATE_DIM))
        P0[0, 0] = p0_pos
        P0[6, 6] = p0_vel
        node = EkfNode(FilterNodeConfig(0.0, np.zeros(STATE_DIM), P0, q15))
        r6 = np.diag([r, 1e12, 1e12, 1e12, 1e12, 1e12])

        worst_x = worst_p = 0.0
        for k, z in enumerate(z_seq):
            node.node1_step(MeasurementEvent((k + 1) * dt, PER, LOCAL, [z, 0.0, 0.0, 0.0, 0.0, 0.0], r6))
            (x,), (P,) = node.x, node.P
            x_ref, P_ref = ref[k]
            worst_x = max(worst_x, abs(x[0] - x_ref[0]), abs(x[6] - x_ref[1]))
            worst_p = max(
                worst_p,
                abs(P[0, 0] - P_ref[0, 0]),
                abs(P[0, 6] - P_ref[0, 1]),
                abs(P[6, 6] - P_ref[1, 1]),
            )
        assert worst_x < 1e-9
        assert worst_p < 1e-9


# ---------------------------------------------------------------------------
# Measurement covariance helper
# ---------------------------------------------------------------------------

class TestMeasurementCovariance:
    def test_diagonal_structure(self):
        r6 = measurement_covariance(NoiseSpec(0.3, 10.0))
        assert r6.shape == (6, 6)
        np.testing.assert_allclose(np.diag(r6), [0.09, 0.09, 1e-6, 1e-6, 1e-6, math.radians(10.0) ** 2])
        assert np.count_nonzero(r6 - np.diag(np.diag(r6))) == 0

    def test_floor_applies_to_zero_channels(self):
        r6 = measurement_covariance(NoiseSpec(0.0, 0.0), floor=1e-4)
        np.testing.assert_allclose(np.diag(r6), np.full(6, 1e-4))

    def test_bad_floor_rejected(self):
        with pytest.raises(ValueError):
            measurement_covariance(NoiseSpec(1.0, 1.0), floor=0.0)


class TestMeasurementEvent:
    """Every covariance an event is given is checked, read-only or not."""

    @staticmethod
    def bad_r6(case):
        r6 = np.eye(6)
        if case == "asymmetric":
            r6[0, 1] = 0.5
        elif case == "negative-diagonal":
            r6[2, 2] = -1.0
        else:
            r6[4, 4] = np.nan
        return r6

    @pytest.mark.parametrize("writeable", [True, False])
    @pytest.mark.parametrize(
        "case, error, match",
        [
            ("asymmetric", ValueError, "symmetric"),
            ("negative-diagonal", ValueError, "negative diagonal"),
            ("nan", NumericError, "non-finite"),
        ],
    )
    def test_bad_r6_rejected(self, case, error, match, writeable):
        r6 = self.bad_r6(case)
        r6.flags.writeable = writeable
        with pytest.raises(error, match=match):
            local_event(0.0, [0.0, 0.0, 0.0], r6=r6)

    def test_missing_r6_rejected(self):
        z = [0.0] * 6
        with pytest.raises(TypeError, match="r6"):
            MeasurementEvent(0.0, ODO, LOCAL, z)
        with pytest.raises(ValueError, match="r6"):
            MeasurementEvent(0.0, ODO, LOCAL, z, None)

    @pytest.mark.parametrize(
        "z", [[0.0] * 5, [0.0] * 7, [0.0, 0.0, math.nan, 0.0, 0.0, 0.0], [math.inf] + [0.0] * 5]
    )
    def test_z_must_be_six_finite_floats(self, z):
        with pytest.raises(ValueError, match="six finite floats"):
            MeasurementEvent(0.0, ODO, LOCAL, z, RAW_R6)

    def test_z_is_kept_as_a_read_only_row_of_floats(self):
        # the six floats are the event's one member row, copied
        z = np.arange(6)
        event = MeasurementEvent(0.0, ODO, LOCAL, z, RAW_R6)
        z[0] = 9
        assert event.z.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]]
        assert event.z.dtype == np.float64
        assert not event.z.flags.writeable

    @pytest.mark.parametrize(
        "r6",
        [
            np.zeros((6, 6)),
            np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]),  # singular PSD
            np.ones((6, 6)),  # PSD of rank 1
            INDEFINITE_R6,
        ],
        ids=["zero", "singular-diagonal", "rank-one", "indefinite"],
    )
    def test_r6_not_positive_definite_rejected(self, r6):
        with pytest.raises(NumericError, match="singular"):
            _checked_r6(r6, "r6")
        with pytest.raises(NumericError, match="singular"):
            local_event(0.0, [0.0, 0.0, 0.0], r6=r6)

    def test_tiny_positive_definite_r6_accepted(self):
        r6 = _checked_r6(1e-12 * np.eye(6), "r6")
        np.testing.assert_array_equal(r6, 1e-12 * np.eye(6))
        assert not r6.flags.writeable

    def test_checked_r6_is_kept_read_only(self):
        shared = measurement_covariance(NoiseSpec(0.3, 10.0))
        assert _checked_r6(shared, "r6") is shared
        assert local_event(0.0, [0.0, 0.0, 0.0], r6=shared).r6 is shared
        own = np.eye(6)
        r6 = local_event(0.0, [0.0, 0.0, 0.0], r6=own).r6
        assert r6 is not own and not r6.flags.writeable
        np.testing.assert_array_equal(r6, own)


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------

def node1_config(**overrides):
    x0, P0 = state_from_row([0.0] * 6)
    return config(**{"x0": x0, "P0": P0, **overrides})


# where the local frame sits in the world; node 2 starts there
WORLD_TO_LOCAL = Pose(0.0, np.array([10.0, -4.0, 0.0]), quat_yaw(0.5), WORLD, LOCAL)


def node2_config(start=WORLD_TO_LOCAL, **overrides):
    x0, P0 = state_from_row([*start.translation.tolist(), *start.rotation.to_euler()])
    return config(**{"x0": x0, "P0": P0, **overrides})


class TestNode1:
    def test_first_event_at_origin_stays_identity(self):
        node = EkfNode(node1_config())
        rows = node.node1_step(local_event(0.0, [0.01, -0.02, 0.0], yaw=0.001))
        # The start is known with high confidence; one noisy measurement
        # barely moves it.
        assert np.linalg.norm(rows[0][:3]) < 0.01
        # the rows are the pose block of the committed state
        assert rows.tolist() == node.x[:, POSE_BLOCK].tolist()
        assert np.shares_memory(rows, node.x) and not rows.flags.writeable

    def test_noiseless_straight_line_tracks_truth(self):
        r6 = measurement_covariance(NoiseSpec(0.0, 0.0))
        node = EkfNode(node1_config())
        dt, speed = 0.01, 2.0
        rows = None
        for k in range(1000):
            t = k * dt
            rows = node.node1_step(local_event(t, [speed * t, 0.0, 0.0], r6=r6))
        assert np.linalg.norm(np.array(rows[0][:3]) - [speed * 999 * dt, 0.0, 0.0]) < 1e-6

    def test_stationary_noise_is_smoothed(self):
        from coloc.noise import perturb_translation

        spec = NoiseSpec(2.5, 0.0)
        rng = RandomStream(3)
        node = EkfNode(node1_config())
        noises, errors = [], []
        for k, t_noisy in enumerate(perturb_translation(np.zeros((1000, 3)), spec, rng)):
            (row,) = node.node1_step(local_event(k * 0.005, t_noisy))
            if k > 100:  # after burn-in
                noises.append(t_noisy[0])
                errors.append(row[0])
        assert np.std(errors) < np.std(noises)

    def test_first_event_is_predicted_from_the_initial_stamp(self):
        # the clock starts at the initial state's stamp, not at the first event
        cfg = node1_config()
        node = EkfNode(cfg)
        event = local_event(0.5, [0.3, 0.1, 0.0], yaw=0.02)
        node.node1_step(event)
        expected = node_at(0.5, *predict(cfg.x0, cfg.P0, cfg.q, 0.5))
        expected.node1_step(event)
        assert node.timestamp == expected.timestamp == 0.5
        np.testing.assert_allclose(node.x, expected.x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(node.P, expected.P, rtol=1e-12, atol=1e-12)

    def test_event_older_than_the_initial_stamp_rejected(self):
        node = EkfNode(node1_config(t0=1.0))
        before = node.x, node.P
        with pytest.raises(OutOfOrderError):
            node.node1_step(local_event(0.5, [0.0, 0.0, 0.0]))
        assert node.rejected_count == 1
        assert_same_estimate(node, before)
        assert node.timestamp == 1.0

    def test_out_of_order_rejected_and_recoverable(self):
        node = EkfNode(node1_config())
        node.node1_step(local_event(1.0, [0.0, 0.0, 0.0]))
        before = node.x, node.P
        with pytest.raises(OutOfOrderError):
            node.node1_step(local_event(0.5, [1.0, 0.0, 0.0]))
        assert_same_estimate(node, before)
        assert node.rejected_count == 1
        node.node1_step(local_event(1.01, [0.02, 0.0, 0.0]))
        assert node.rejected_count == 1

    def test_frame_mismatch_rejected(self):
        node = EkfNode(node1_config())
        with pytest.raises(FrameMismatchError):
            node.node1_step(world_event(0.0, [0.0, 0.0, 0.0]))


class TestNode1SteadyState:
    def test_covariance_converges_to_riccati_solution(self):
        # On a noiseless straight line at constant speed the transition
        # Jacobian settles, so node 1 is a time-invariant Kalman filter and
        # its covariance after an update converges to the posterior of the
        # discrete algebraic Riccati equation's prior solution.
        r6 = measurement_covariance(NoiseSpec(0.5, 2.0))
        q = default_process_noise()
        node = EkfNode(node1_config(q=q))
        dt, speed = 0.01, 2.0
        for k in range(6000):
            node.node1_step(local_event(k * dt, [speed * k * dt, 0.0, 0.0], r6=r6))
        A = jacobian(node.x[0], dt)
        H = np.eye(6, STATE_DIM)
        prior = scipy.linalg.solve_discrete_are(A.T, H.T, q * dt, r6)
        posterior = prior - prior @ H.T @ np.linalg.solve(H @ prior @ H.T + r6, H @ prior)
        P = node.P[0]
        assert np.abs(P - posterior).max() <= 1e-9 * np.abs(posterior).max()


class TestNode2SteadyState:
    def test_twist_covariance_converges_to_riccati_solution(self):
        # The transition Jacobian has no pose-to-twist terms, and its block
        # on states 6:15 (velocity integrates acceleration) does not depend
        # on the state.  Under a constant twist at a fixed step those states
        # are a time-invariant Kalman filter of their own, with H = [I6 0]
        # and the twist covariance R = (r6 + r6) / dt^2.
        q = default_process_noise()
        node = EkfNode(node2_config(q=q))
        dt, speed, n = 0.1, 2.0, 400
        stamps = np.arange(n + 1) * dt
        rows = np.zeros((n + 1, 1, 6))
        rows[:, 0, 0] = speed * stamps
        for t, (z, r_vel) in zip(stamps[1:].tolist(), twist_measurements(stamps, rows, SMOOTHED_R6)):
            node.node2_step(tuple.__new__(MeasurementEvent, (t, ODO, LOCAL, z, r_vel)))
        twist = slice(VEL.start, STATE_DIM)
        A = jacobian(node.x[0], dt)[twist, twist]
        H = np.eye(6, 9)
        R = 2.0 * SMOOTHED_R6 / (dt * dt)
        prior = scipy.linalg.solve_discrete_are(A.T, H.T, q[twist, twist] * dt, R)
        posterior = prior - prior @ H.T @ np.linalg.solve(H @ prior @ H.T + R, H @ prior)
        P = node.P[0, twist, twist]
        assert np.abs(P - posterior).max() <= 1e-9 * np.abs(posterior).max()


class TestNode2:
    def test_perception_only_tracks_measurements(self):
        node = EkfNode(node2_config())
        tiny = measurement_covariance(NoiseSpec(0.001, 0.01))
        for k in range(200):
            t = k * 0.1
            target = np.array([10.0 + 0.5 * t, -4.0 + 0.2 * t, 0.0])
            node.node2_step(world_event(t, target, yaw=0.5, r6=tiny))
        np.testing.assert_allclose(node.x[0, POS], target, atol=5e-3)

    def test_world_odometry_pose_rejected(self):
        # node 2 takes node 1's local->body poses on the odometry channel
        node = EkfNode(node2_config())
        before = node.x, node.P
        world_odometry = MeasurementEvent(0.0, ODO, WORLD, [0.0] * 6, SMOOTHED_R6)
        with pytest.raises(FrameMismatchError):
            node.node2_step(world_odometry)
        assert_same_estimate(node, before)

    def test_local_perception_pose_rejected(self):
        # node 2 fuses perception poses in the world frame only
        node = EkfNode(node2_config())
        node.node2_step(world_event(0.0, [10.0, -4.0, 0.0], yaw=0.5))
        before = node.x, node.P
        local_perception = local_event(0.1, [0.0, 0.0, 0.0], r6=PERCEPTION_R6, kind=PER)
        with pytest.raises(FrameMismatchError, match="perception"):
            node.node2_step(local_perception)
        assert_same_estimate(node, before)
        assert node.rejected_count == 0

    def test_differential_chain_uses_local_poses(self):
        # the chain's first odometry event, at the initial stamp, changes
        # nothing; the second fuses the twist between the local poses, with
        # their covariance, as a node at the predicted state does
        cfg = node2_config()
        node = EkfNode(cfg)
        prev, cur = (
            local_event(0.0, [0.0, 0.0, 0.0], r6=SMOOTHED_R6),
            local_event(0.1, [0.4, 0.1, 0.0], yaw=0.05, r6=SMOOTHED_R6),
        )
        node.node2_step(twist_event(None, prev))
        assert node.timestamp == 0.0
        assert np.array_equal(node.x, cfg.x0[None])
        assert np.array_equal(node.P, cfg.P0[None])
        node.node2_step(twist_event(prev, cur))
        expected = node_at(0.1, *predict(cfg.x0, cfg.P0, cfg.q, 0.1))
        expected.node2_step(twist_event(prev, cur))
        assert node.timestamp == expected.timestamp
        np.testing.assert_allclose(node.x, expected.x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(node.P, expected.P, rtol=1e-12, atol=1e-12)

    def test_world_anchor_cancels_in_differential_chain(self):
        # invert(W o A) o (W o B) = invert(A) o B: world-composed poses give
        # the local-pose chain, up to rounding
        from pose_objects import compose

        rng = np.random.default_rng(43)
        cfg, r6 = node2_config(), SMOOTHED_R6
        local, world = EkfNode(cfg), EkfNode(cfg)
        prev_local = prev_world = None
        t = 0.0
        for k in range(60):
            pose = Pose(
                t,
                np.array([3.0 * t, 0.2 * t * t, 0.0]) + rng.normal(0.0, 0.05, 3),
                quat_yaw(0.1 * t + rng.normal(0.0, 0.01)),
                LOCAL,
                BODY_ADAS,
            )
            cur_local = pose_event(ODO, pose, r6)
            cur_world = pose_event(ODO, compose(WORLD_TO_LOCAL, pose), r6)
            assert cur_world.frame == WORLD
            local.node2_step(twist_event(prev_local, cur_local))
            # node 2's odometry channel takes local rows: the world rows'
            # twist goes in under that frame
            world.node2_step(twist_event(prev_world, cur_world)._replace(frame=LOCAL))
            np.testing.assert_allclose(world.x, local.x, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(world.P, local.P, rtol=1e-12, atol=1e-12)
            prev_local, prev_world = cur_local, cur_world
            t = round(t + (0.13 if k == 30 else 0.01), 10)


class TestTwoStageLocalizer:
    """Node 1 and node 2 chained as the harness wires them."""

    def test_noiseless_run_tracks_ground_truth(self):
        w2l = Pose(0.0, np.array([100.0, 50.0, 0.0]), quat_yaw(1.0), WORLD, LOCAL)
        r6 = measurement_covariance(NoiseSpec(0.0, 0.0))
        node1 = EkfNode(node1_config())
        node2 = EkfNode(node2_config(start=w2l))
        dt, speed = 0.01, 3.0
        prev = None
        for k in range(800):
            t = k * dt
            event = local_event(t, [speed * t, 0.0, 0.0], r6=r6)
            (row,) = node1.node1_step(event)
            smoothed = MeasurementEvent(t, ODO, LOCAL, row, r6)
            node2.node2_step(twist_event(prev, smoothed))
            prev = smoothed
        truth_local = Pose(t, np.array([speed * t, 0.0, 0.0]), Quaternion.identity(), LOCAL, BODY_ADAS)
        from pose_objects import compose

        truth_world = compose(w2l, truth_local)
        assert np.linalg.norm(node2.x[0, POS] - truth_world.translation) < 1e-3


class TestNodeRunsThePublicKernels:
    """A node must compute what ``predict`` and then each event's update
    alone compute: a reference node is built at the predicted state and
    stepped at its stamp.

    The node chains the prediction and the update and symmetrizes once per
    event instead of once per operation, so the two agree to rounding.
    """

    TOL = 1e-12

    @staticmethod
    def advance(ref, t):
        """A one-member node at ``ref``'s estimate predicted to t by the
        node's rule: one step, or equal substeps for a long gap."""
        cfg, (x,), (P,) = ref.config, ref.x, ref.P
        dt = t - ref.timestamp
        n = 1 if dt <= cfg.max_predict_dt else math.ceil(dt / cfg.predict_substep)
        for _ in range(n):
            x, P = predict(x, P, cfg.q, dt / n)
        return EkfNode(replace(cfg, t0=t, x0=x, P0=P))

    def assert_close(self, node, ref):
        assert node.timestamp == pytest.approx(ref.timestamp, abs=1e-12)
        np.testing.assert_allclose(node.x, ref.x, rtol=self.TOL, atol=self.TOL)
        np.testing.assert_allclose(node.P, ref.P, rtol=self.TOL, atol=self.TOL)

    def test_node1_sequence(self):
        rng = np.random.default_rng(41)
        cfg = node1_config(max_predict_dt=0.05, predict_substep=0.02)
        node, ref = EkfNode(cfg), EkfNode(cfg)
        t = 0.0
        for k in range(60):
            ev = local_event(t, [2.0 * t, 0.3 * t * t, 0.0] + rng.normal(0.0, 2.5, 3), yaw=rng.normal(0.0, 0.02))
            node.node1_step(ev)
            ref = self.advance(ref, t)
            ref.node1_step(ev)
            self.assert_close(node, ref)
            t = round(t + (0.13 if k == 30 else 0.01), 10)

    def test_node2_sequence(self):
        rng = np.random.default_rng(42)
        cfg = node2_config(max_predict_dt=0.05, predict_substep=0.02)
        node, ref = EkfNode(cfg), EkfNode(cfg)
        prev = None
        t = 0.0
        for k in range(60):
            xyz = np.array([3.0 * t, 0.2 * t * t, 0.0]) + rng.normal(0.0, 0.05, 3)
            cur = local_event(t, xyz, yaw=0.1 * t + rng.normal(0.0, 0.01), r6=SMOOTHED_R6)
            odometry = twist_event(prev, cur)
            node.node2_step(odometry)
            ref = self.advance(ref, t)
            ref.node2_step(odometry)
            prev = cur
            if k % 2 == 0:
                seen = world_event(t, [10.0 + 3.0 * t, -4.0, 0.0] + rng.normal(0.0, 0.3, 3), yaw=0.5 + rng.normal(0.0, 0.05))
                node.node2_step(seen)
                ref.node2_step(seen)
            self.assert_close(node, ref)
            t = round(t + (0.13 if k == 30 else 0.01), 10)

    def test_node2_cached_terms_follow_step_and_covariance(self):
        # more distinct steps than the node caches Q dt for, and twist
        # covariances of three pose-row covariances
        rng = np.random.default_rng(44)
        cfg = node2_config()
        node, ref = EkfNode(cfg), EkfNode(cfg)
        prev = None
        t = 0.0
        for k in range(80):
            r6 = SMOOTHED_R6 if k % 2 else SMOOTHED_R6.copy() * (1.0 + k % 3)
            cur = local_event(t, [3.0 * t, 0.1 * t, 0.0] + rng.normal(0.0, 0.05, 3), yaw=0.1 * t, r6=r6)
            odometry = twist_event(prev, cur)
            node.node2_step(odometry)
            ref = self.advance(ref, t)
            ref.node2_step(odometry)
            prev = cur
            self.assert_close(node, ref)
            t = round(t + rng.choice([0.005, 0.01, 0.02]) * (1 + k % 20), 10)


class TestRestrictedNode:
    """A node restricted to some of its members steps on as those members
    of the whole node do, bit for bit, a one-member node included."""

    @staticmethod
    def events(rng, t, members):
        """An odometry event of per-member twists and covariances, and a
        perception event, for the given members of three."""
        r6s = np.array([SMOOTHED_R6 * (1.0 + b) for b in range(3)])
        rows = [[3.0 * t + b, 0.2 * t, 0.0, 0.0, 0.0, 0.1 * t] + rng.normal(0.0, 0.05, 6) for b in range(3)]
        seen = [[10.0 + 3.0 * t, -4.0 + b, 0.0, 0.0, 0.0, 0.5] + rng.normal(0.0, 0.3, 6) for b in range(3)]
        r6 = r6s[members] if len(members) > 1 else r6s[members[0]]
        return (
            tuple.__new__(MeasurementEvent, (t, ODO, LOCAL, np.array([rows[b] for b in members]), r6)),
            tuple.__new__(MeasurementEvent, (t, PER, WORLD, np.array([seen[b] for b in members]), PERCEPTION_R6)),
        )

    def test_restricted_node_steps_on_bit_for_bit(self):
        cfg = node2_config(max_predict_dt=0.05, predict_substep=0.02)
        node = EkfNode(cfg, 3)
        parts = {}
        for k in range(40):
            t = round(0.01 * k + (0.1 if k > 20 else 0.0), 10)
            if k == 15:
                parts = {(2, 0): node.restricted([2, 0]), (1,): node.restricted([1])}
            for members, part in [((0, 1, 2), node), *parts.items()]:
                odometry, perception = self.events(np.random.default_rng(k), t, list(members))
                part.node2_step(odometry)
                if k % 3 == 0:
                    part.node2_step(perception)
            for members, part in parts.items():
                assert part.timestamp == node.timestamp
                assert np.array_equal(part.x, node.x[list(members)])
                assert np.array_equal(part.P, node.P[list(members)])
                assert not part.P.flags.writeable


class TestNodeWorkspace:
    """A node's kernel buffers carry nothing from one call to the next.

    Node 1 and node 2 stepped alternately, as a run's filter block steps
    them, give the bits of each node stepped alone, at one member and at
    three, and a snapshot, which shares its node's buffers, keeps its
    estimate while the node steps on.  No committed or returned array is,
    or shares memory with, a buffer, so what a caller keeps from a step or
    from a finished kernel result outlives later calls.
    """

    @staticmethod
    def events(members):
        """Node 1's odometry events, and node 2's lists of events, one per
        node-1 event, of ``members`` members whose rows all differ."""
        rng = np.random.default_rng(7 + members)
        stamps = np.round(0.01 * np.arange(40) + 0.12 * (np.arange(40) > 20), 10)
        drift = rng.normal(0.0, 0.05, (40, members, 6))
        raw = np.array([
            [[3.0 * t + b, 0.2 * t, 0.0, 0.0, 0.0, 0.1 * t + 0.01 * b] for b in range(members)]
            for t in stamps.tolist()
        ])
        smoothed = raw + drift
        seen = raw + [10.0, -4.0, 0.0, 0.0, 0.0, 0.5] + rng.normal(0.0, 0.3, (40, members, 6))
        r6 = PERCEPTION_R6 if members == 1 else np.array([PERCEPTION_R6 * (1.0 + b) for b in range(members)])
        node1 = [tuple.__new__(MeasurementEvent, (t, ODO, LOCAL, z, RAW_R6)) for t, z in zip(stamps.tolist(), raw)]
        node2 = [[tuple.__new__(MeasurementEvent, (float(stamps[0]), ODO, LOCAL, None, None))]]
        for k, (z, r_vel) in enumerate(twist_measurements(stamps, smoothed, SMOOTHED_R6), 1):
            t = float(stamps[k])
            node2.append([tuple.__new__(MeasurementEvent, (t, ODO, LOCAL, z, r_vel))])
            if k % 3 == 0:
                node2[-1].append(tuple.__new__(MeasurementEvent, (t, PER, WORLD, seen[k], r6)))
        return node1, node2

    @staticmethod
    def nodes(members):
        return (
            EkfNode(node1_config(max_predict_dt=0.05, predict_substep=0.02), members),
            EkfNode(node2_config(max_predict_dt=0.05, predict_substep=0.02), members),
        )

    @pytest.mark.parametrize("members", [1, 3])
    def test_nodes_stepped_alternately_match_each_stepped_alone(self, members):
        node1_events, node2_events = self.events(members)
        node1, node2 = self.nodes(members)
        for k, (event, events) in enumerate(zip(node1_events, node2_events)):
            if k == 15:
                snapshot = copy(node2)
                assert snapshot._work is node2._work
                kept = snapshot.x.copy(), snapshot.P.copy(), snapshot.timestamp
            node1.node1_step(event)
            for e in events:
                node2.node2_step(e)
        alone1, alone2 = self.nodes(members)
        for event in node1_events:
            alone1.node1_step(event)
        for e in (e for events in node2_events for e in events):
            alone2.node2_step(e)
        for node, alone in ((node1, alone1), (node2, alone2)):
            assert np.array_equal(node.x, alone.x)
            assert np.array_equal(node.P, alone.P)
        x, P, timestamp = kept
        assert np.array_equal(snapshot.x, x) and np.array_equal(snapshot.P, P)
        assert snapshot.timestamp == timestamp
        # and the snapshot steps on to the node's bits
        for e in (e for events in node2_events[15:] for e in events):
            snapshot.node2_step(e)
        assert np.array_equal(snapshot.x, node2.x)
        assert np.array_equal(snapshot.P, node2.P)

    @staticmethod
    def assert_aliases_no_buffer(arrays, work):
        buffers = [a for a in (getattr(work, name) for name in work.__slots__) if isinstance(a, np.ndarray)]
        for a in arrays:
            for buffer in buffers:
                assert not np.shares_memory(a, buffer)

    @pytest.mark.parametrize("members", [1, 3])
    def test_committed_and_returned_arrays_are_not_buffers(self, members):
        # what a caller keeps from step k, node 1's returned rows included,
        # outlives the later steps: past row 19 come a twist update, a
        # perception update, and a 0.13 s gap that node 1 and node 2 predict
        # across in substeps (max_predict_dt 0.05)
        node1_events, node2_events = self.events(members)
        node1, node2 = self.nodes(members)
        for k, (event, events) in enumerate(zip(node1_events, node2_events)):
            rows = node1.node1_step(event)
            for e in events:
                node2.node2_step(e)
            held = [node1.x, node1.P, node1._P, rows]
            self.assert_aliases_no_buffer(held, node1._work)
            self.assert_aliases_no_buffer([node2.x, node2.P, node2._P], node2._work)
            if k == 19:
                kept = [(a, a.copy()) for a in (*held, node2.x, node2.P, node2._P)]
        assert node2_events[21][-1].kind is PER
        for a, value in kept:
            assert a.tobytes() == value.tobytes()

    @pytest.mark.parametrize("members", [None, 3])
    def test_a_finished_result_outlives_the_next_kernel_calls(self, members):
        # the kernels return the workspace's x and P; _finish copies them out
        rng = np.random.default_rng(11)
        n = members or 1
        x = np.array([random_state(rng) for _ in range(n)])
        P = np.array([random_psd(STATE_DIM, rng, 0.1) for _ in range(n)])
        P = P[0] if members is None else P
        work = _Workspace(members)
        assert all(a is b for a, b in zip(
            _update_kernel(x, P, 0, x[:, :6] + 0.1, PERCEPTION_R6, True, work), (work.x, work.P)
        ))
        first = _finish(work)
        kept = [a.copy() for a in first]
        self.assert_aliases_no_buffer(first, work)
        q_dt = default_process_noise() * 0.01
        _predict_kernel(x, P, 0.01, q_dt if members is None else np.tile(q_dt, (n, 1, 1)), work)
        _update_kernel(work.x, work.P, 6, x[:, 6:12] - 0.1, SMOOTHED_R6, False, work)
        second = _finish(work)
        for a, value in zip(first, kept):
            assert a.tobytes() == value.tobytes()
        assert not np.array_equal(second[0], first[0]) and not np.array_equal(second[1], first[1])

    @pytest.mark.parametrize("members", [None, 3])
    @pytest.mark.parametrize("lo, angles", [(0, True), (0, False), (6, True), (6, False)])
    def test_an_update_of_a_prediction_in_place_is_the_update_of_held_copies(self, members, lo, angles):
        # After a prediction the update reads the workspace's own x and P
        # through the views made with the workspace; at an unchanged clock a
        # node hands it its held arrays instead.  Both give the same bits.
        rng = np.random.default_rng(17 + lo)
        n = members or 1
        x = np.array([random_state(rng) for _ in range(n)])
        x[0, ANG] = [3.1, -0.2, -3.1]  # angles on both sides of the wrap
        P = np.array([random_psd(STATE_DIM, rng, 0.1) for _ in range(n)])
        q_dt = default_process_noise() * 0.01
        if members is None:
            P = P[0]
        else:
            q_dt = np.tile(q_dt, (n, 1, 1))
        work = _Workspace(members)
        _predict_kernel(x, P, 0.01, q_dt, work)
        held = work.x.copy(), work.P.copy()
        for a in held:
            a.setflags(write=False)
        z = held[0][:, lo:lo + 6] + rng.normal(0.0, 0.1, (n, 6))
        z[0, 5] -= 2.0 * math.pi  # an innovation that the innovations' wrap takes back below pi
        r6 = PERCEPTION_R6 if lo == 0 else SMOOTHED_R6
        in_place = _update_kernel(work.x, work.P, lo, z, r6, angles, work)
        other = _Workspace(members)
        from_held = _update_kernel(*held, lo, z, r6, angles, other)
        assert in_place[0] is work.x and in_place[1] is work.P
        assert from_held[0] is other.x and from_held[1] is other.P
        assert [a.tobytes() for a in in_place] == [a.tobytes() for a in from_held]
        assert [a.tobytes() for a in _finish(work)] == [a.tobytes() for a in _finish(other)]
        assert not np.array_equal(in_place[0], held[0])


class TestNodeErrorContracts:
    @staticmethod
    def stacked_perception(t, rows):
        return tuple.__new__(MeasurementEvent, (t, PER, WORLD, rows, PERCEPTION_R6))

    def test_refused_event_raises_after_its_prediction_and_leaves_state(self):
        # the steps do not check their rows; a run refuses a bad row's event
        node = EkfNode(node2_config(), 3)
        rows = np.array([[10.0, -4.0, 0.0, 0.0, 0.0, 0.5]] * 3)
        node.node2_step(self.stacked_perception(0.0, rows))
        x, P = node.x, node.P
        rows = rows.copy()
        rows[1, 4] = math.nan
        with pytest.raises(NumericError, match="^measurement contains non-finite values$"):
            node.refuse(self.stacked_perception(0.01, rows))
        assert node.x is x and node.P is P and node.timestamp == 0.0
        # as a step would: an older stamp is rejected and counted first
        with pytest.raises(OutOfOrderError):
            node.refuse(self.stacked_perception(-0.01, rows))
        assert node.rejected_count == 1
        # and the prediction's error comes before the refusal
        gimbal = [0.0, 0.0, 0.0, 0.0, math.pi / 2, 0.0]
        node = EkfNode(node1_config(x0=state_from_row(gimbal)[0]))
        with pytest.raises(NumericError, match="gimbal"):
            node.refuse(MeasurementEvent(0.01, ODO, LOCAL, gimbal, RAW_R6))

    def test_finite_rows_counts_the_leading_finite_rows(self):
        rows = np.zeros((5, 3, 6))
        assert finite_rows(rows) == 5 and finite_rows(rows[:0]) == 0
        rows[3, 2, 5] = -math.inf
        assert finite_rows(rows) == 3
        rows[1, 0, 0] = math.nan
        assert finite_rows(rows) == 1
        # exact: rows whose entries' sum overflows are finite
        assert finite_rows(np.full((4, 3, 6), 1e307)) == 4

    def test_huge_finite_rows_are_fused(self):
        # the rows' sum overflows, while every row is finite
        rows = np.full((3, 6), 1e307)
        assert sum(rows.ravel().tolist()) == math.inf
        node = EkfNode(node2_config(), 3)
        node.node2_step(self.stacked_perception(0.0, rows))
        assert node.timestamp == 0.0 and np.isfinite(node.x).all()

    def test_singular_innovation_raises_and_leaves_state(self):
        # an exactly known pose measured with zero covariance: S = 0
        _, P0 = state_from_row([0.0] * 6, pose_variance=0.0)
        node = EkfNode(node1_config(P0=P0))
        node.node1_step(local_event(0.0, [0.0, 0.0, 0.0], r6=np.eye(6)))
        before = node.x, node.P
        with pytest.raises(NumericError, match="singular"):
            node.node1_step(local_event(0.0, [0.0, 0.0, 0.0], r6=np.zeros((6, 6))))
        assert_same_estimate(node, before)

    def test_gimbal_pitch_raises(self):
        gimbal = [0.0, 0.0, 0.0, 0.0, math.pi / 2, 0.0]
        node = EkfNode(node1_config(x0=state_from_row(gimbal)[0]))
        node.node1_step(MeasurementEvent(0.0, ODO, LOCAL, gimbal, RAW_R6))
        with pytest.raises(NumericError, match="gimbal"):
            node.node1_step(MeasurementEvent(0.01, ODO, LOCAL, gimbal, RAW_R6))

    def test_indefinite_covariance_rejected(self):
        # no node starts from an indefinite covariance: its config refuses it
        with pytest.raises(NumericError, match="covariance is indefinite"):
            EkfNode(node1_config(P0=indefinite_covariance()))

    def test_non_finite_velocity_measurement_raises(self):
        r6 = np.eye(6) * 0.01
        node = node_at(5e-324, np.zeros(STATE_DIM), np.eye(STATE_DIM))
        # a subnormal time step turns a 1 m move into an infinite velocity
        a = local_event(0.0, [0.0, 0.0, 0.0], r6=r6)
        b = local_event(5e-324, [1.0, 0.0, 0.0], r6=r6)
        with pytest.raises(NumericError, match="non-finite"):
            node.node2_step(twist_event(a, b))

    def test_clock_lands_on_event_time_after_substeps(self):
        # 0.06 s in six 0.01 s substeps sums to 0.060000000000000005; the
        # clock must still read 0.06, or a second event stamped 0.06 would be
        # rejected as out of order.
        node = EkfNode(node2_config(max_predict_dt=0.03, predict_substep=0.01))
        node.node2_step(world_event(0.0, [10.0, -4.0, 0.0], yaw=0.5))
        node.node2_step(world_event(0.06, [10.0, -4.0, 0.0], yaw=0.5))
        assert node.timestamp == 0.06
        node.node2_step(world_event(0.06, [10.0, -4.0, 0.0], yaw=0.5))
        assert node.rejected_count == 0
