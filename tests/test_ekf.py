"""Filter tests.

Oracles, all independent of the implementation under test:
* central finite differences of the transition function for the Jacobian,
* a hand-rolled two-state (position, velocity) Kalman filter for the
  linear-equivalence check,
* closed-form kinematics for single-step propagation,
* exact arithmetic identities (offset cancellation, zero innovation).
"""

import math

import numpy as np
import pytest

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
    ProcessModel,
    StateEstimate,
    _checked_r6,
    default_process_noise,
    differential_velocity,
    measurement_covariance,
    predict,
    state_from_row,
    transition,
    transition_jacobian,
    update_absolute,
    update_differential,
)
from coloc.geometry import BODY_ADAS, LOCAL, WORLD, Pose, Quaternion, quat_yaw, wrap_angle
from coloc.noise import NoiseSpec, RandomStream
from pose_rows import pose_event

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


# ---------------------------------------------------------------------------
# Transition model
# ---------------------------------------------------------------------------

class TestTransition:
    def test_zero_rates_fixed_point(self):
        x = np.zeros(STATE_DIM)
        x[POS] = [3.0, -2.0, 1.0]
        x[ANG] = [0.2, -0.1, 1.5]
        np.testing.assert_array_equal(transition(x, 0.5)[POS], x[POS])
        np.testing.assert_allclose(transition(x, 0.5)[ANG], x[ANG], atol=1e-15)

    def test_forward_motion_rotated_by_yaw(self):
        x = np.zeros(STATE_DIM)
        x[ANG] = [0.0, 0.0, math.pi / 2]
        x[VEL] = [1.0, 0.0, 0.0]
        out = transition(x, 1.0)
        np.testing.assert_allclose(out[POS], [0.0, 1.0, 0.0], atol=1e-12)

    def test_acceleration_terms(self):
        x = np.zeros(STATE_DIM)
        x[ACC] = [2.0, 0.0, 0.0]
        out = transition(x, 0.5)
        np.testing.assert_allclose(out[POS], [0.25, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out[VEL], [1.0, 0.0, 0.0], atol=1e-12)

    def test_yaw_rate_integration(self):
        x = np.zeros(STATE_DIM)
        x[OMEGA] = [0.0, 0.0, 0.5]
        out = transition(x, 0.2)
        np.testing.assert_allclose(out[ANG], [0.0, 0.0, 0.1], atol=1e-12)

    def test_angles_wrap(self):
        x = np.zeros(STATE_DIM)
        x[ANG] = [0.0, 0.0, math.pi - 0.01]
        x[OMEGA] = [0.0, 0.0, 1.0]
        out = transition(x, 0.02)
        assert out[5] == pytest.approx(-math.pi + 0.01)

    def test_euler_rate_matrix_consistent_with_quaternion_integration(self):
        # One Euler step of the rate equation must agree with exact quaternion
        # integration to second order in dt: halving dt shrinks the gap ~4x.
        from coloc.geometry import rotation_geodesic

        for _ in range(20):
            x = random_state()
            omega = x[OMEGA]

            def gap(dt):
                rpy_next = transition(x, dt)[ANG]
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
            transition(x, 0.01)


class TestTransitionJacobian:
    def test_matches_central_finite_differences(self):
        # Acceptance-grade check: relative error < 1e-5 over 100 random states.
        worst = 0.0
        for _ in range(100):
            x = random_state()
            dt = float(RNG.uniform(0.001, 0.2))
            A = transition_jacobian(x, dt)
            A_fd = np.empty_like(A)
            for i in range(STATE_DIM):
                eps = 1e-6 * max(1.0, abs(x[i]))
                hi, lo = x.copy(), x.copy()
                hi[i] += eps
                lo[i] -= eps
                A_fd[:, i] = (transition(hi, dt) - transition(lo, dt)) / (2 * eps)
            err = np.max(np.abs(A - A_fd) / (1.0 + np.abs(A_fd)))
            worst = max(worst, err)
        assert worst < 1e-5

    def test_identity_rows_for_constant_states(self):
        A = transition_jacobian(random_state(), 0.1)
        np.testing.assert_array_equal(A[OMEGA, :9], np.zeros((3, 9)))
        np.testing.assert_array_equal(A[OMEGA, OMEGA], np.eye(3))
        np.testing.assert_array_equal(A[ACC, ACC], np.eye(3))


# ---------------------------------------------------------------------------
# State container and predict
# ---------------------------------------------------------------------------

class TestStateEstimate:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            StateEstimate(np.zeros(14), np.eye(STATE_DIM), 0.0)
        with pytest.raises(ValueError):
            StateEstimate(np.zeros(STATE_DIM), np.eye(14), 0.0)

    def test_rejects_non_finite(self):
        x = np.zeros(STATE_DIM)
        x[0] = math.nan
        with pytest.raises(NumericError):
            StateEstimate(x, np.eye(STATE_DIM), 0.0)
        P = np.eye(STATE_DIM)
        P[3, 3] = math.inf
        with pytest.raises(NumericError):
            StateEstimate(np.zeros(STATE_DIM), P, 0.0)

    def test_symmetrizes_exactly(self):
        P = np.eye(STATE_DIM)
        P[0, 1] = 1e-12
        s = StateEstimate(np.zeros(STATE_DIM), P, 0.0)
        np.testing.assert_array_equal(s.P, s.P.T)

    def test_validate_flags_indefinite(self):
        P = np.eye(STATE_DIM)
        P[0, 0] = -1.0
        s = StateEstimate(np.zeros(STATE_DIM), P, 0.0)
        with pytest.raises(NumericError):
            s.validate()

    def test_arrays_read_only(self):
        s = StateEstimate(np.zeros(STATE_DIM), np.eye(STATE_DIM), 0.0)
        with pytest.raises(ValueError):
            s.x[0] = 1.0
        with pytest.raises(ValueError):
            s.P[0, 0] = 9.0


class TestPredict:
    def setup_method(self):
        self.model = ProcessModel(default_process_noise())

    def test_dt_zero_is_exact_noop(self):
        s = StateEstimate(random_state(), random_psd(STATE_DIM), 2.0)
        out = predict(s, self.model, 0.0)
        assert out is s

    def test_negative_dt_rejected(self):
        s = StateEstimate(np.zeros(STATE_DIM), np.eye(STATE_DIM), 0.0)
        with pytest.raises(ValueError):
            predict(s, self.model, -0.01)

    def test_zero_motion_grows_covariance_by_q_dt(self):
        s = StateEstimate(np.zeros(STATE_DIM), np.zeros((STATE_DIM, STATE_DIM)), 0.0)
        out = predict(s, self.model, 0.25)
        np.testing.assert_allclose(out.P, self.model.q * 0.25, atol=1e-15)
        np.testing.assert_array_equal(out.x, s.x)
        assert out.timestamp == 0.25

    def test_forward_motion_example(self):
        x = np.zeros(STATE_DIM)
        x[ANG] = [0.0, 0.0, math.pi / 2]
        x[VEL] = [1.0, 0.0, 0.0]
        s = StateEstimate(x, np.eye(STATE_DIM), 1.0)
        out = predict(s, self.model, 1.0)
        np.testing.assert_allclose(out.x[POS], [0.0, 1.0, 0.0], atol=1e-12)
        assert out.timestamp == 2.0

    def test_covariance_health_over_many_steps(self):
        s = StateEstimate(random_state(), random_psd(STATE_DIM, scale=0.1), 0.0)
        for _ in range(200):
            s = predict(s, self.model, 0.01)
            s.validate()


# ---------------------------------------------------------------------------
# Absolute update
# ---------------------------------------------------------------------------

class TestUpdateAbsolute:
    def make_state(self, P=None):
        x = np.zeros(STATE_DIM)
        x[POS] = [1.0, 2.0, 0.0]
        x[ANG] = [0.0, 0.0, 0.3]
        return StateEstimate(x, np.eye(STATE_DIM) if P is None else P, 1.0)

    def event_at(self, translation, yaw, r6):
        return MeasurementEvent(1.0, PER, LOCAL, [*translation, 0.0, 0.0, yaw], r6)

    def test_zero_innovation_keeps_pose_and_shrinks_p(self):
        s = self.make_state()
        ev = self.event_at([1.0, 2.0, 0.0], 0.3, np.eye(6) * 1e-12)
        out = update_absolute(s, ev)
        np.testing.assert_allclose(out.x[POSE_BLOCK], s.x[POSE_BLOCK], atol=1e-9)
        assert np.trace(out.P) < np.trace(s.P)

    def test_huge_r_is_uninformative(self):
        s = self.make_state(P=random_psd(STATE_DIM))
        ev = self.event_at([5.0, -3.0, 1.0], -0.7, np.eye(6) * 1e12)
        out = update_absolute(s, ev)
        np.testing.assert_allclose(out.x, s.x, atol=1e-6)
        np.testing.assert_allclose(out.P, s.P, atol=1e-4, rtol=1e-6)

    def test_scalar_closed_form(self):
        # Classic textbook case on a decoupled axis: prior (0, 1), measurement
        # (1, 1) -> posterior (0.5, 0.5).
        P = np.zeros((STATE_DIM, STATE_DIM))
        P[0, 0] = 1.0
        s = StateEstimate(np.zeros(STATE_DIM), P, 1.0)
        ev = self.event_at([1.0, 0.0, 0.0], 0.0, np.eye(6))
        out = update_absolute(s, ev)
        assert out.x[0] == pytest.approx(0.5, abs=1e-12)
        assert out.P[0, 0] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(out.x[1:], np.zeros(STATE_DIM - 1), atol=1e-12)

    def test_innovation_wraps_across_pi(self):
        x = np.zeros(STATE_DIM)
        x[5] = math.radians(-179.0)
        P = np.zeros((STATE_DIM, STATE_DIM))
        P[5, 5] = 1.0
        s = StateEstimate(x, P, 1.0)
        ev = self.event_at([0.0, 0.0, 0.0], math.radians(179.0), np.eye(6))
        out = update_absolute(s, ev)
        # Innovation is -2 deg, gain 0.5: posterior moves 1 deg toward the
        # boundary, never 179 deg the long way round.
        moved = math.degrees(abs(wrap_angle(out.x[5] - s.x[5])))
        assert moved == pytest.approx(1.0, abs=1e-9)

    def test_monotone_information(self):
        for _ in range(20):
            s = StateEstimate(random_state(), random_psd(STATE_DIM), 1.0)
            r6 = np.diag(RNG.uniform(0.01, 10.0, 6))
            ev = self.event_at(RNG.normal(size=3), RNG.uniform(-1, 1), r6)
            out = update_absolute(s, ev)
            assert np.trace(out.P) <= np.trace(s.P) + 1e-9
            out.validate()

    def test_singular_innovation_raises(self):
        # a zero r6 is rejected when the event is built, so S = P block + r6
        # of a PSD P is always invertible in the update
        P = np.zeros((STATE_DIM, STATE_DIM))
        s = StateEstimate(np.zeros(STATE_DIM), P, 1.0)
        with pytest.raises(NumericError, match="singular"):
            update_absolute(s, self.event_at([1.0, 0.0, 0.0], 0.0, np.zeros((6, 6))))

    def test_missing_r6_rejected(self):
        # an event without a covariance cannot be built, so none reaches the update
        s = self.make_state()
        with pytest.raises(ValueError, match="r6"):
            update_absolute(s, self.event_at([1.0, 2.0, 0.0], 0.3, None))

    def test_indefinite_covariance_raises_numeric_error(self):
        # S = P block + r6 = 0: without the check the solve warns, and the
        # test suite turns that RuntimeWarning into an error
        P = np.eye(STATE_DIM)
        P[POSE_BLOCK, POSE_BLOCK] = -np.eye(6)
        s = StateEstimate(np.zeros(STATE_DIM), P, 1.0)
        with pytest.raises(NumericError, match="indefinite"):
            update_absolute(s, self.event_at([1.0, 0.0, 0.0], 0.0, np.eye(6)))
        # an invertible S does not hide the indefinite P
        P[POSE_BLOCK, POSE_BLOCK] = -0.5 * np.eye(6)
        with pytest.raises(NumericError, match="indefinite"):
            update_absolute(StateEstimate(np.zeros(STATE_DIM), P, 1.0), self.event_at([1.0, 0.0, 0.0], 0.0, np.eye(6)))


# ---------------------------------------------------------------------------
# Differential update
# ---------------------------------------------------------------------------

class TestDifferentialVelocity:
    def test_no_motion_gives_zero(self):
        a = local_event(1.000, [2.0, 3.0, 0.0], yaw=0.4)
        b = local_event(1.005, [2.0, 3.0, 0.0], yaw=0.4)
        np.testing.assert_allclose(differential_velocity(a, b), np.zeros(6), atol=1e-12)

    def test_straight_line_speed(self):
        a = local_event(0.0, [0.0, 0.0, 0.0])
        b = local_event(0.5, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(differential_velocity(a, b)[:3], [2.0, 0.0, 0.0], atol=1e-12)

    def test_motion_is_expressed_in_body_frame(self):
        a = local_event(0.0, [0.0, 0.0, 0.0], yaw=math.pi / 2)
        b = local_event(0.5, [0.0, 1.0, 0.0], yaw=math.pi / 2)
        np.testing.assert_allclose(differential_velocity(a, b)[:3], [2.0, 0.0, 0.0], atol=1e-12)

    def test_yaw_rate(self):
        a = local_event(0.0, [0.0, 0.0, 0.0], yaw=0.0)
        b = local_event(0.1, [0.0, 0.0, 0.0], yaw=0.1)
        np.testing.assert_allclose(differential_velocity(a, b)[3:], [0.0, 0.0, 1.0], atol=1e-12)

    def test_rejects_bad_pairs(self):
        a = local_event(1.0, [0.0, 0.0, 0.0])
        b = local_event(1.0, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            differential_velocity(a, b)
        with pytest.raises(ValueError):
            differential_velocity(b, local_event(0.5, [1.0, 0.0, 0.0]))


class TestUpdateDifferential:
    def make_state(self):
        return StateEstimate(np.zeros(STATE_DIM), np.eye(STATE_DIM), 1.0)

    def test_offset_invariance_bitwise(self):
        # Dyadic coordinates keep the offset additions exactly representable,
        # so the cancellation in the delta is bit-for-bit.
        offset = np.array([100.0, -50.0, 0.0])
        r6 = np.eye(6) * 0.01
        a = local_event(0.9, [1.0, 2.25, 0.0], yaw=0.3, r6=r6)
        b = local_event(1.0, [1.5, 2.5, 0.0], yaw=0.35, r6=r6)
        a_off = local_event(0.9, offset + [1.0, 2.25, 0.0], yaw=0.3, r6=r6)
        b_off = local_event(1.0, offset + [1.5, 2.5, 0.0], yaw=0.35, r6=r6)
        s = self.make_state()
        out1 = update_differential(s, a, b)
        out2 = update_differential(s, a_off, b_off)
        assert np.array_equal(out1.x, out2.x)
        assert np.array_equal(out1.P, out2.P)

    def test_offset_invariance_general_values(self):
        # Arbitrary (non-representable) offsets cancel to rounding error.
        offset = np.array([1234.567, -890.123, 0.0])
        r6 = np.eye(6) * 0.01
        a = local_event(0.9, [1.0, 2.2, 0.0], yaw=0.3, r6=r6)
        b = local_event(1.0, [1.5, 2.4, 0.0], yaw=0.35, r6=r6)
        a_off = local_event(0.9, offset + [1.0, 2.2, 0.0], yaw=0.3, r6=r6)
        b_off = local_event(1.0, offset + [1.5, 2.4, 0.0], yaw=0.35, r6=r6)
        s = self.make_state()
        out1 = update_differential(s, a, b)
        out2 = update_differential(s, a_off, b_off)
        np.testing.assert_allclose(out1.x, out2.x, atol=1e-9)
        np.testing.assert_allclose(out1.P, out2.P, atol=1e-9)

    def test_velocity_states_move_toward_measurement(self):
        r6 = np.eye(6) * 1e-6
        a = local_event(0.5, [0.0, 0.0, 0.0], r6=r6)
        b = local_event(1.0, [1.0, 0.0, 0.0], r6=r6)
        out = update_differential(self.make_state(), a, b)
        assert out.x[6] == pytest.approx(2.0, rel=1e-2)
        np.testing.assert_allclose(out.x[POSE_BLOCK], np.zeros(6), atol=1e-12)

    def test_r_scales_with_dt_squared(self):
        r6 = np.eye(6)
        s = self.make_state()
        a = local_event(0.0, [0.0, 0.0, 0.0], r6=r6)
        b = local_event(0.1, [0.2, 0.0, 0.0], r6=r6)
        out_fast = update_differential(s, a, b)
        c = local_event(0.0, [0.0, 0.0, 0.0], r6=r6)
        d = local_event(1.0, [2.0, 0.0, 0.0], r6=r6)
        out_slow = update_differential(s, c, d)
        # Same measured velocity, but the longer baseline is far more
        # trustworthy, so it pulls the velocity state harder.
        assert abs(out_slow.x[6] - 2.0) < abs(out_fast.x[6] - 2.0)

    def test_monotone_information_and_health(self):
        s = StateEstimate(random_state(), random_psd(STATE_DIM), 1.0)
        r6 = np.diag(RNG.uniform(0.001, 0.1, 6))
        a = local_event(0.90, RNG.normal(size=3), yaw=0.1, r6=r6)
        b = local_event(0.95, RNG.normal(size=3), yaw=0.12, r6=r6)
        out = update_differential(s, a, b)
        assert np.trace(out.P) <= np.trace(s.P) + 1e-9
        out.validate()

    def test_wrong_kind_rejected(self):
        r6 = np.eye(6)
        a = local_event(0.0, [0.0, 0.0, 0.0], r6=r6)
        b = world_event(0.5, [1.0, 0.0, 0.0], r6=r6)
        with pytest.raises(ValueError):
            update_differential(self.make_state(), a, b)

    def test_missing_covariance_rejected(self):
        a = local_event(0.0, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="r6"):
            update_differential(self.make_state(), a, local_event(0.5, [1.0, 0.0, 0.0], r6=None))

    def test_indefinite_covariance_raises_numeric_error(self):
        P = np.eye(STATE_DIM)
        P[TWIST_BLOCK, TWIST_BLOCK] = -np.eye(6)
        s = StateEstimate(np.zeros(STATE_DIM), P, 1.0)
        a = local_event(0.0, [0.0, 0.0, 0.0], r6=np.eye(6))
        b = local_event(1.0, [1.0, 0.0, 0.0], r6=np.eye(6))
        with pytest.raises(NumericError, match="indefinite"):
            update_differential(s, a, b)


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
        dt, q_pos, q_vel, r = 0.02, 0.01, 0.05, 0.5
        p0_pos, p0_vel = 2.0, 3.0
        rng = np.random.default_rng(2024)
        z_seq = rng.normal(0.0, 1.0, size=1000) + np.arange(1000) * dt * 1.5

        ref = reference_linear_kf(z_seq, dt, q_pos, q_vel, r, p0_pos, p0_vel)

        q15 = np.zeros((STATE_DIM, STATE_DIM))
        q15[0, 0] = q_pos
        q15[6, 6] = q_vel
        model = ProcessModel(q15)
        P0 = np.zeros((STATE_DIM, STATE_DIM))
        P0[0, 0] = p0_pos
        P0[6, 6] = p0_vel
        s = StateEstimate(np.zeros(STATE_DIM), P0, 0.0)
        r6 = np.diag([r, 1e12, 1e12, 1e12, 1e12, 1e12])

        worst_x = worst_p = 0.0
        for k, z in enumerate(z_seq):
            s = predict(s, model, dt)
            s = update_absolute(s, MeasurementEvent(s.timestamp, PER, LOCAL, [z, 0.0, 0.0, 0.0, 0.0, 0.0], r6))
            x_ref, P_ref = ref[k]
            worst_x = max(worst_x, abs(s.x[0] - x_ref[0]), abs(s.x[6] - x_ref[1]))
            worst_p = max(
                worst_p,
                abs(s.P[0, 0] - P_ref[0, 0]),
                abs(s.P[0, 6] - P_ref[0, 1]),
                abs(s.P[6, 6] - P_ref[1, 1]),
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

    def test_z_is_kept_as_a_tuple_of_floats(self):
        z = np.arange(6.0)
        event = MeasurementEvent(0.0, ODO, LOCAL, z, RAW_R6)
        z[0] = 9.0
        assert event.z == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert all(type(v) is float for v in event.z)

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
    init = state_from_row(0.0, [0.0] * 6)
    defaults = dict(initial_state=init, q=default_process_noise())
    defaults.update(overrides)
    return FilterNodeConfig(**defaults)


# where the local frame sits in the world; node 2 starts there
WORLD_TO_LOCAL = Pose(0.0, np.array([10.0, -4.0, 0.0]), quat_yaw(0.5), WORLD, LOCAL)


def node2_config(start=WORLD_TO_LOCAL, **overrides):
    init = state_from_row(0.0, [*start.translation.tolist(), *start.rotation.to_euler()])
    defaults = dict(initial_state=init, q=default_process_noise())
    defaults.update(overrides)
    return FilterNodeConfig(**defaults)


class TestNode1:
    def test_first_event_at_origin_stays_identity(self):
        node = EkfNode(node1_config())
        row = node.node1_step(local_event(0.0, [0.01, -0.02, 0.0], yaw=0.001))
        # The start is known with high confidence; one noisy measurement
        # barely moves it.
        assert np.linalg.norm(row[:3]) < 0.01
        # the row is the pose block of the committed state
        assert row == node.x[POSE_BLOCK].tolist()

    def test_noiseless_straight_line_tracks_truth(self):
        r6 = measurement_covariance(NoiseSpec(0.0, 0.0))
        node = EkfNode(node1_config())
        dt, speed = 0.01, 2.0
        row = None
        for k in range(1000):
            t = k * dt
            row = node.node1_step(local_event(t, [speed * t, 0.0, 0.0], r6=r6))
        assert np.linalg.norm(np.array(row[:3]) - [speed * 999 * dt, 0.0, 0.0]) < 1e-6

    def test_stationary_noise_is_smoothed(self):
        from coloc.noise import perturb_translation

        spec = NoiseSpec(2.5, 0.0)
        rng = RandomStream(3)
        node = EkfNode(node1_config())
        noises, errors = [], []
        for k, t_noisy in enumerate(perturb_translation(np.zeros((1000, 3)), spec, rng)):
            row = node.node1_step(local_event(k * 0.005, t_noisy))
            if k > 100:  # after burn-in
                noises.append(t_noisy[0])
                errors.append(row[0])
        assert np.std(errors) < np.std(noises)

    def test_out_of_order_rejected_and_recoverable(self):
        node = EkfNode(node1_config())
        node.node1_step(local_event(1.0, [0.0, 0.0, 0.0]))
        state_before = node.state
        with pytest.raises(OutOfOrderError):
            node.node1_step(local_event(0.5, [1.0, 0.0, 0.0]))
        assert node.state is state_before
        assert node.rejected_count == 1
        node.node1_step(local_event(1.01, [0.02, 0.0, 0.0]))
        assert node.rejected_count == 1

    def test_frame_mismatch_rejected(self):
        node = EkfNode(node1_config())
        with pytest.raises(FrameMismatchError):
            node.node1_step(world_event(0.0, [0.0, 0.0, 0.0]))


class TestNode2:
    def test_perception_only_tracks_measurements(self):
        node = EkfNode(node2_config())
        tiny = measurement_covariance(NoiseSpec(0.001, 0.01))
        for k in range(200):
            t = k * 0.1
            target = np.array([10.0 + 0.5 * t, -4.0 + 0.2 * t, 0.0])
            node.node2_step(world_event(t, target, yaw=0.5, r6=tiny))
        np.testing.assert_allclose(node.x[POS], target, atol=5e-3)

    def test_world_odometry_pose_rejected(self):
        # node 2 takes node 1's local->body poses on the odometry channel
        node = EkfNode(node2_config())
        before = node.state
        world_odometry = MeasurementEvent(0.0, ODO, WORLD, [0.0] * 6, SMOOTHED_R6)
        with pytest.raises(FrameMismatchError):
            node.node2_step(world_odometry)
        assert node.state is before

    def test_local_perception_pose_rejected(self):
        # node 2 fuses perception poses in the world frame only
        node = EkfNode(node2_config())
        node.node2_step(world_event(0.0, [10.0, -4.0, 0.0], yaw=0.5))
        before = node.state
        local_perception = local_event(0.1, [0.0, 0.0, 0.0], r6=PERCEPTION_R6, kind=PER)
        with pytest.raises(FrameMismatchError, match="perception"):
            node.node2_step(local_perception)
        assert node.state is before
        assert node.rejected_count == 0

    def test_differential_chain_uses_local_poses(self):
        # two odometry steps fuse the velocity between the local poses, with
        # the events' covariance, as update_differential does
        cfg = node2_config()
        node = EkfNode(cfg)
        prev, cur = (
            local_event(0.0, [0.0, 0.0, 0.0], r6=SMOOTHED_R6),
            local_event(0.1, [0.4, 0.1, 0.0], yaw=0.05, r6=SMOOTHED_R6),
        )
        for event in (prev, cur):
            node.node2_step(event)
        expected = update_differential(predict(cfg.initial_state, ProcessModel(cfg.q), 0.1), prev, cur)
        assert node.state.timestamp == expected.timestamp
        np.testing.assert_allclose(node.state.x, expected.x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(node.state.P, expected.P, rtol=1e-12, atol=1e-12)

    def test_world_anchor_cancels_in_differential_chain(self):
        # invert(W o A) o (W o B) = invert(A) o B: world-composed poses give
        # the local-pose chain, up to rounding
        from coloc.geometry import compose

        rng = np.random.default_rng(43)
        cfg = node2_config()
        model, r6 = ProcessModel(cfg.q), SMOOTHED_R6
        local = world = cfg.initial_state
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
            if prev_local is not None:
                dt = t - prev_local.timestamp
                local = update_differential(predict(local, model, dt), prev_local, cur_local)
                world = update_differential(predict(world, model, dt), prev_world, cur_world)
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
        for k in range(800):
            t = k * dt
            event = local_event(t, [speed * t, 0.0, 0.0], r6=r6)
            node2.node2_step(MeasurementEvent(t, ODO, LOCAL, node1.node1_step(event), r6))
        truth_local = Pose(t, np.array([speed * t, 0.0, 0.0]), Quaternion.identity(), LOCAL, BODY_ADAS)
        from coloc.geometry import compose

        truth_world = compose(w2l, truth_local)
        assert np.linalg.norm(node2.x[POS] - truth_world.translation) < 1e-3


class TestNodeRunsThePublicKernels:
    """A node must compute what the public predict/update functions compute.

    The node chains the same kernels on bare arrays and symmetrizes once per
    event instead of once per operation, so the two agree to rounding.
    """

    TOL = 1e-12

    @staticmethod
    def advance(state, model, cfg, t):
        # the node's prediction rule: one step, or equal substeps for a long gap
        dt = t - state.timestamp
        if dt <= cfg.max_predict_dt:
            return predict(state, model, dt)
        n = math.ceil(dt / cfg.predict_substep)
        for _ in range(n):
            state = predict(state, model, dt / n)
        return state

    def assert_close(self, node, state):
        assert node.state.timestamp == pytest.approx(state.timestamp, abs=1e-12)
        np.testing.assert_allclose(node.state.x, state.x, rtol=self.TOL, atol=self.TOL)
        np.testing.assert_allclose(node.state.P, state.P, rtol=self.TOL, atol=self.TOL)

    def test_node1_sequence(self):
        rng = np.random.default_rng(41)
        cfg = node1_config(max_predict_dt=0.05, predict_substep=0.02)
        node, model, state = EkfNode(cfg), ProcessModel(cfg.q), cfg.initial_state
        t = 0.0
        for k in range(60):
            ev = local_event(t, [2.0 * t, 0.3 * t * t, 0.0] + rng.normal(0.0, 2.5, 3), yaw=rng.normal(0.0, 0.02))
            node.node1_step(ev)
            state = self.advance(state, model, cfg, t)
            state = update_absolute(state, ev)
            self.assert_close(node, state)
            t = round(t + (0.13 if k == 30 else 0.01), 10)

    def test_node2_sequence(self):
        rng = np.random.default_rng(42)
        cfg = node2_config(max_predict_dt=0.05, predict_substep=0.02)
        node, model, state = EkfNode(cfg), ProcessModel(cfg.q), cfg.initial_state
        prev = None
        t = 0.0
        for k in range(60):
            xyz = np.array([3.0 * t, 0.2 * t * t, 0.0]) + rng.normal(0.0, 0.05, 3)
            cur = local_event(t, xyz, yaw=0.1 * t + rng.normal(0.0, 0.01), r6=SMOOTHED_R6)
            node.node2_step(cur)
            state = self.advance(state, model, cfg, t)
            if prev is not None:
                state = update_differential(state, prev, cur)
            prev = cur
            if k % 2 == 0:
                seen = world_event(t, [10.0 + 3.0 * t, -4.0, 0.0] + rng.normal(0.0, 0.3, 3), yaw=0.5 + rng.normal(0.0, 0.05))
                node.node2_step(seen)
                state = update_absolute(state, seen)
            self.assert_close(node, state)
            t = round(t + (0.13 if k == 30 else 0.01), 10)


    def test_node2_cached_terms_follow_step_and_covariance(self):
        # more distinct steps than the node caches Q dt and the velocity
        # covariance for, and odometry rows alternating between two
        # covariance objects, one of them rebuilt equal each time
        rng = np.random.default_rng(44)
        cfg = node2_config()
        node, model, state = EkfNode(cfg), ProcessModel(cfg.q), cfg.initial_state
        prev = None
        t = 0.0
        for k in range(80):
            r6 = SMOOTHED_R6 if k % 2 else SMOOTHED_R6.copy() * (1.0 + k % 3)
            cur = local_event(t, [3.0 * t, 0.1 * t, 0.0] + rng.normal(0.0, 0.05, 3), yaw=0.1 * t, r6=r6)
            node.node2_step(cur)
            state = self.advance(state, model, cfg, t)
            if prev is not None:
                state = update_differential(state, prev, cur)
            prev = cur
            self.assert_close(node, state)
            t = round(t + rng.choice([0.005, 0.01, 0.02]) * (1 + k % 20), 10)


class TestNodeErrorContracts:
    def test_singular_innovation_raises_and_leaves_state(self):
        # an exactly known pose measured with zero covariance: S = 0
        init = state_from_row(0.0, [0.0] * 6, pose_variance=0.0)
        node = EkfNode(node1_config(initial_state=init))
        node.node1_step(local_event(0.0, [0.0, 0.0, 0.0], r6=np.eye(6)))
        before = node.state
        with pytest.raises(NumericError, match="singular"):
            node.node1_step(local_event(0.0, [0.0, 0.0, 0.0], r6=np.zeros((6, 6))))
        assert node.state is before

    def test_gimbal_pitch_raises(self):
        gimbal = [0.0, 0.0, 0.0, 0.0, math.pi / 2, 0.0]
        node = EkfNode(node1_config(initial_state=state_from_row(0.0, gimbal)))
        node.node1_step(MeasurementEvent(0.0, ODO, LOCAL, gimbal, RAW_R6))
        with pytest.raises(NumericError, match="gimbal"):
            node.node1_step(MeasurementEvent(0.01, ODO, LOCAL, gimbal, RAW_R6))

    def test_indefinite_covariance_rejected(self):
        P = np.eye(STATE_DIM)
        P[POSE_BLOCK, POSE_BLOCK] = -np.eye(6)
        indefinite = StateEstimate(np.zeros(STATE_DIM), P, 0.0)
        with pytest.raises(NumericError, match="covariance is indefinite"):
            EkfNode(node1_config(initial_state=indefinite))
        node = EkfNode(node1_config())
        before = node.state
        with pytest.raises(NumericError, match="covariance is indefinite"):
            node.state = indefinite
        assert node.state is before

    def test_non_finite_velocity_measurement_raises(self):
        r6 = np.eye(6) * 0.01
        s = StateEstimate(np.zeros(STATE_DIM), np.eye(STATE_DIM), 0.0)
        # a subnormal time step turns a 1 m move into an infinite velocity
        a = local_event(0.0, [0.0, 0.0, 0.0], r6=r6)
        b = local_event(5e-324, [1.0, 0.0, 0.0], r6=r6)
        with pytest.raises(NumericError, match="non-finite"):
            update_differential(s, a, b)

    def test_clock_lands_on_event_time_after_substeps(self):
        # 0.06 s in six 0.01 s substeps sums to 0.060000000000000005; the
        # clock must still read 0.06, or a second event stamped 0.06 would be
        # rejected as out of order.
        node = EkfNode(node2_config(max_predict_dt=0.03, predict_substep=0.01))
        node.node2_step(world_event(0.0, [10.0, -4.0, 0.0], yaw=0.5))
        node.node2_step(world_event(0.06, [10.0, -4.0, 0.0], yaw=0.5))
        assert node.state.timestamp == 0.06
        node.node2_step(world_event(0.06, [10.0, -4.0, 0.0], yaw=0.5))
        assert node.rejected_count == 0
