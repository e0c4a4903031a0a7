"""Perception-channel tests.

Oracles: twin RandomStreams reconstruct injected noise exactly, and the
pose-object formulas (relative_pose, compose, quat_yaw) rebuild each
measurement from them bit for bit; a brute-force nearest-neighbor scan
validates the pairing; Monte-Carlo checks that noise statistics survive the
relative-compose round trip; a per-stamp scan checks the rate limiter's
binary search.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloc.dataio import SyncSpec, TrajectoryLog, generate_synthetic, synchronize
from coloc.ekf import measurement_covariance
from coloc.errors import DataError
from coloc.geometry import Agent, BODY_ADAS, BODY_SMART, WORLD
from pose_objects import Pose, Quaternion, compose, poses, quat_yaw, relative_pose, rotation_geodesic
from coloc.noise import NoiseSpec, RandomStream
from coloc.perception import (
    RATE_EPSILON,
    PerceptionConfig,
    gate_pair,
    make_measurement,
    pair_streams,
    rate_limit_indices,
    simulate_perception,
)
from pose_rows import log_of, paired_rows

RNG = np.random.default_rng(77)


def smart_pose(t, translation, yaw=0.0):
    return Pose(t, np.asarray(translation, float), quat_yaw(yaw), WORLD, BODY_SMART)


def adas_pose(t, translation, yaw=0.0):
    return Pose(t, np.asarray(translation, float), quat_yaw(yaw), WORLD, BODY_ADAS)


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------

class TestGatePair:
    def test_inside_gate(self):
        assert gate_pair(10.00, 10.05, 0.1) is True

    def test_boundary_is_excluded(self):
        assert gate_pair(10.0, 10.1, 0.1) is False
        assert gate_pair(0.0, 0.1, 0.1) is False

    def test_equal_times_always_pass(self):
        for threshold in (1e-12, 1e-6, 0.1, 5.0):
            assert gate_pair(3.25, 3.25, threshold) is True

    def test_symmetry(self):
        assert gate_pair(10.05, 10.00, 0.1) is True
        assert gate_pair(10.1, 10.0, 0.1) is False

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            gate_pair(math.nan, 1.0, 0.1)


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def brute_force_pairs(smart, adas, threshold):
    """Reference pairing: (leader, follower) poses by a full scan for the nearest leader sample."""
    out = []
    for ap in adas:
        gaps = [abs(sp.timestamp - ap.timestamp) for sp in smart]
        i = int(np.argmin(gaps))
        if gate_pair(smart[i].timestamp, ap.timestamp, threshold):
            out.append((smart[i], ap))
    return out


def assert_rows_are_pairs(rows, pairs):
    """The rows hold exactly the given (leader, follower) pose pairs, in order."""
    expected = paired_rows([sp for sp, _ in pairs], [ap for _, ap in pairs])
    for name in ("t", "smart_p", "smart_q", "adas_p", "adas_q"):
        assert getattr(rows, name).tolist() == getattr(expected, name).tolist(), name


class TestPairStreams:
    def make_streams(self, n_smart=97, n_adas=71, jitter=0.04):
        smart = [
            smart_pose(0.1 * k + RNG.uniform(0, jitter), [k * 1.0, 0.0, 0.0]) for k in range(n_smart)
        ]
        adas = [
            adas_pose(0.137 * k + RNG.uniform(0, jitter), [k * 1.0, -5.0, 0.0]) for k in range(n_adas)
        ]
        return smart, adas

    def test_matches_brute_force(self):
        smart, adas = self.make_streams()
        rows = pair_streams(log_of(smart), log_of(adas), 0.03)
        assert_rows_are_pairs(rows, brute_force_pairs(smart, adas, 0.03))

    def test_every_pair_satisfies_gate(self):
        smart, adas = self.make_streams()
        rows = pair_streams(log_of(smart), log_of(adas), 0.05)
        # leader k sits at x = k
        leader_t = np.array([p.timestamp for p in smart])[rows.smart_p[:, 0].astype(int)]
        assert len(rows) > 0
        for ts, ta in zip(leader_t.tolist(), rows.t.tolist()):
            assert gate_pair(ts, ta, 0.05)

    def test_each_gated_follower_sample_emitted_once(self):
        smart, adas = self.make_streams()
        rows = pair_streams(log_of(smart), log_of(adas), 0.05)
        times = rows.t.tolist()
        assert len(times) == len(set(times))
        expected = brute_force_pairs(smart, adas, 0.05)
        assert len(rows) == len(expected)

    def test_pair_time_is_follower_stamp(self):
        smart = log_of([smart_pose(1.0, [0.0, 0.0, 0.0])])
        adas = log_of([adas_pose(1.02, [1.0, 0.0, 0.0])])
        assert pair_streams(smart, adas, 0.1).t.tolist() == [1.02]

    def test_unsorted_streams_rejected(self):
        # a log holds strictly increasing stamps, so no unsorted stream reaches the pairing
        smart = [smart_pose(1.0, [0.0, 0.0, 0.0]), smart_pose(0.5, [0.0, 0.0, 0.0])]
        adas = log_of([adas_pose(1.0, [0.0, 0.0, 0.0])])
        with pytest.raises(DataError):
            pair_streams(log_of(smart), adas, 0.1)

    def test_empty_leader_stream(self):
        rows = pair_streams(log_of([], Agent.SMART), log_of([adas_pose(1.0, [0.0, 0.0, 0.0])]), 0.1)
        assert len(rows) == 0
        assert (rows.smart_p.shape, rows.adas_q.shape) == ((0, 3), (0, 4))

    def test_frame_validation(self):
        smart = log_of([smart_pose(0.0, [0, 0, 0])])
        adas = log_of([adas_pose(0.0, [0, 0, 0])])
        with pytest.raises(DataError):
            pair_streams(adas, adas, 0.1)
        with pytest.raises(DataError):
            pair_streams(smart, smart, 0.1)


# ---------------------------------------------------------------------------
# Measurement construction
# ---------------------------------------------------------------------------

def measured_pose(sp, ap, noise, twin):
    """One pair's measurement from the pose-object formulas and twin noise draws.

    The follower pose relative to the leader gets the draws of the pair's
    turn on each labeled stream, and is then composed back onto the leader.
    """
    rel = relative_pose(sp, ap)
    t = rel.translation.copy()
    t[0] = t[0] + noise.sigma_trans * twin.standard_normal("translation-x")
    t[1] = t[1] + noise.sigma_trans * twin.standard_normal("translation-y")
    yaw = quat_yaw(noise.gamma_yaw_rad * twin.standard_normal("yaw"))
    return compose(sp, Pose(rel.timestamp, t, rel.rotation * yaw, rel.parent_frame, rel.child_frame))


def assert_row_is_pose(rows, k, want):
    """Row k of the channel's result is the world pose ``want`` of the follower."""
    assert (want.parent_frame, want.child_frame) == (WORLD, BODY_ADAS)
    assert rows.t[k] == want.timestamp
    assert rows.p[k].tolist() == want.translation.tolist()
    assert rows.q[k].tolist() == want.rotation.as_array().tolist()


class TestMakeMeasurement:
    def test_zero_noise_reproduces_ground_truth(self):
        cfg = PerceptionConfig(NoiseSpec(0.0, 0.0))
        smart = [smart_pose(2.0, RNG.normal(size=3) * 20, yaw=RNG.uniform(-3, 3)) for _ in range(25)]
        adas = [adas_pose(2.01, RNG.normal(size=3) * 20, yaw=RNG.uniform(-3, 3)) for _ in range(25)]
        t, q = make_measurement(paired_rows(smart, adas), cfg, RandomStream(0))
        for tk, qk, ap in zip(t, q, adas):
            np.testing.assert_allclose(tk, ap.translation, atol=1e-9)
            assert rotation_geodesic(Quaternion.from_array(qk), ap.rotation) < 1e-9

    def test_rows_equal_pose_formulas(self):
        cfg = PerceptionConfig(NoiseSpec(0.7, 12.0))
        smart = [smart_pose(0.1 * k, RNG.normal(size=3) * 20, yaw=RNG.uniform(-3, 3)) for k in range(40)]
        adas = [adas_pose(0.1 * k, RNG.normal(size=3) * 20, yaw=RNG.uniform(-3, 3)) for k in range(40)]
        t, q = make_measurement(paired_rows(smart, adas), cfg, RandomStream(6))
        twin = RandomStream(6)
        for tk, qk, sp, ap in zip(t, q, smart, adas):
            want = measured_pose(sp, ap, cfg.noise, twin)
            assert tk.tolist() == want.translation.tolist()
            assert qk.tolist() == want.rotation.as_array().tolist()

    def test_event_metadata(self):
        cfg = PerceptionConfig(NoiseSpec(0.3, 10.0))
        smart = log_of([smart_pose(1.0, [0, 0, 0])])
        adas = log_of([adas_pose(1.02, [1, 0, 0])])
        # a measured pair becomes a row of the whole channel, stamped by the follower
        rows = simulate_perception(smart, adas, cfg, RandomStream(1))
        assert len(rows) == 1
        assert rows.t.tolist() == [1.02]
        assert rows.p.shape == (1, 3) and rows.q.shape == (1, 4)
        np.testing.assert_array_equal(rows.r6, measurement_covariance(cfg.noise))
        assert not rows.r6.flags.writeable

    def test_identity_leader_passes_noise_through_exactly(self):
        cfg = PerceptionConfig(NoiseSpec(0.5, 0.0))
        rng = RandomStream(9)
        twin = RandomStream(9)
        sp = Pose(1.0, np.zeros(3), Quaternion.identity(), WORLD, BODY_SMART)
        ap = adas_pose(1.0, [4.0, 7.0, 0.0])
        ((tx, ty, tz),), _ = make_measurement(paired_rows([sp], [ap]), cfg, rng)
        ex = 0.5 * twin.standard_normal("translation-x")
        ey = 0.5 * twin.standard_normal("translation-y")
        assert tx == ap.translation[0] + ex
        assert ty == ap.translation[1] + ey
        assert tz == ap.translation[2]

    def test_rotated_leader_rotates_noise_into_world(self):
        # Injected x-noise lives in the leader frame; with the leader at yaw
        # 90 degrees it must surface as world y-error.
        cfg = PerceptionConfig(NoiseSpec(0.5, 0.0))
        rng = RandomStream(4)
        twin = RandomStream(4)
        sp = smart_pose(1.0, [10.0, 20.0, 0.0], yaw=math.pi / 2)
        ap = adas_pose(1.0, [10.0, 15.0, 0.0], yaw=math.pi / 2)
        (t,), _ = make_measurement(paired_rows([sp], [ap]), cfg, rng)
        ex = 0.5 * twin.standard_normal("translation-x")
        ey = 0.5 * twin.standard_normal("translation-y")
        err = t - ap.translation
        assert abs(err[1] - ex) < 1e-12
        assert abs(err[0] + ey) < 1e-12

    def test_noise_statistics_survive_recomposition(self):
        sigma = 0.4
        cfg = PerceptionConfig(NoiseSpec(sigma, 5.0))
        rng = RandomStream(123)
        sp = Pose(1.0, np.array([3.0, -8.0, 0.0]), Quaternion.identity(), WORLD, BODY_SMART)
        ap = adas_pose(1.0, [9.0, -2.0, 0.0], yaw=0.7)
        # the same pair 100 000 times, measured in one call
        rows = paired_rows([sp], [ap]).take(np.zeros(100_000, dtype=int))
        t, _ = make_measurement(rows, cfg, rng)
        errs = t - ap.translation
        assert 0.98 * sigma <= errs[:, 0].std(ddof=1) <= 1.02 * sigma
        assert 0.98 * sigma <= errs[:, 1].std(ddof=1) <= 1.02 * sigma
        assert np.all(errs[:, 2] == 0.0)


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------

def rate_limit_scan(stamps, target_hz):
    """The rate limiter as a per-stamp scan: the oracle of :func:`rate_limit_indices`."""
    period = 1.0 / target_hz
    out = []
    last = None
    for i, t in enumerate(stamps):
        if last is None or t >= last + period - RATE_EPSILON:
            out.append(i)
            last = t
    return out


# gaps between stamps: repeats, gaps at the slack, decimal steps, any
stamp_gaps = st.one_of(st.sampled_from([0.0, 1e-9, 2e-9, 0.005, 0.01, 0.1, 0.2]), st.floats(0.0, 1.0))


class TestRateLimit:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1e3, 1e3),
        st.lists(stamp_gaps, max_size=120),
        st.one_of(st.sampled_from([2.0, 5.0, 10.0, 100.0, 200.0, 1e9, 2e9]), st.floats(0.01, 1e4)),
    )
    def test_binary_search_is_the_per_stamp_scan(self, start, gaps, hz):
        stamps = [start, *(start + g for g in np.cumsum(gaps).tolist())]
        assert rate_limit_indices(np.array(stamps), hz) == rate_limit_scan(stamps, hz)

    def stamps_200hz(self, seconds=1.0):
        return [k * 0.005 for k in range(int(seconds * 200))]

    def test_halving_200_to_100(self):
        stamps = self.stamps_200hz()
        out = rate_limit_indices(stamps, 100.0)
        assert [stamps[i] for i in out] == [k * 0.005 for k in range(0, 200, 2)]

    def test_target_above_input_is_identity(self):
        stamps = self.stamps_200hz()
        assert rate_limit_indices(stamps, 500.0) == list(range(len(stamps)))

    def test_200_to_5_gap_check(self):
        stamps = self.stamps_200hz()
        times = [stamps[i] for i in rate_limit_indices(stamps, 5.0)]
        assert len(times) == 5
        gaps = np.diff(times)
        assert np.all(gaps >= 0.2 - 1e-9)

    def test_first_event_always_emitted(self):
        assert rate_limit_indices([3.7], 0.001) == [0]

    def test_irregular_stream_none_too_close(self):
        times = np.cumsum(RNG.uniform(0.001, 0.3, size=200))
        out = rate_limit_indices(times.tolist(), 4.0)
        gaps = np.diff(times[out])
        assert np.all(gaps >= 0.25 - 1e-9)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            rate_limit_indices([], 0.0)


# ---------------------------------------------------------------------------
# Whole channel
# ---------------------------------------------------------------------------

class TestSimulatePerception:
    def make_truth(self, n=400, dt=0.005):
        smart, adas = [], []
        for k in range(n):
            t = k * dt
            yaw = 0.3 * t
            smart.append(smart_pose(t, [10 * math.cos(yaw), 10 * math.sin(yaw), 0.0], yaw=yaw))
            adas.append(adas_pose(t, [9 * math.cos(yaw - 0.1), 9 * math.sin(yaw - 0.1), 0.0], yaw=yaw))
        return log_of(smart), log_of(adas)

    def test_zero_noise_transparency_full_chain(self):
        smart, adas = self.make_truth()
        cfg = PerceptionConfig(NoiseSpec(0.0, 0.0), output_rate=10.0)
        rows = simulate_perception(smart, adas, cfg, RandomStream(0))
        assert 0 < len(rows) < len(adas)
        truth = {p.timestamp: p for p in poses(adas)}
        for t, p, q in zip(rows.t.tolist(), rows.p, rows.q):
            gt = truth[t]
            np.testing.assert_allclose(p, gt.translation, atol=1e-9)
            assert rotation_geodesic(Quaternion.from_array(q), gt.rotation) < 1e-9

    def test_rate_limit_applied(self):
        smart, adas = self.make_truth()
        cfg = PerceptionConfig(NoiseSpec(0.1, 1.0), output_rate=5.0)
        rows = simulate_perception(smart, adas, cfg, RandomStream(1))
        gaps = np.diff(rows.t)
        assert np.all(gaps >= 0.2 - 1e-9)

    def test_no_rate_limit_emits_every_gated_pair(self):
        smart, adas = self.make_truth(n=100)
        cfg = PerceptionConfig(NoiseSpec(0.1, 1.0))
        events = simulate_perception(smart, adas, cfg, RandomStream(1))
        assert len(events) == len(pair_streams(smart, adas, cfg.gate_threshold))

    def test_deterministic(self):
        smart, adas = self.make_truth(n=100)
        cfg = PerceptionConfig(NoiseSpec(0.3, 10.0), output_rate=20.0)
        a = simulate_perception(smart, adas, cfg, RandomStream(5))
        b = simulate_perception(smart, adas, cfg, RandomStream(5))
        assert len(a) > 0
        for name in ("t", "p", "q", "r6"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist(), name

    def test_wide_clock_skew_drops_everything(self):
        smart, adas = self.make_truth(n=50)
        shifted = replace(smart, t=smart.t + 5.0)
        cfg = PerceptionConfig(NoiseSpec(0.0, 0.0))
        assert len(simulate_perception(shifted, adas, cfg, RandomStream(0))) == 0

    def test_every_event_is_make_measurement_of_its_pair(self):
        smart, adas = self.make_truth(n=300)
        cfg = PerceptionConfig(NoiseSpec(0.3, 10.0), output_rate=50.0)
        rows = simulate_perception(smart, adas, cfg, RandomStream(21))
        pairs = brute_force_pairs(poses(smart), poses(adas), cfg.gate_threshold)
        pairs = [pairs[i] for i in rate_limit_scan([ap.timestamp for _, ap in pairs], cfg.output_rate)]
        twin = RandomStream(21)
        assert len(rows) == len(pairs) > 0
        for k, (sp, ap) in enumerate(pairs):
            assert_row_is_pose(rows, k, measured_pose(sp, ap, cfg.noise, twin))
        np.testing.assert_array_equal(rows.r6, measurement_covariance(cfg.noise))


class TestArrayChannelMatchesPairs:
    """simulate_perception picks rows and measures them on arrays; it must
    emit what a per-pair scan, rate limiting and the pose-object formulas
    give, bit for bit."""

    def logs(self, offset):
        smart, adas = generate_synthetic("waypoint-spline", 6.0, 50.0, 8.0, seed=3)
        # every third leader row, so pairs land at several stamp gaps
        smart = TrajectoryLog(Agent.SMART, "ENU", smart.t[::3], smart.p[::3], smart.q[::3])
        return synchronize(smart, adas, SyncSpec(offset, Agent.ADAS))

    @pytest.mark.parametrize("offset, gate, rate, scale", [
        (0.013, 0.02, 7.0, 1.0),
        (0.0, 0.1, None, 2.5),
        (0.031, 0.025, 20.0, 0.5),
    ])
    def test_events_equal_per_pair_measurements(self, offset, gate, rate, scale):
        smart, adas = self.logs(offset)
        cfg = PerceptionConfig(NoiseSpec(0.4, 6.0), gate_threshold=gate, output_rate=rate)
        rows = simulate_perception(smart, adas, cfg, RandomStream(8), r6_scale=scale)
        pairs = brute_force_pairs(poses(smart), poses(adas), gate)
        assert 0 < len(pairs) <= len(adas)
        assert_rows_are_pairs(pair_streams(smart, adas, gate), pairs)
        if rate is not None:
            pairs = [pairs[i] for i in rate_limit_scan([ap.timestamp for _, ap in pairs], rate)]
        twin = RandomStream(8)
        assert len(rows) == len(pairs) > 0
        for k, (sp, ap) in enumerate(pairs):
            assert_row_is_pose(rows, k, measured_pose(sp, ap, cfg.noise, twin))
        assert rows.r6.tolist() == (measurement_covariance(cfg.noise) * scale).tolist()
        assert not rows.r6.flags.writeable

    def test_swapped_logs_rejected(self):
        smart, adas = self.logs(0.0)
        cfg = PerceptionConfig(NoiseSpec(0.0, 0.0))
        with pytest.raises(DataError):
            simulate_perception(adas, smart, cfg, RandomStream(0))


class TestPerceptionConfig:
    def test_defaults(self):
        cfg = PerceptionConfig(NoiseSpec(0.3, 10.0))
        assert cfg.gate_threshold == 0.1
        assert cfg.output_rate is None

    def test_validation(self):
        with pytest.raises(ValueError):
            PerceptionConfig(NoiseSpec(0.0, 0.0), gate_threshold=0.0)
        with pytest.raises(ValueError):
            PerceptionConfig(NoiseSpec(0.0, 0.0), output_rate=-1.0)

