"""Perception-channel tests.

Oracles: twin RandomStreams reconstruct injected noise exactly; a brute-force
nearest-neighbor scan validates the pairing; Monte-Carlo checks that noise
statistics survive the relative-compose round trip.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from coloc.dataio import SyncSpec, TrajectoryLog, generate_synthetic, synchronize
from coloc.ekf import MeasurementKind, measurement_covariance
from coloc.errors import DataError
from coloc.geometry import (
    Agent,
    BODY_ADAS,
    BODY_SMART,
    WORLD,
    Pose,
    Quaternion,
    quat_yaw,
    rotation_geodesic,
)
from coloc.noise import NoiseSpec, RandomStream
from coloc.perception import (
    PairedRows,
    PairedSample,
    PerceptionConfig,
    gate_pair,
    make_measurement,
    pair_streams,
    rate_limit,
    simulate_perception,
)

RNG = np.random.default_rng(77)


def smart_pose(t, translation, yaw=0.0):
    return Pose(t, np.asarray(translation, float), quat_yaw(yaw), WORLD, BODY_SMART)


def adas_pose(t, translation, yaw=0.0):
    return Pose(t, np.asarray(translation, float), quat_yaw(yaw), WORLD, BODY_ADAS)


@dataclass(frozen=True)
class Stamped:
    timestamp: float


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
    """Reference pairing: full scan for the nearest leader sample."""
    out = []
    for ap in adas:
        gaps = [abs(sp.timestamp - ap.timestamp) for sp in smart]
        i = int(np.argmin(gaps))
        if gate_pair(smart[i].timestamp, ap.timestamp, threshold):
            out.append((smart[i].timestamp, ap.timestamp))
    return out


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
        got = [(p.smart_pose.timestamp, p.adas_pose.timestamp) for p in pair_streams(smart, adas, 0.03)]
        assert got == brute_force_pairs(smart, adas, 0.03)

    def test_every_pair_satisfies_gate(self):
        smart, adas = self.make_streams()
        for p in pair_streams(smart, adas, 0.05):
            assert gate_pair(p.smart_pose.timestamp, p.adas_pose.timestamp, 0.05)

    def test_each_gated_follower_sample_emitted_once(self):
        smart, adas = self.make_streams()
        pairs = pair_streams(smart, adas, 0.05)
        times = [p.pair_time for p in pairs]
        assert len(times) == len(set(times))
        expected = brute_force_pairs(smart, adas, 0.05)
        assert len(pairs) == len(expected)

    def test_pair_time_is_follower_stamp(self):
        smart = [smart_pose(1.0, [0.0, 0.0, 0.0])]
        adas = [adas_pose(1.02, [1.0, 0.0, 0.0])]
        (pair,) = pair_streams(smart, adas, 0.1)
        assert pair.pair_time == 1.02
        assert pair.timestamp == 1.02

    def test_unsorted_streams_rejected(self):
        smart = [smart_pose(1.0, [0.0, 0.0, 0.0]), smart_pose(0.5, [0.0, 0.0, 0.0])]
        adas = [adas_pose(1.0, [0.0, 0.0, 0.0])]
        with pytest.raises(DataError):
            pair_streams(smart, adas, 0.1)
        with pytest.raises(DataError):
            pair_streams(adas_and := [adas_pose(1.0, [0, 0, 0])], smart, 0.1)  # adas arg unsorted

    def test_empty_leader_stream(self):
        assert pair_streams([], [adas_pose(1.0, [0.0, 0.0, 0.0])], 0.1) == []

    def test_frame_validation(self):
        with pytest.raises(DataError):
            PairedSample(adas_pose(0.0, [0, 0, 0]), adas_pose(0.0, [0, 0, 0]), 0.0)
        with pytest.raises(DataError):
            PairedSample(smart_pose(0.0, [0, 0, 0]), smart_pose(0.0, [0, 0, 0]), 0.0)


# ---------------------------------------------------------------------------
# Measurement construction
# ---------------------------------------------------------------------------

class TestMakeMeasurement:
    def test_zero_noise_reproduces_ground_truth(self):
        cfg = PerceptionConfig(NoiseSpec(0.0, 0.0))
        rng = RandomStream(0)
        for _ in range(25):
            sp = smart_pose(2.0, RNG.normal(size=3) * 20, yaw=RNG.uniform(-3, 3))
            ap = adas_pose(2.01, RNG.normal(size=3) * 20, yaw=RNG.uniform(-3, 3))
            ev = make_measurement(PairedSample(sp, ap, ap.timestamp), cfg, rng)
            np.testing.assert_allclose(ev.pose.translation, ap.translation, atol=1e-9)
            assert rotation_geodesic(ev.pose.rotation, ap.rotation) < 1e-9

    def test_event_metadata(self):
        cfg = PerceptionConfig(NoiseSpec(0.3, 10.0))
        ev = make_measurement(
            PairedSample(smart_pose(1.0, [0, 0, 0]), adas_pose(1.02, [1, 0, 0]), 1.02),
            cfg,
            RandomStream(1),
        )
        assert ev.kind is MeasurementKind.PERCEPTION_ABSOLUTE
        assert ev.timestamp == 1.02
        assert ev.pose.timestamp == 1.02
        assert ev.pose.parent_frame == WORLD and ev.pose.child_frame == BODY_ADAS
        np.testing.assert_array_equal(ev.r6, measurement_covariance(cfg.noise))
        assert ev.source == "smart/perception"

    def test_identity_leader_passes_noise_through_exactly(self):
        cfg = PerceptionConfig(NoiseSpec(0.5, 0.0))
        rng = RandomStream(9)
        twin = RandomStream(9)
        sp = Pose(1.0, np.zeros(3), Quaternion.identity(), WORLD, BODY_SMART)
        ap = adas_pose(1.0, [4.0, 7.0, 0.0])
        ev = make_measurement(PairedSample(sp, ap, 1.0), cfg, rng)
        ex = 0.5 * twin.standard_normal("translation-x")
        ey = 0.5 * twin.standard_normal("translation-y")
        assert ev.pose.translation[0] == ap.translation[0] + ex
        assert ev.pose.translation[1] == ap.translation[1] + ey
        assert ev.pose.translation[2] == ap.translation[2]

    def test_rotated_leader_rotates_noise_into_world(self):
        # Injected x-noise lives in the leader frame; with the leader at yaw
        # 90 degrees it must surface as world y-error.
        cfg = PerceptionConfig(NoiseSpec(0.5, 0.0))
        rng = RandomStream(4)
        twin = RandomStream(4)
        sp = smart_pose(1.0, [10.0, 20.0, 0.0], yaw=math.pi / 2)
        ap = adas_pose(1.0, [10.0, 15.0, 0.0], yaw=math.pi / 2)
        ev = make_measurement(PairedSample(sp, ap, 1.0), cfg, rng)
        ex = 0.5 * twin.standard_normal("translation-x")
        ey = 0.5 * twin.standard_normal("translation-y")
        err = ev.pose.translation - ap.translation
        assert abs(err[1] - ex) < 1e-12
        assert abs(err[0] + ey) < 1e-12

    def test_noise_statistics_survive_recomposition(self):
        sigma = 0.4
        cfg = PerceptionConfig(NoiseSpec(sigma, 5.0))
        rng = RandomStream(123)
        sp = Pose(1.0, np.array([3.0, -8.0, 0.0]), Quaternion.identity(), WORLD, BODY_SMART)
        ap = adas_pose(1.0, [9.0, -2.0, 0.0], yaw=0.7)
        # the same pair 100 000 times, measured in one call
        one = PairedRows.of_pairs([PairedSample(sp, ap, 1.0)])
        n = 100_000
        rows = PairedRows(
            np.repeat(one.t, n),
            *(np.repeat(a, n, axis=0) for a in (one.smart_p, one.smart_q, one.adas_p, one.adas_q)),
        )
        t, _ = make_measurement(rows, cfg, rng)
        errs = t - ap.translation
        assert 0.98 * sigma <= errs[:, 0].std(ddof=1) <= 1.02 * sigma
        assert 0.98 * sigma <= errs[:, 1].std(ddof=1) <= 1.02 * sigma
        assert np.all(errs[:, 2] == 0.0)


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------

class TestRateLimit:
    def stream_200hz(self, seconds=1.0):
        return [Stamped(k * 0.005) for k in range(int(seconds * 200))]

    def test_halving_200_to_100(self):
        out = rate_limit(self.stream_200hz(), 100.0)
        assert [e.timestamp for e in out] == [k * 0.005 for k in range(0, 200, 2)]

    def test_target_above_input_is_identity(self):
        stream = self.stream_200hz()
        assert rate_limit(stream, 500.0) == stream

    def test_200_to_5_gap_check(self):
        out = rate_limit(self.stream_200hz(), 5.0)
        times = [e.timestamp for e in out]
        assert len(times) == 5
        gaps = np.diff(times)
        assert np.all(gaps >= 0.2 - 1e-9)

    def test_first_event_always_emitted(self):
        out = rate_limit([Stamped(3.7)], 0.001)
        assert [e.timestamp for e in out] == [3.7]

    def test_irregular_stream_none_too_close(self):
        times = np.cumsum(RNG.uniform(0.001, 0.3, size=200))
        out = rate_limit([Stamped(float(t)) for t in times], 4.0)
        gaps = np.diff([e.timestamp for e in out])
        assert np.all(gaps >= 0.25 - 1e-9)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            rate_limit([], 0.0)


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
        return smart, adas

    def test_zero_noise_transparency_full_chain(self):
        smart, adas = self.make_truth()
        cfg = PerceptionConfig(NoiseSpec(0.0, 0.0), output_rate=10.0)
        events = simulate_perception(smart, adas, cfg, RandomStream(0))
        assert 0 < len(events) < len(adas)
        truth = {p.timestamp: p for p in adas}
        for ev in events:
            gt = truth[ev.timestamp]
            np.testing.assert_allclose(ev.pose.translation, gt.translation, atol=1e-9)
            assert rotation_geodesic(ev.pose.rotation, gt.rotation) < 1e-9

    def test_rate_limit_applied(self):
        smart, adas = self.make_truth()
        cfg = PerceptionConfig(NoiseSpec(0.1, 1.0), output_rate=5.0)
        events = simulate_perception(smart, adas, cfg, RandomStream(1))
        gaps = np.diff([ev.timestamp for ev in events])
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
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.pose.translation, eb.pose.translation)
            assert ea.pose.rotation.as_array().tolist() == eb.pose.rotation.as_array().tolist()

    def test_wide_clock_skew_drops_everything(self):
        smart, adas = self.make_truth(n=50)
        shifted = [Pose(p.timestamp + 5.0, p.translation, p.rotation, p.parent_frame, p.child_frame) for p in smart]
        cfg = PerceptionConfig(NoiseSpec(0.0, 0.0))
        assert simulate_perception(shifted, adas, cfg, RandomStream(0)) == []

    def test_every_event_is_make_measurement_of_its_pair(self):
        smart, adas = self.make_truth(n=300)
        cfg = PerceptionConfig(NoiseSpec(0.3, 10.0), output_rate=50.0)
        events = simulate_perception(smart, adas, cfg, RandomStream(21))
        pairs = rate_limit(pair_streams(smart, adas, cfg.gate_threshold), cfg.output_rate)
        twin = RandomStream(21)
        expected = [make_measurement(pair, cfg, twin) for pair in pairs]
        assert len(events) == len(expected) > 0
        for got, want in zip(events, expected):
            assert (got.timestamp, got.kind, got.source) == (want.timestamp, want.kind, want.source)
            assert got.pose.translation.tolist() == want.pose.translation.tolist()
            assert got.pose.rotation.as_array().tolist() == want.pose.rotation.as_array().tolist()
            assert (got.pose.parent_frame, got.pose.child_frame) == (want.pose.parent_frame, want.pose.child_frame)
            np.testing.assert_array_equal(got.r6, want.r6)


class TestArrayChannelMatchesPairs:
    """simulate_perception on logs picks rows and measures them on arrays; it
    must emit what pair_streams, rate_limit and one make_measurement per pair
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
        events = simulate_perception(smart, adas, cfg, RandomStream(8), r6_scale=scale)
        pairs = pair_streams(list(smart), list(adas), gate)
        assert 0 < len(pairs) <= len(adas)
        if rate is not None:
            pairs = rate_limit(pairs, rate)
        twin = RandomStream(8)
        expected = [make_measurement(pair, cfg, twin) for pair in pairs]
        assert len(events) == len(expected) > 0
        for got, want in zip(events, expected):
            assert (got.timestamp, got.kind, got.source) == (want.timestamp, want.kind, want.source)
            assert got.pose.timestamp == want.pose.timestamp
            assert got.pose.translation.tolist() == want.pose.translation.tolist()
            assert got.pose.rotation.as_array().tolist() == want.pose.rotation.as_array().tolist()
            assert (got.pose.parent_frame, got.pose.child_frame) == (WORLD, BODY_ADAS)
            assert got.r6.tolist() == (want.r6 * scale).tolist()
            assert not got.r6.flags.writeable

    def test_log_and_pose_inputs_pair_alike(self):
        smart, adas = self.logs(0.013)
        from_logs = pair_streams(smart, adas, 0.02)
        from_poses = pair_streams(list(smart), list(adas), 0.02)
        assert [(p.smart_pose.timestamp, p.pair_time) for p in from_logs] == [
            (p.smart_pose.timestamp, p.pair_time) for p in from_poses
        ]

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

