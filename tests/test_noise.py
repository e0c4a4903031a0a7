"""Noise-injection tests.

Oracles: a twin RandomStream built from the same (seed, label) reconstructs
the exact values an operation drew, which turns stochastic assertions into
exact arithmetic; distribution-level claims use Monte-Carlo estimates with
tolerance bands of a few standard errors.
"""

import math

import numpy as np
import pytest

from coloc.geometry import Quaternion, quat_yaw, rotation_geodesic, wrap_angle
from coloc.noise import NoiseSpec, RandomStream, perturb_pose, perturb_translation, perturb_yaw

N_MC = 100_000


def twin_streams(seed=7, label="root"):
    return RandomStream(seed, label), RandomStream(seed, label)


def yaws(q):
    """Quaternion.to_euler's yaw of every (x, y, z, w) row."""
    x, y, z, w = q.T
    return np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


def copies(a, n=N_MC):
    """n rows, each a copy of the 1-d array a."""
    return np.repeat(np.asarray(a, dtype=float)[None], n, axis=0)


class TestNoiseSpec:
    def test_accepts_zero_levels(self):
        spec = NoiseSpec(0.0, 0.0)
        assert (spec.sigma_trans, spec.gamma_yaw) == (0.0, 0.0)

    def test_rejects_negative_or_nonfinite(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0.0)
        with pytest.raises(ValueError):
            NoiseSpec(0.0, -1.0)
        with pytest.raises(ValueError):
            NoiseSpec(math.nan, 0.0)
        with pytest.raises(ValueError):
            NoiseSpec(0.0, math.inf)

    def test_degree_radian_conversion(self):
        assert math.isclose(NoiseSpec(0.0, 180.0).gamma_yaw_rad, math.pi)


class TestRandomStream:
    def test_same_seed_and_label_bit_identical(self):
        a, b = twin_streams()
        for _ in range(100):
            assert a.standard_normal("translation-x") == b.standard_normal("translation-x")

    def test_labels_are_independent_substreams(self):
        # Interleaving draws from another label must not shift a channel.
        a, b = twin_streams()
        seq_a = []
        for _ in range(50):
            seq_a.append(a.standard_normal("translation-x"))
            a.standard_normal("yaw")
            a.standard_normal("translation-y")
        seq_b = [b.standard_normal("translation-x") for _ in range(50)]
        assert seq_a == seq_b

    def test_distinct_labels_give_distinct_sequences(self):
        s = RandomStream(3)
        xs = [s.standard_normal("translation-x") for _ in range(8)]
        ys = [s.standard_normal("translation-y") for _ in range(8)]
        assert xs != ys

    def test_distinct_seeds_give_distinct_sequences(self):
        a = RandomStream(1)
        b = RandomStream(2)
        assert [a.standard_normal("yaw") for _ in range(8)] != [b.standard_normal("yaw") for _ in range(8)]

    def test_derive_namespaces(self):
        root = RandomStream(11)
        smart = root.derive("agent/smart")
        adas = root.derive("agent/adas")
        assert smart.standard_normal("yaw") != adas.standard_normal("yaw")
        twin = RandomStream(11).derive("agent/smart")
        assert twin.label == smart.label
        smart2 = RandomStream(11, "root/agent/smart")
        assert smart2.standard_normal("yaw") == RandomStream(11).derive("agent/smart").standard_normal("yaw")

    def test_huge_and_negative_seeds_accepted(self):
        RandomStream(2**63 - 1).standard_normal("x")
        RandomStream(-5).standard_normal("x")


class TestPerturbTranslation:
    def test_zero_sigma_exact_passthrough(self):
        spec = NoiseSpec(0.0, 10.0)
        rng = RandomStream(5)
        t = np.array([[1.25, -3.5, 7.0]])
        out = perturb_translation(t, spec, rng)
        assert out.tolist() == t.tolist()

    def test_z_never_touched(self):
        spec = NoiseSpec(50.0, 0.0)
        rng = RandomStream(5)
        out = perturb_translation(copies([0.0, 0.0, 5.0], 100), spec, rng)
        assert np.all(out[:, 2] == 5.0)

    def test_noise_matches_twin_stream_exactly(self):
        spec = NoiseSpec(2.5, 0.0)
        rng, twin = twin_streams(seed=9)
        t = np.array([[10.0, 20.0, 30.0]])
        ((x, y, z),) = perturb_translation(t, spec, rng)
        ex = twin.standard_normal("translation-x")
        ey = twin.standard_normal("translation-y")
        assert x == t[0, 0] + 2.5 * ex
        assert y == t[0, 1] + 2.5 * ey
        assert z == 30.0

    def test_monte_carlo_std(self):
        spec = NoiseSpec(2.5, 0.0)
        rng = RandomStream(123)
        # N_MC translations in one call: the draws of N_MC one-row calls
        xs = perturb_translation(copies(np.zeros(3)), spec, rng)[:, 0]
        assert 2.45 <= xs.std(ddof=1) <= 2.55
        # Mean within 3 standard errors of zero.
        assert abs(xs.mean()) <= 3 * 2.5 / math.sqrt(N_MC)

    def test_input_not_mutated(self):
        t = np.array([[1.0, 2.0, 3.0]])
        perturb_translation(t, NoiseSpec(1.0, 0.0), RandomStream(0))
        assert t.tolist() == [[1.0, 2.0, 3.0]]


class TestPerturbYaw:
    def test_zero_gamma_exact_passthrough(self):
        spec = NoiseSpec(3.0, 0.0)
        rng = RandomStream(5)
        q = Quaternion.from_euler(0.1, -0.2, 0.3).as_array()[None]
        out = perturb_yaw(q, spec, rng)
        assert out.tolist() == q.tolist()

    def test_geodesic_equals_drawn_angle_for_pure_yaw(self):
        spec = NoiseSpec(0.0, 10.0)
        rng, twin = twin_streams(seed=4)
        qs = [quat_yaw(0.1 * k - 2.0) for k in range(50)]
        out = perturb_yaw(np.array([q.as_array() for q in qs]), spec, rng)
        for q, row in zip(qs, out):
            theta = spec.gamma_yaw_rad * twin.standard_normal("yaw")
            assert abs(rotation_geodesic(q, Quaternion.from_array(row)) - abs(wrap_angle(theta))) < 1e-9

    def test_right_multiplication_ordering(self):
        # Body-frame perturbation: for a tilted pose the noise spins about the
        # body z axis, not the world z axis.
        spec = NoiseSpec(0.0, 30.0)
        rng, twin = twin_streams(seed=77)
        q = Quaternion.from_euler(0.7, 0.3, -1.1)
        out = Quaternion.from_array(perturb_yaw(q.as_array()[None], spec, rng)[0])
        theta = spec.gamma_yaw_rad * twin.standard_normal("yaw")
        expect = q * quat_yaw(theta)
        np.testing.assert_allclose(out.canonical().as_array(), expect.canonical().as_array(), atol=1e-12)
        wrong = quat_yaw(theta) * q
        assert rotation_geodesic(out, wrong) > 1e-3

    def test_unit_norm_preserved(self):
        spec = NoiseSpec(0.0, 45.0)
        rng = RandomStream(2)
        q = Quaternion.from_euler(0.5, 0.4, 0.3)
        out = perturb_yaw(copies(q.as_array(), 100), spec, rng)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_monte_carlo_std_degrees(self):
        spec = NoiseSpec(0.0, 10.0)
        rng = RandomStream(321)
        base = quat_yaw(0.4)
        base_yaw = 0.4
        # N_MC perturbations in one call: the draws of N_MC one-row calls
        out = perturb_yaw(copies(base.as_array()), spec, rng)
        deltas = wrap_angle(yaws(out) - base_yaw)
        std_deg = math.degrees(deltas.std(ddof=1))
        assert 9.8 <= std_deg <= 10.2
        assert abs(math.degrees(deltas.mean())) <= 3 * 10.0 / math.sqrt(N_MC)


class TestPerturbPose:
    def make_pose(self):
        """One pose as a (t, q) pair of one-row arrays."""
        return np.array([[3.0, -1.0, 0.5]]), Quaternion.from_euler(0.0, 0.0, 1.2).as_array()[None]

    def test_zero_noise_exact_passthrough(self):
        t, q = self.make_pose()
        out_t, out_q = perturb_pose((t, q), NoiseSpec(0.0, 0.0), RandomStream(0))
        assert out_t.tolist() == t.tolist()
        assert out_q.tolist() == q.tolist()

    def test_matches_channel_ops_exactly(self):
        t, q = self.make_pose()
        spec = NoiseSpec(0.3, 15.0)
        rng, twin = twin_streams(seed=10)
        out_t, out_q = perturb_pose((t, q), spec, rng)
        assert out_t.tolist() == perturb_translation(t, spec, twin).tolist()
        assert out_q.tolist() == perturb_yaw(q, spec, twin).tolist()

    def test_monte_carlo_both_channels(self):
        # Statistics at one of the sweep operating points (0.3 m, 15 deg).
        (p,), (q,) = self.make_pose()
        spec = NoiseSpec(0.3, 15.0)
        rng = RandomStream(999)
        base_yaw = Quaternion.from_array(q).to_euler()[2]
        # N_MC perturbations in one call: the draws of N_MC one-row calls
        t, q = perturb_pose((copies(p), copies(q)), spec, rng)
        dx = t[:, 0] - p[0]
        dyaw = wrap_angle(yaws(q) - base_yaw)
        assert 0.294 <= dx.std(ddof=1) <= 0.306
        assert 14.7 <= math.degrees(dyaw.std(ddof=1)) <= 15.3
        assert abs(dx.mean()) <= 3 * 0.3 / math.sqrt(N_MC)
        assert np.all(t[:, 2] == p[2])

    def test_gamma_change_leaves_translation_sequence_fixed(self):
        p = self.make_pose()
        rng_a = RandomStream(5)
        rng_b = RandomStream(5)
        out_a = [perturb_pose(p, NoiseSpec(0.5, 1.0), rng_a)[0] for _ in range(20)]
        out_b = [perturb_pose(p, NoiseSpec(0.5, 25.0), rng_b)[0] for _ in range(20)]
        for ta, tb in zip(out_a, out_b):
            assert np.array_equal(ta, tb)

    def test_sigma_change_leaves_yaw_sequence_fixed(self):
        p = self.make_pose()
        rng_a = RandomStream(5)
        rng_b = RandomStream(5)
        out_a = [perturb_pose(p, NoiseSpec(0.1, 8.0), rng_a)[1] for _ in range(20)]
        out_b = [perturb_pose(p, NoiseSpec(9.0, 8.0), rng_b)[1] for _ in range(20)]
        for qa, qb in zip(out_a, out_b):
            assert np.array_equal(qa, qb)

    def test_deterministic_across_runs(self):
        p = self.make_pose()
        spec = NoiseSpec(0.7, 3.0)
        a = perturb_pose(p, spec, RandomStream(77))
        b = perturb_pose(p, spec, RandomStream(77))
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()


class TestPerturbManyPoses:
    def test_many_poses_at_once_equal_single_calls_in_order(self):
        rng = np.random.default_rng(12)
        t = rng.normal(size=(300, 3)) * 5
        q = np.array([Quaternion.from_euler(*rng.uniform(-1, 1, 3)).as_array() for _ in range(300)])
        spec = NoiseSpec(0.4, 7.0)
        stream, twin = twin_streams(seed=13)
        out_t, out_q = perturb_pose((t, q), spec, stream)
        expected = [perturb_pose((t[k : k + 1], q[k : k + 1]), spec, twin) for k in range(300)]
        assert out_t.tolist() == [e_t[0].tolist() for e_t, _ in expected]
        assert out_q.tolist() == [e_q[0].tolist() for _, e_q in expected]
        # both streams are left at the same position
        assert stream.standard_normal("yaw") == twin.standard_normal("yaw")

    def test_block_draws_equal_single_draws(self):
        stream, twin = twin_streams(seed=14)
        block = stream.standard_normal("translation-x", 500)
        assert block.tolist() == [twin.standard_normal("translation-x") for _ in range(500)]
