"""Trajectory evaluation tests.

Oracles:
  * scipy.optimize.least_squares over a 6-parameter rigid transform
    (rotation vector + translation), minimizing the same point-to-point
    objective as the closed-form alignment, from multiple restarts;
  * scipy.optimize.minimize_scalar plus a dense grid scan for the yaw-only
    objective;
  * random-perturbation local-minimum probing of the returned optimum;
  * hand-computed arithmetic for the summary statistics.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import least_squares, minimize_scalar
from scipy.spatial.transform import Rotation

from coloc.errors import DataError, NumericError
from coloc.evaluation import (
    AlignmentMode,
    ErrorStats,
    EvaluationResult,
    MetricSeries,
    RigidTransform,
    align,
    apply_alignment,
    associate,
    compute_errors,
    evaluate,
    export_error_series,
)
from coloc.geometry import (
    BODY_ADAS,
    LOCAL,
    WORLD,
    Agent,
    Pose,
    Quaternion,
    compose,
    quat_yaw,
    rotation_geodesic,
)
from pose_rows import associated_rows, log_of


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def sse(est_pts, gt_pts, R, t):
    diff = est_pts @ R.T + t - gt_pts
    return float(np.sum(diff * diff))


def brute_force_se3(est_pts, gt_pts, rng):
    """Numerically minimize the alignment objective from several restarts."""

    def residuals(params):
        R = Rotation.from_rotvec(params[:3]).as_matrix()
        return (est_pts @ R.T + params[3:] - gt_pts).ravel()

    best = None
    starts = [np.zeros(6)]
    for _ in range(8):
        starts.append(np.concatenate([rng.uniform(-np.pi, np.pi, 3) * 0.9, rng.normal(0, 5, 3)]))
    for x0 in starts:
        sol = least_squares(residuals, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if best is None or sol.cost < best.cost:
            best = sol
    R = Rotation.from_rotvec(best.x[:3]).as_matrix()
    return R, best.x[3:]


def brute_force_yaw(est_pts, gt_pts):
    """Scan + polish the 1-D yaw objective with translation eliminated."""
    e = est_pts - est_pts.mean(axis=0)
    g = gt_pts - gt_pts.mean(axis=0)

    def cost(theta):
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return sse(e, g, R, np.zeros(3))

    grid = np.linspace(-np.pi, np.pi, 3601)
    coarse = grid[int(np.argmin([cost(th) for th in grid]))]
    sol = minimize_scalar(cost, bracket=(coarse - 0.01, coarse, coarse + 0.01), options={"xtol": 1e-14})
    return float(sol.x)


def world_pose(t, xyz, q=None):
    return Pose(t, np.asarray(xyz, dtype=float), q or Quaternion.identity(), WORLD, BODY_ADAS)


def random_world_pose(rng, t):
    q = Quaternion.from_array(rng.normal(size=4))
    return Pose(t, rng.normal(0, 4, 3), q, WORLD, BODY_ADAS)


def random_pair_set(rng, n=5):
    """Ground truth points, and estimates distorted by a known rigid motion."""
    gt = [random_world_pose(rng, float(k)) for k in range(n)]
    q_d = Quaternion.from_array(rng.normal(size=4))
    t_d = rng.normal(0, 3, 3)
    est = [
        Pose(g.timestamp, q_d.rotate(g.translation) + t_d, q_d * g.rotation, WORLD, BODY_ADAS)
        for g in gt
    ]
    return list(zip(est, gt))


# ---------------------------------------------------------------------------
# Association
# ---------------------------------------------------------------------------

class TestAssociate:
    def test_identical_grids_pair_everything(self):
        est = [world_pose(k * 0.1, (k, 0, 0)) for k in range(50)]
        gt = [world_pose(k * 0.1, (k, 1, 0)) for k in range(50)]
        assoc = associate(log_of(est), log_of(gt))
        assert assoc.n_dropped == 0
        assert len(assoc.pairs) == 50
        assert assoc.pairs.t.tolist() == [e.timestamp for e in est]
        assert assoc.pairs.gt_p[:, 0].tolist() == assoc.pairs.est_p[:, 0].tolist()
        assert np.all(assoc.pairs.gt_p[:, 1] == 1.0)

    def test_sparse_estimate_against_dense_truth(self):
        # 5 Hz estimates land on the 200 Hz truth grid exactly.
        gt = [world_pose(j / 200.0, (j, 0, 0)) for j in range(2001)]
        est = [world_pose(k / 5.0, (k, 0, 0)) for k in range(51)]
        assoc = associate(log_of(est), log_of(gt))
        assert assoc.n_dropped == 0
        # truth sample j sits at x = j, stamped j / 200
        gt_t = assoc.pairs.gt_p[:, 0] / 200.0
        assert np.all(np.abs(assoc.pairs.t - gt_t) <= 0.0025)
        assert assoc.pairs.gt_p[:, 0].tolist() == (40.0 * assoc.pairs.est_p[:, 0]).tolist()

    def test_nearest_neighbor_matches_linear_scan(self):
        rng = np.random.default_rng(7)
        gt_ts = np.sort(rng.uniform(0.5, 30, 400))
        est_ts = np.sort(rng.uniform(0.0, 31, 90))
        gt = [world_pose(t, (j, 0, 0)) for j, t in enumerate(gt_ts)]
        est = [world_pose(t, (0, 0, 0)) for t in est_ts]
        assoc = associate(log_of(est), log_of(gt), max_dt=0.05)
        expected = []
        for t in est_ts:
            deltas = np.abs(gt_ts - t)
            j = int(np.argmin(deltas))
            if deltas[j] <= 0.05:
                expected.append((t, gt_ts[j]))
        assert len(assoc.pairs) == len(expected)
        assert assoc.n_dropped == len(est_ts) - len(expected)
        assert assoc.pairs.t.tolist() == [te for te, _ in expected]
        assert gt_ts[assoc.pairs.gt_p[:, 0].astype(int)].tolist() == [tg for _, tg in expected]

    def test_out_of_window_samples_are_dropped_and_counted(self):
        gt = [world_pose(k * 1.0, (0, 0, 0)) for k in range(5)]
        est = [world_pose(0.001, (0, 0, 0)), world_pose(0.5, (0, 0, 0)), world_pose(3.996, (0, 0, 0))]
        assoc = associate(log_of(est), log_of(gt), max_dt=0.02)
        assert len(assoc.pairs) == 2
        assert assoc.n_dropped == 1

    def test_disjoint_time_ranges_raise(self):
        gt = [world_pose(k * 0.1, (0, 0, 0)) for k in range(10)]
        est = [world_pose(100.0 + k * 0.1, (0, 0, 0)) for k in range(10)]
        with pytest.raises(DataError):
            associate(log_of(est), log_of(gt))

    def test_empty_truth_raises(self):
        est = log_of([world_pose(0.0, (0, 0, 0))])
        with pytest.raises(DataError):
            associate(est, log_of([], Agent.ADAS))

    def test_unordered_input_raises(self):
        # a log holds strictly increasing stamps, so no unordered track reaches the association
        est = [world_pose(1.0, (0, 0, 0)), world_pose(0.5, (0, 0, 0))]
        gt = log_of([world_pose(0.9, (0, 0, 0))])
        with pytest.raises(DataError):
            associate(log_of(est), gt)

    def test_bad_max_dt_rejected(self):
        est = log_of([world_pose(0.0, (0, 0, 0))])
        with pytest.raises(ValueError):
            associate(est, est, max_dt=0.0)

    def test_tie_prefers_earlier_sample(self):
        gt = [world_pose(0.0, (0, 0, 0)), world_pose(2.0, (1, 0, 0))]
        est = [world_pose(1.0, (0, 0, 0))]
        assoc = associate(log_of(est), log_of(gt), max_dt=1.5)
        assert assoc.pairs.gt_p[0].tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

class TestAlignSE3:
    def test_identical_trajectories_give_identity(self):
        rng = np.random.default_rng(11)
        gt = [random_world_pose(rng, float(k)) for k in range(8)]
        tf = align(associated_rows(list(zip(gt, gt))), AlignmentMode.SE3)
        assert np.allclose(tf.translation, 0.0, atol=1e-12)
        assert rotation_geodesic(tf.rotation, Quaternion.identity()) < 1e-12

    def test_known_shift_and_yaw_recovered(self):
        # est = yaw(30 deg) gt + (1, 2, 0); alignment must invert it.
        rng = np.random.default_rng(12)
        gt = [random_world_pose(rng, float(k)) for k in range(6)]
        q_d = quat_yaw(math.radians(30.0))
        shift = np.array([1.0, 2.0, 0.0])
        est = [
            Pose(g.timestamp, q_d.rotate(g.translation) + shift, q_d * g.rotation, WORLD, BODY_ADAS)
            for g in gt
        ]
        rows = associated_rows(list(zip(est, gt)))
        tf = align(rows, AlignmentMode.SE3)
        assert np.allclose(apply_alignment(rows, tf).est_p, rows.gt_p, atol=1e-9)
        expected_q = quat_yaw(math.radians(-30.0))
        assert rotation_geodesic(tf.rotation, expected_q) < 1e-9
        assert np.allclose(tf.translation, expected_q.rotate(-shift), atol=1e-9)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            pairs = random_pair_set(rng, n=5)
            est_pts = np.array([e.translation for e, _ in pairs])
            gt_pts = np.array([g.translation for _, g in pairs])
            # Break exactness so the optimum is not trivially zero-residual.
            gt_pts = gt_pts + rng.normal(0, 0.05, gt_pts.shape)
            gt_noisy = [
                Pose(g.timestamp, p, g.rotation, WORLD, BODY_ADAS)
                for (_, g), p in zip(pairs, gt_pts)
            ]
            noisy_pairs = [(e, g) for (e, _), g in zip(pairs, gt_noisy)]
            tf = align(associated_rows(noisy_pairs), AlignmentMode.SE3)
            R_o, t_o = brute_force_se3(est_pts, gt_pts, rng)
            ours = sse(est_pts, gt_pts, tf.rotation.rotation_matrix(), tf.translation)
            oracle = sse(est_pts, gt_pts, R_o, t_o)
            assert ours <= oracle + 1e-6
            assert np.allclose(est_pts @ tf.rotation.rotation_matrix().T + tf.translation,
                               est_pts @ R_o.T + t_o, atol=1e-6)

    def test_result_is_local_minimum_under_100_perturbations(self):
        rng = np.random.default_rng(14)
        pairs = random_pair_set(rng, n=12)
        gt_pts = np.array([g.translation for _, g in pairs]) + rng.normal(0, 0.2, (12, 3))
        pairs = [
            (e, Pose(g.timestamp, p, g.rotation, WORLD, BODY_ADAS))
            for (e, g), p in zip(pairs, gt_pts)
        ]
        est_pts = np.array([e.translation for e, _ in pairs])
        tf = align(associated_rows(pairs), AlignmentMode.SE3)
        R0 = tf.rotation.rotation_matrix()
        base = sse(est_pts, gt_pts, R0, tf.translation)
        for _ in range(100):
            eps = 10.0 ** rng.uniform(-5, -2)
            dR = Rotation.from_rotvec(eps * rng.normal(size=3)).as_matrix()
            dt = eps * rng.normal(size=3)
            perturbed = sse(est_pts, gt_pts, dR @ R0, tf.translation + dt)
            assert perturbed >= base - 1e-12

    def test_planar_cloud_keeps_proper_rotation(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(0, 3, (30, 3))
        pts[:, 2] = 0.0
        gt = [world_pose(float(k), p) for k, p in enumerate(pts)]
        q_d = quat_yaw(1.1)
        est = [
            Pose(g.timestamp, q_d.rotate(g.translation) + np.array([3.0, -1.0, 0.5]), q_d * g.rotation,
                 WORLD, BODY_ADAS)
            for g in gt
        ]
        noisy = [
            (Pose(e.timestamp, e.translation + rng.normal(0, 0.01, 3), e.rotation, WORLD, BODY_ADAS), g)
            for e, g in zip(est, gt)
        ]
        tf = align(associated_rows(noisy), AlignmentMode.SE3)
        R = tf.rotation.rotation_matrix()
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)
        est_pts = np.array([e.translation for e, _ in noisy])
        gt_pts = np.array([g.translation for _, g in noisy])
        assert sse(est_pts, gt_pts, R, tf.translation) < 30 * 0.01**2 * 20

    def test_collinear_points_raise(self):
        gt = [world_pose(float(k), (k * 1.0, 2.0 * k, 0)) for k in range(10)]
        with pytest.raises(NumericError):
            align(associated_rows(list(zip(gt, gt))), AlignmentMode.SE3)

    def test_too_few_pairs_raise(self):
        gt = [world_pose(0.0, (0, 0, 0)), world_pose(1.0, (1, 0, 0))]
        with pytest.raises(DataError):
            align(associated_rows(list(zip(gt, gt))), AlignmentMode.SE3)


class TestAlignYawOnly:
    def test_rotation_is_pure_yaw(self):
        rng = np.random.default_rng(16)
        pairs = random_pair_set(rng, n=9)
        tf = align(associated_rows(pairs), AlignmentMode.YAW_ONLY)
        assert tf.rotation.x == 0.0
        assert tf.rotation.y == 0.0

    def test_recovers_planar_distortion_exactly(self):
        rng = np.random.default_rng(17)
        gt = [random_world_pose(rng, float(k)) for k in range(7)]
        q_d = quat_yaw(-0.77)
        shift = np.array([4.0, -2.0, 1.5])
        est = [
            Pose(g.timestamp, q_d.rotate(g.translation) + shift, q_d * g.rotation, WORLD, BODY_ADAS)
            for g in gt
        ]
        rows = associated_rows(list(zip(est, gt)))
        tf = align(rows, AlignmentMode.YAW_ONLY)
        assert np.allclose(apply_alignment(rows, tf).est_p, rows.gt_p, atol=1e-9)

    def test_matches_scalar_minimization(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            pairs = random_pair_set(rng, n=6)
            est_pts = np.array([e.translation for e, _ in pairs])
            gt_pts = np.array([g.translation for _, g in pairs]) + rng.normal(0, 0.1, (6, 3))
            pairs = [
                (e, Pose(g.timestamp, p, g.rotation, WORLD, BODY_ADAS))
                for (e, g), p in zip(pairs, gt_pts)
            ]
            tf = align(associated_rows(pairs), AlignmentMode.YAW_ONLY)
            theta_oracle = brute_force_yaw(est_pts, gt_pts)
            theta_ours = 2.0 * math.atan2(tf.rotation.z, tf.rotation.w)
            assert rotation_geodesic(quat_yaw(theta_ours), quat_yaw(theta_oracle)) < 1e-6

    def test_coincident_points_raise(self):
        gt = [world_pose(float(k), (1.0, 2.0, k * 1.0)) for k in range(5)]
        with pytest.raises(NumericError):
            align(associated_rows(list(zip(gt, gt))), AlignmentMode.YAW_ONLY)

    def test_single_pair_raises(self):
        gt = [world_pose(0.0, (0, 0, 0))]
        with pytest.raises(DataError):
            align(associated_rows(list(zip(gt, gt))), AlignmentMode.YAW_ONLY)


class TestAlignNone:
    def test_identity_transform(self):
        tf = align(associated_rows([]), AlignmentMode.NONE)
        assert np.all(tf.translation == 0.0)
        assert tf.rotation.as_array().tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_apply_alignment_with_identity_preserves_poses(self):
        rng = np.random.default_rng(19)
        rows = associated_rows(random_pair_set(rng, n=4))
        out = apply_alignment(rows, RigidTransform.identity())
        assert np.allclose(out.est_p, rows.est_p, atol=1e-15)
        assert out.t is rows.t
        assert out.gt_p is rows.gt_p and out.gt_q is rows.gt_q


class TestRigidTransform:
    def test_apply_point_rotates_then_translates(self):
        tf = RigidTransform(quat_yaw(math.pi / 2.0), np.array([10.0, 0.0, 0.0]))
        p = world_pose(0.0, (1, 0, 0))
        out = apply_alignment(associated_rows([(p, p)]), tf)
        assert np.allclose(out.est_p, [[10.0, 1.0, 0.0]], atol=1e-12)

    def test_bad_translation_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(Quaternion.identity(), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Error statistics
# ---------------------------------------------------------------------------

class TestComputeErrors:
    def test_perfect_match_gives_zero_errors(self):
        rng = np.random.default_rng(20)
        gt = [random_world_pose(rng, float(k)) for k in range(5)]
        stats = compute_errors(associated_rows(list(zip(gt, gt))))
        assert stats.translation.rmse == 0.0
        # geodesic of a unit quaternion with itself is zero up to rounding
        assert stats.orientation.max < 1e-12
        assert stats.n_samples == 5

    def test_three_four_example(self):
        # errors {3, 4} m: rmse = sqrt(12.5), mean = 3.5
        gt = [world_pose(0.0, (0, 0, 0)), world_pose(1.0, (0, 0, 0))]
        est = [world_pose(0.0, (3, 0, 0)), world_pose(1.0, (0, 4, 0))]
        stats = compute_errors(associated_rows(list(zip(est, gt))))
        assert stats.translation.rmse == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert stats.translation.mean == pytest.approx(3.5, abs=1e-12)
        assert stats.translation.median == pytest.approx(3.5, abs=1e-12)
        assert stats.translation.max == 4.0
        assert stats.translation.per_sample == (3.0, 4.0)

    def test_orientation_uses_geodesic_degrees(self):
        q = quat_yaw(math.radians(10.0))
        gt = [world_pose(0.0, (0, 0, 0))] * 3
        est = [world_pose(0.0, (0, 0, 0), q)] * 3
        stats = compute_errors(associated_rows(list(zip(est, gt))))
        assert stats.orientation.rmse == pytest.approx(10.0, abs=1e-9)
        assert stats.orientation.mean == pytest.approx(10.0, abs=1e-9)

    def test_double_cover_invariance(self):
        rng = np.random.default_rng(21)
        gt = [random_world_pose(rng, float(k)) for k in range(6)]
        est = [random_world_pose(rng, float(k)) for k in range(6)]
        flipped = [
            Pose(e.timestamp, e.translation,
                 Quaternion.from_array(-e.rotation.as_array()), WORLD, BODY_ADAS)
            for e in est
        ]
        a = compute_errors(associated_rows(list(zip(est, gt))))
        b = compute_errors(associated_rows(list(zip(flipped, gt))))
        assert a.orientation.per_sample == b.orientation.per_sample
        assert a.translation.per_sample == b.translation.per_sample

    def test_rmse_at_least_mean(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            gt = [random_world_pose(rng, float(k)) for k in range(15)]
            est = [random_world_pose(rng, float(k)) for k in range(15)]
            stats = compute_errors(associated_rows(list(zip(est, gt))))
            assert stats.translation.rmse >= stats.translation.mean - 1e-12
            assert stats.orientation.rmse >= stats.orientation.mean - 1e-12
            assert stats.translation.max >= stats.translation.median

    def test_empty_pairs_raise(self):
        with pytest.raises(DataError):
            compute_errors(associated_rows([]))

    def test_metric_series_validation(self):
        with pytest.raises(ValueError):
            MetricSeries(rmse=1.0, mean=2.0, median=0.5, max=1.0, per_sample=(1.0,))
        with pytest.raises(ValueError):
            MetricSeries(rmse=1.0, mean=0.5, median=2.0, max=1.0, per_sample=(1.0,))
        with pytest.raises(ValueError):
            ErrorStats(
                translation=MetricSeries.from_samples(np.array([1.0])),
                orientation=MetricSeries.from_samples(np.array([1.0, 2.0])),
                n_samples=1,
                timestamps=(0.0,),
            )

    def test_timestamps_come_from_estimate(self):
        est = [world_pose(0.05, (1, 0, 0))]
        gt = [world_pose(0.0, (0, 0, 0))]
        stats = compute_errors(associated_rows(list(zip(est, gt))))
        assert stats.timestamps == (0.05,)


class TestEvaluatePipeline:
    def test_distorted_copy_scores_zero_after_alignment(self):
        rng = np.random.default_rng(23)
        gt = []
        for k in range(60):
            t = k * 0.1
            angle = 0.25 * t
            gt.append(world_pose(t, (10 * math.sin(angle), 5 * math.cos(angle), 0.0), quat_yaw(angle)))
        q_d = quat_yaw(0.4)
        shift = np.array([-3.0, 8.0, 0.0])
        est = [
            Pose(g.timestamp, q_d.rotate(g.translation) + shift, q_d * g.rotation, WORLD, BODY_ADAS)
            for g in gt
        ]
        result = evaluate(log_of(est), log_of(gt), AlignmentMode.SE3)
        assert result.n_dropped == 0
        assert result.stats.translation.max < 1e-9
        assert result.stats.orientation.max < 1e-7

    def test_without_alignment_distortion_shows_up(self):
        gt = [world_pose(k * 0.1, (k * 0.1, 0, 0)) for k in range(30)]
        est = [world_pose(k * 0.1, (k * 0.1 + 1.0, 0, 0)) for k in range(30)]
        result = evaluate(log_of(est), log_of(gt), AlignmentMode.NONE)
        assert result.stats.translation.rmse == pytest.approx(1.0, abs=1e-12)

    def test_isometry_invariance_of_aligned_stats(self):
        # Moving both trajectories by one common rigid transform cannot
        # change SE3-aligned error statistics.
        rng = np.random.default_rng(24)
        gt = [random_world_pose(rng, float(k) * 0.5) for k in range(25)]
        est = [
            Pose(g.timestamp, g.translation + rng.normal(0, 0.3, 3),
                 Quaternion.from_array(rng.normal(size=4)) * g.rotation, WORLD, BODY_ADAS)
            for g in gt
        ]
        base = evaluate(log_of(est), log_of(gt), AlignmentMode.SE3).stats
        q_c = Quaternion.from_array(rng.normal(size=4))
        t_c = rng.normal(0, 50, 3)
        move = lambda p: Pose(p.timestamp, q_c.rotate(p.translation) + t_c, q_c * p.rotation,
                              WORLD, BODY_ADAS)
        moved = evaluate(
            log_of([move(p) for p in est]), log_of([move(p) for p in gt]), AlignmentMode.SE3
        ).stats
        assert moved.translation.rmse == pytest.approx(base.translation.rmse, abs=1e-9)
        assert moved.translation.max == pytest.approx(base.translation.max, abs=1e-9)
        assert moved.orientation.rmse == pytest.approx(base.orientation.rmse, abs=1e-9)
        np.testing.assert_allclose(moved.translation.per_sample, base.translation.per_sample, atol=1e-9)

    def test_result_structure(self):
        gt = [world_pose(k * 0.1, (math.sin(k), math.cos(k), 0)) for k in range(10)]
        result = evaluate(log_of(gt), log_of(gt), AlignmentMode.NONE)
        assert isinstance(result, EvaluationResult)
        assert isinstance(result.alignment, RigidTransform)
        assert result.stats.n_samples == 10


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

class TestExport:
    def test_error_series_csv(self, tmp_path):
        gt = [world_pose(0.0, (0, 0, 0)), world_pose(0.5, (0, 0, 0))]
        est = [world_pose(0.0, (3, 0, 0)), world_pose(0.5, (0, 4, 0))]
        stats = compute_errors(associated_rows(list(zip(est, gt))))
        out = tmp_path / "errors.csv"
        export_error_series(stats, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,e_trans_m,e_rot_deg"
        assert len(lines) == 3
        t, et, er = (float(v) for v in lines[1].split(","))
        assert (t, et, er) == (0.0, 3.0, 0.0)
        t, et, er = (float(v) for v in lines[2].split(","))
        assert (t, et, er) == (0.5, 4.0, 0.0)

    def test_stats_json_round_trip(self):
        gt = [world_pose(0.0, (0, 0, 0)), world_pose(1.0, (0, 0, 0))]
        est = [world_pose(0.0, (3, 0, 0)), world_pose(1.0, (0, 4, 0))]
        stats = compute_errors(associated_rows(list(zip(est, gt))))
        assert stats.translation.per_sample == (3.0, 4.0)
        loaded = json.loads(json.dumps(stats.to_dict()))
        assert loaded["n_samples"] == 2
        assert loaded["translation_m"]["rmse"] == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert loaded["translation_m"]["mean"] == 3.5
        assert loaded["orientation_deg"]["max"] == 0.0

    def test_dict_without_series_is_compact(self):
        gt = [world_pose(0.0, (0, 0, 0))]
        stats = compute_errors(associated_rows(list(zip(gt, gt))))
        d = stats.to_dict()
        assert "per_sample" not in d["translation_m"]
        assert set(d) == {"n_samples", "translation_m", "orientation_deg"}


class TestArrayPathsMatchPerPair:
    """compute_errors and apply_alignment run on arrays; each pair must score
    what the pose-object formulas give."""

    def test_compute_errors_per_sample(self):
        rng = np.random.default_rng(31)
        pairs = [(random_world_pose(rng, 0.1 * k), random_world_pose(rng, 0.1 * k)) for k in range(200)]
        stats = compute_errors(associated_rows(pairs))
        trans = [float(np.linalg.norm(e.translation - g.translation)) for e, g in pairs]
        rot = [math.degrees(rotation_geodesic(e.rotation, g.rotation)) for e, g in pairs]
        np.testing.assert_allclose(stats.translation.per_sample, trans, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(stats.orientation.per_sample, rot, rtol=1e-14, atol=1e-14)
        assert stats.timestamps == tuple(e.timestamp for e, _ in pairs)

    def test_apply_alignment_matches_compose(self):
        rng = np.random.default_rng(32)
        pairs = random_pair_set(rng, n=50)
        tf = RigidTransform(Quaternion.from_array(rng.normal(size=4)), rng.normal(size=3))
        out = apply_alignment(associated_rows(pairs), tf)
        # the correction as a pose that maps world coordinates into corrected ones
        correction = Pose(0.0, tf.translation, tf.rotation, LOCAL, WORLD)
        for (e, _), tk, qk in zip(pairs, out.est_p, out.est_q):
            want = compose(correction, e)
            assert tk.tolist() == want.translation.tolist()
            assert qk.tolist() == want.rotation.as_array().tolist()
