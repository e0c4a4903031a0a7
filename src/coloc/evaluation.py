"""Trajectory evaluation: association, alignment, error statistics.

The estimate is paired with ground truth by nearest timestamp, optionally
aligned with a closed-form least-squares rigid transform (full SE3 via the
scale-free Umeyama/Procrustes solution, or yaw-plus-translation only), and
scored: per-sample Euclidean position error and geodesic orientation error,
summarized as rmse/mean/median/max.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataio import TrajectoryLog, nearest_in_time, write_table
from .errors import DataError, NumericError
from .geometry import (
    Pose,
    Quaternion,
    compose_arrays,
    geodesic_angles,
    pose_arrays,
    quat_yaw,
)

DEFAULT_MAX_DT = 0.02
_RANK_TOLERANCE = 1e-9


class AlignmentMode(Enum):
    NONE = "none"
    SE3 = "se3"
    YAW_ONLY = "yaw"


@dataclass(frozen=True)
class RigidTransform:
    """World-frame correction applied to an estimated trajectory."""

    rotation: Quaternion
    translation: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise ValueError("translation must be a finite 3-vector")
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(Quaternion.identity(), np.zeros(3))

    def apply_point(self, p) -> np.ndarray:
        return self.rotation.rotate(p) + self.translation

    def apply_pose(self, pose: Pose) -> Pose:
        return Pose(
            pose.timestamp,
            self.apply_point(pose.translation),
            self.rotation * pose.rotation,
            pose.parent_frame,
            pose.child_frame,
        )


@dataclass(frozen=True)
class Association:
    """Nearest-time pairing result: (estimate, ground truth) plus drop count."""

    pairs: tuple[tuple[Pose, Pose], ...]
    n_dropped: int


Track = Sequence[Pose] | TrajectoryLog


def _stamps(track: Track) -> np.ndarray:
    if isinstance(track, TrajectoryLog):
        return track.t
    return np.array([p.timestamp for p in track])


def _poses_at(track: Track, rows: np.ndarray) -> Sequence[Pose]:
    if isinstance(track, TrajectoryLog):
        return track.poses(rows)
    return [track[i] for i in rows.tolist()]


def associate(est: Track, gt: Track, max_dt: float = DEFAULT_MAX_DT) -> Association:
    """Pair every estimate with the nearest ground-truth sample within max_dt.

    Either side may be a pose sequence or a :class:`TrajectoryLog`.
    Estimates without a close enough ground-truth sample are dropped and
    counted; an empty result is an error because no metric can follow.
    """
    if not (math.isfinite(max_dt) and max_dt > 0.0):
        raise ValueError(f"max_dt must be > 0, got {max_dt}")
    est_ts = _stamps(est)
    gt_ts = _stamps(gt)
    if np.any(np.diff(est_ts) < 0) or np.any(np.diff(gt_ts) < 0):
        raise DataError("associate requires time-ordered inputs")
    pairs: tuple[tuple[Pose, Pose], ...] = ()
    if len(gt_ts) > 0 and len(est_ts) > 0:
        best = nearest_in_time(gt_ts, est_ts)
        kept = np.flatnonzero(np.abs(gt_ts[best] - est_ts) <= max_dt)
        pairs = tuple(zip(_poses_at(est, kept), _poses_at(gt, best[kept])))
    if not pairs:
        raise DataError("association produced no pairs: disjoint time ranges or max_dt too small")
    return Association(pairs, len(est_ts) - len(pairs))


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

def _paired_points(pairs) -> tuple[np.ndarray, np.ndarray]:
    est = np.array([p.translation for p, _ in pairs])
    gt = np.array([g.translation for _, g in pairs])
    return est, gt


def _align_se3(est: np.ndarray, gt: np.ndarray) -> RigidTransform:
    """Scale-free Umeyama: R, t minimizing sum ||R est_i + t - gt_i||^2."""
    e_mean = est.mean(axis=0)
    g_mean = gt.mean(axis=0)
    H = (est - e_mean).T @ (gt - g_mean)
    U, s, Vt = np.linalg.svd(H)
    if s[1] <= max(_RANK_TOLERANCE, _RANK_TOLERANCE * s[0]):
        raise NumericError("degenerate geometry: paired points are nearly collinear")
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = g_mean - R @ e_mean
    return RigidTransform(Quaternion.from_rotation_matrix(R), t)


def _align_yaw(est: np.ndarray, gt: np.ndarray) -> RigidTransform:
    """Closed-form yaw + translation: rotation restricted to the z axis."""
    e_mean = est.mean(axis=0)
    g_mean = gt.mean(axis=0)
    e = est - e_mean
    g = gt - g_mean
    sin_term = float(np.sum(e[:, 0] * g[:, 1] - e[:, 1] * g[:, 0]))
    cos_term = float(np.sum(e[:, 0] * g[:, 0] + e[:, 1] * g[:, 1]))
    if abs(sin_term) <= _RANK_TOLERANCE and abs(cos_term) <= _RANK_TOLERANCE:
        raise NumericError("degenerate geometry: no planar spread to estimate yaw from")
    theta = math.atan2(sin_term, cos_term)
    q = quat_yaw(theta)
    t = g_mean - q.rotate(e_mean)
    return RigidTransform(q, t)


def align(pairs, mode: AlignmentMode) -> RigidTransform:
    """Least-squares rigid correction of the estimate onto ground truth."""
    if mode is AlignmentMode.NONE:
        return RigidTransform.identity()
    if mode is AlignmentMode.SE3 and len(pairs) < 3:
        raise DataError(f"SE3 alignment needs >= 3 pairs, got {len(pairs)}")
    if mode is AlignmentMode.YAW_ONLY and len(pairs) < 2:
        raise DataError(f"yaw alignment needs >= 2 pairs, got {len(pairs)}")
    est, gt = _paired_points(pairs)
    if mode is AlignmentMode.SE3:
        return _align_se3(est, gt)
    return _align_yaw(est, gt)


def apply_alignment(pairs, transform: RigidTransform):
    """Transform the estimate side of every pair; ground truth is untouched."""
    if not pairs:
        return ()
    t, q = compose_arrays(
        transform.translation, transform.rotation.as_array(), *pose_arrays([e for e, _ in pairs])
    )
    # rows of fresh arrays from validated poses and a validated transform
    return tuple(
        (Pose._trusted(e.timestamp, tk, Quaternion(*qk), e.parent_frame, e.child_frame), g)
        for (e, g), tk, qk in zip(pairs, t, q.tolist())
    )


# ---------------------------------------------------------------------------
# Error statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSeries:
    """Summary of one per-sample error series (all entries non-negative)."""

    rmse: float
    mean: float
    median: float
    max: float
    per_sample: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("rmse", "mean", "median", "max"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.max + 1e-12 < self.median:
            raise ValueError("max cannot be below median")
        if self.rmse + 1e-12 < self.mean:
            raise ValueError("rmse cannot be below the mean of absolute errors")

    @classmethod
    def from_samples(cls, errors: np.ndarray) -> "MetricSeries":
        errors = np.asarray(errors, dtype=float)
        return cls(
            rmse=float(np.sqrt(np.mean(errors**2))),
            mean=float(np.mean(errors)),
            median=float(np.median(errors)),
            max=float(np.max(errors)),
            per_sample=tuple(errors.tolist()),
        )

    def to_dict(self, with_series: bool = False) -> dict:
        d = {"rmse": self.rmse, "mean": self.mean, "median": self.median, "max": self.max}
        if with_series:
            d["per_sample"] = list(self.per_sample)
        return d


@dataclass(frozen=True)
class ErrorStats:
    """Translation (meters) and orientation (degrees) error summaries."""

    translation: MetricSeries
    orientation: MetricSeries
    n_samples: int
    timestamps: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (
            self.n_samples
            == len(self.translation.per_sample)
            == len(self.orientation.per_sample)
            == len(self.timestamps)
        ):
            raise ValueError("inconsistent sample counts across series")

    def to_dict(self, with_series: bool = False) -> dict:
        return {
            "n_samples": self.n_samples,
            "translation_m": self.translation.to_dict(with_series),
            "orientation_deg": self.orientation.to_dict(with_series),
        }


def compute_errors(pairs) -> ErrorStats:
    """Per-sample position and orientation errors over aligned pairs."""
    if not pairs:
        raise DataError("cannot compute errors over zero pairs")
    t_est, q_est = pose_arrays([e for e, _ in pairs])
    t_gt, q_gt = pose_arrays([g for _, g in pairs])
    return ErrorStats(
        translation=MetricSeries.from_samples(np.linalg.norm(t_est - t_gt, axis=1)),
        orientation=MetricSeries.from_samples(np.degrees(geodesic_angles(q_est, q_gt))),
        n_samples=len(pairs),
        timestamps=tuple(e.timestamp for e, _ in pairs),
    )


@dataclass(frozen=True)
class EvaluationResult:
    stats: ErrorStats
    alignment: RigidTransform
    n_dropped: int


def evaluate(
    est: Track,
    gt: Track,
    mode: AlignmentMode = AlignmentMode.SE3,
    max_dt: float = DEFAULT_MAX_DT,
) -> EvaluationResult:
    """associate -> align -> compute_errors, in one call."""
    assoc = associate(est, gt, max_dt)
    transform = align(assoc.pairs, mode)
    aligned = apply_alignment(assoc.pairs, transform)
    return EvaluationResult(compute_errors(aligned), transform, assoc.n_dropped)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_error_series(stats: ErrorStats, path) -> None:
    """Per-sample error series as CSV for external plotting."""
    write_table(
        path,
        [],
        ("t", "e_trans_m", "e_rot_deg"),
        np.column_stack([stats.timestamps, stats.translation.per_sample, stats.orientation.per_sample]),
    )


def export_stats_json(stats: ErrorStats, path, with_series: bool = False) -> None:
    Path(path).write_text(json.dumps(stats.to_dict(with_series), indent=2, sort_keys=True) + "\n", encoding="utf-8")
