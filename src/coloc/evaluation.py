"""Trajectory evaluation: association, alignment, error statistics.

The estimate is paired with ground truth by nearest timestamp, optionally
aligned with a closed-form least-squares rigid transform (full SE3 via the
scale-free Umeyama/Procrustes solution, or yaw-plus-translation only), and
scored: per-sample Euclidean position error and geodesic orientation error,
summarized as rmse/mean/median/max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dataio import TrajectoryLog, nearest_in_time, write_table
from .errors import DataError, NumericError
from .geometry import Quaternion, compose_arrays, geodesic_angles, quat_yaw

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


@dataclass(frozen=True)
class AssociatedRows:
    """Associated estimate and ground-truth poses as row arrays.

    ``t`` (n,) holds the estimate stamps, ``est_p``/``gt_p`` (n, 3) and
    ``est_q``/``gt_q`` (n, 4, scalar-last, unit) the paired poses.
    :func:`align`, :func:`apply_alignment` and :func:`compute_errors` work
    on these rows.
    """

    t: np.ndarray
    est_p: np.ndarray
    est_q: np.ndarray
    gt_p: np.ndarray
    gt_q: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class Association:
    """Nearest-time pairing result: the associated rows plus the drop count."""

    pairs: AssociatedRows
    n_dropped: int


def associate(est: TrajectoryLog, gt: TrajectoryLog, max_dt: float = DEFAULT_MAX_DT) -> Association:
    """Pair every estimate with the nearest ground-truth sample within max_dt.

    Estimates without a close enough ground-truth sample are dropped and
    counted; an empty result is an error because no metric can follow.
    """
    if not (math.isfinite(max_dt) and max_dt > 0.0):
        raise ValueError(f"max_dt must be > 0, got {max_dt}")
    if len(gt) and len(est):
        best = nearest_in_time(gt.t, est.t)
        e = np.flatnonzero(np.abs(gt.t[best] - est.t) <= max_dt)
        if len(e):
            g = best[e]
            rows = AssociatedRows(est.t[e], est.p[e], est.q[e], gt.p[g], gt.q[g])
            return Association(rows, len(est) - len(e))
    raise DataError("association produced no pairs: disjoint time ranges or max_dt too small")


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

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


def align(rows: AssociatedRows, mode: AlignmentMode) -> RigidTransform:
    """Least-squares rigid correction of the estimate onto ground truth."""
    if mode is AlignmentMode.NONE:
        return RigidTransform.identity()
    if mode is AlignmentMode.SE3 and len(rows) < 3:
        raise DataError(f"SE3 alignment needs >= 3 pairs, got {len(rows)}")
    if mode is AlignmentMode.YAW_ONLY and len(rows) < 2:
        raise DataError(f"yaw alignment needs >= 2 pairs, got {len(rows)}")
    if mode is AlignmentMode.SE3:
        return _align_se3(rows.est_p, rows.gt_p)
    return _align_yaw(rows.est_p, rows.gt_p)


def apply_alignment(rows: AssociatedRows, transform: RigidTransform) -> AssociatedRows:
    """The rows with ``transform`` applied to the estimate side; ground truth is untouched."""
    t, q = compose_arrays(transform.translation, transform.rotation.as_array(), rows.est_p, rows.est_q)
    return replace(rows, est_p=t, est_q=q)


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

    def to_dict(self) -> dict:
        return {"rmse": self.rmse, "mean": self.mean, "median": self.median, "max": self.max}


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

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "translation_m": self.translation.to_dict(),
            "orientation_deg": self.orientation.to_dict(),
        }


def compute_errors(rows: AssociatedRows) -> ErrorStats:
    """Per-sample position and orientation errors over aligned pairs."""
    if not len(rows):
        raise DataError("cannot compute errors over zero pairs")
    return ErrorStats(
        translation=MetricSeries.from_samples(np.linalg.norm(rows.est_p - rows.gt_p, axis=1)),
        orientation=MetricSeries.from_samples(np.degrees(geodesic_angles(rows.est_q, rows.gt_q))),
        n_samples=len(rows),
        timestamps=tuple(rows.t.tolist()),
    )


@dataclass(frozen=True)
class EvaluationResult:
    stats: ErrorStats
    alignment: RigidTransform
    n_dropped: int


def evaluate(
    est: TrajectoryLog,
    gt: TrajectoryLog,
    mode: AlignmentMode = AlignmentMode.SE3,
    max_dt: float = DEFAULT_MAX_DT,
) -> EvaluationResult:
    """associate -> align -> apply_alignment -> compute_errors, in one call."""
    assoc = associate(est, gt, max_dt)
    transform = align(assoc.pairs, mode)
    return EvaluationResult(
        compute_errors(apply_alignment(assoc.pairs, transform)), transform, assoc.n_dropped
    )


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

