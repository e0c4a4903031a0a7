"""Simulated leader-to-follower perception channel.

Ground truth in, absolute pose measurements out: the leader and follower
world poses are paired under a strict time gate, the relative pose of the
follower as seen from the leader is computed, planar noise is injected into
that relative pose, and the result is composed back onto the leader's pose.
The noise therefore enters in the leader's body frame, exactly where a real
detector would err, and only then gets rotated out into the world.

Pairing, gating and rate limiting work on the two streams' stamps and pick
row indices; the picked rows are measured at once, on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .dataio import Track, TrajectoryLog, nearest_in_time, track_arrays, track_poses
from .ekf import MeasurementEvent, MeasurementKind, _checked_r6, measurement_covariance
from .errors import DataError
from .geometry import (
    BODY_ADAS,
    BODY_SMART,
    WORLD,
    Frame,
    Pose,
    Quaternion,
    body_frame,
    compose_arrays,
    invert_arrays,
    pose_arrays,
)
from .noise import NoiseSpec, RandomStream, perturb_pose

GATE_RELATIVE_MARGIN = 1e-9
RATE_EPSILON = 1e-9

PERCEPTION_SOURCE = "smart/perception"

@dataclass(frozen=True)
class PerceptionConfig:
    """Channel settings: noise levels, pairing gate, optional output rate."""

    noise: NoiseSpec
    gate_threshold: float = 0.1
    output_rate: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gate_threshold) and self.gate_threshold > 0.0):
            raise ValueError(f"gate_threshold must be > 0, got {self.gate_threshold}")
        if self.output_rate is not None and not (
            math.isfinite(self.output_rate) and self.output_rate > 0.0
        ):
            raise ValueError(f"output_rate must be > 0 when set, got {self.output_rate}")


@dataclass(frozen=True, slots=True)
class PairedSample:
    """A gated leader/follower pose pair; pair_time is the follower-side stamp."""

    smart_pose: Pose
    adas_pose: Pose
    pair_time: float

    def __post_init__(self) -> None:
        if self.smart_pose.child_frame != BODY_SMART:
            raise DataError(f"smart_pose must observe the leader body, got {self.smart_pose.child_frame}")
        if self.adas_pose.child_frame != BODY_ADAS:
            raise DataError(f"adas_pose must observe the follower body, got {self.adas_pose.child_frame}")
        if self.smart_pose.parent_frame != self.adas_pose.parent_frame:
            raise DataError("paired poses must share a parent frame")

    @property
    def timestamp(self) -> float:
        return self.pair_time


def gate_pair(smart_t: float, adas_t: float, threshold: float) -> bool:
    """Strictly inside the gate: |smart_t - adas_t| < threshold.

    The comparison carries a one-part-in-1e9 relative margin so that decimal
    timestamps landing on the boundary (where binary floating point puts the
    difference a hair under the threshold) still count as outside.
    """
    if not (math.isfinite(smart_t) and math.isfinite(adas_t)):
        raise ValueError("timestamps must be finite")
    return _inside_gate(abs(smart_t - adas_t), threshold)


def _inside_gate(gap, threshold: float):
    """The gate comparison, for one time gap or an array of them."""
    return gap < threshold * (1.0 - GATE_RELATIVE_MARGIN)


@dataclass(frozen=True)
class PairedRows:
    """Gated leader/follower pose pairs as row arrays, the input of :func:`make_measurement`.

    ``t`` (n,) holds the follower-side stamps, ``smart_p``/``adas_p`` (n, 3)
    and ``smart_q``/``adas_q`` (n, 4, scalar-last, unit) the leader and
    follower poses in their shared ``parent`` frame.
    """

    t: np.ndarray
    smart_p: np.ndarray
    smart_q: np.ndarray
    adas_p: np.ndarray
    adas_q: np.ndarray
    parent: Frame = WORLD

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def of_pairs(cls, pairs: Sequence[PairedSample]) -> "PairedRows":
        """The rows of a non-empty sequence of pairs that share one parent frame."""
        parents = {p.smart_pose.parent_frame for p in pairs}
        if len(parents) != 1:
            raise DataError("paired poses must share a parent frame")
        return cls(
            np.array([p.pair_time for p in pairs], dtype=float),
            *pose_arrays([p.smart_pose for p in pairs]),
            *pose_arrays([p.adas_pose for p in pairs]),
            *parents,
        )


class _Stream(NamedTuple):
    """One pose stream as arrays, and the log or pose tuple they came from."""

    source: Track
    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    parent: Frame | None  # None for an empty pose sequence


def _stream(poses, body: Frame) -> _Stream:
    """A log or pose sequence whose poses must all observe ``body`` from one parent frame.

    A log's agent vouches for all its rows; a pose sequence is checked as a whole.
    """
    if isinstance(poses, TrajectoryLog):
        if body_frame(poses.agent) != body:
            raise DataError(f"expected poses of {body}, got a {poses.agent.value} log")
        return _Stream(poses, *track_arrays(poses), WORLD)
    poses = tuple(poses)
    frames = {(p.parent_frame, p.child_frame) for p in poses}
    if any(child != body for _, child in frames):
        raise DataError(f"expected poses of {body}, got {sorted(str(c) for _, c in frames)}")
    if len(frames) > 1:
        raise DataError("paired poses must share a parent frame")
    parent = next(iter(frames))[0] if frames else None
    return _Stream(poses, *track_arrays(poses), parent)


def _gated_rows(smart_poses, adas_poses, gate_threshold: float):
    """Both streams, and the leader and follower rows of their gated pairs.

    For every follower stamp the nearest leader stamp is found; the pair is
    kept only if it passes :func:`gate_pair`.
    """
    smart, adas = _stream(smart_poses, BODY_SMART), _stream(adas_poses, BODY_ADAS)
    if np.any(np.diff(smart.t) < 0) or np.any(np.diff(adas.t) < 0):
        raise DataError("pose streams must be time-ordered")
    if len(smart.t) == 0 or len(adas.t) == 0:
        empty = np.zeros(0, dtype=np.intp)
        return smart, adas, empty, empty
    if smart.parent != adas.parent:
        raise DataError("paired poses must share a parent frame")
    best = nearest_in_time(smart.t, adas.t)
    gated = np.flatnonzero(_inside_gate(np.abs(smart.t[best] - adas.t), gate_threshold))
    return smart, adas, best[gated], gated


def pair_streams(
    smart_poses: Iterable[Pose] | TrajectoryLog,
    adas_poses: Iterable[Pose] | TrajectoryLog,
    gate_threshold: float,
) -> list[PairedSample]:
    """Nearest-in-time pairing, then gating.

    For every follower pose the closest leader pose by timestamp is selected;
    the pair survives only if it passes :func:`gate_pair`.  Both inputs must
    be time-ordered.
    """
    smart, adas, i, k = _gated_rows(smart_poses, adas_poses, gate_threshold)
    pairs = zip(track_poses(smart.source, i), track_poses(adas.source, k))
    return [PairedSample(sp, ap, ap.timestamp) for sp, ap in pairs]


def make_measurement(pair, cfg: PerceptionConfig, rng: RandomStream):
    """Absolute follower-pose measurements from gated pairs.

    relative pose -> planar noise in the leader frame -> recomposition onto
    the leader's world pose.  With zero noise this reproduces the follower's
    ground truth exactly (up to rounding).

    ``pair`` is a :class:`PairedRows`, and the result is the measured poses
    as a ``(t, q)`` pair of (n, 3) translations and (n, 4) quaternions.
    One :class:`PairedSample` gives one :class:`MeasurementEvent` and a
    sequence of them a list of events, with the same noise draws in the
    same order as one call per pair.
    """
    if isinstance(pair, PairedSample):
        return make_measurement([pair], cfg, rng)[0]
    if not isinstance(pair, PairedRows):
        if not pair:
            return []
        rows = PairedRows.of_pairs(pair)
        t, q = make_measurement(rows, cfg, rng)
        return _events(rows.t, t, q, rows.parent, measurement_covariance(cfg.noise))
    rel = compose_arrays(*invert_arrays(pair.smart_p, pair.smart_q), pair.adas_p, pair.adas_q)
    return compose_arrays(pair.smart_p, pair.smart_q, *perturb_pose(rel, cfg.noise, rng))


def _events(
    stamps: np.ndarray, t: np.ndarray, q: np.ndarray, parent: Frame, r6: np.ndarray
) -> list[MeasurementEvent]:
    """One perception event per measured pose row."""
    # rows of fresh arrays from closed arithmetic on validated poses
    return [
        MeasurementEvent(
            stamp,
            MeasurementKind.PERCEPTION_ABSOLUTE,
            Pose._trusted(stamp, tk, Quaternion(*qk), parent, BODY_ADAS),
            r6=r6,
            source=PERCEPTION_SOURCE,
        )
        for stamp, tk, qk in zip(stamps.tolist(), t, q.tolist())
    ]


def rate_limit_indices(stamps: Iterable[float], target_hz: float) -> list[int]:
    """Deterministic decimation of time-ordered stamps to at most target_hz.

    The first stamp always passes; afterwards a stamp passes iff it is at
    least one period (minus a 1e-9 slack for floating-point timestamps)
    after the last one that passed.  Returns the indices that pass.
    """
    if not (math.isfinite(target_hz) and target_hz > 0.0):
        raise ValueError(f"target_hz must be > 0, got {target_hz}")
    period = 1.0 / target_hz
    out = []
    last = None
    for i, t in enumerate(stamps):
        if last is None or t >= last + period - RATE_EPSILON:
            out.append(i)
            last = t
    return out


def rate_limit(events: Iterable, target_hz: float):
    """The events of a time-ordered stream that :func:`rate_limit_indices` lets pass."""
    events = list(events)
    return [events[i] for i in rate_limit_indices((ev.timestamp for ev in events), target_hz)]


def simulate_perception(
    smart_poses: Iterable[Pose] | TrajectoryLog,
    adas_poses: Iterable[Pose] | TrajectoryLog,
    cfg: PerceptionConfig,
    rng: RandomStream,
    r6_scale: float = 1.0,
) -> list[MeasurementEvent]:
    """The full channel: pair, gate, rate-limit, then inject noise per pair.

    Noise is drawn only for emitted pairs, so the draw sequence depends on
    the gate and rate settings but never on pairs that were dropped.  The
    events carry the channel covariance times ``r6_scale``.
    """
    smart, adas, i, k = _gated_rows(smart_poses, adas_poses, cfg.gate_threshold)
    if cfg.output_rate is not None:
        keep = rate_limit_indices(adas.t[k].tolist(), cfg.output_rate)
        i, k = i[keep], k[keep]
    if len(k) == 0:
        return []
    rows = PairedRows(adas.t[k], smart.p[i], smart.q[i], adas.p[k], adas.q[k], smart.parent)
    r6 = _checked_r6(measurement_covariance(cfg.noise) * r6_scale, "perception r6")
    return _events(rows.t, *make_measurement(rows, cfg, rng), rows.parent, r6)
