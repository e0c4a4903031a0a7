"""Simulated leader-to-follower perception channel.

Ground truth in, absolute pose measurements out: the leader and follower
world poses are paired under a strict time gate, the relative pose of the
follower as seen from the leader is computed, planar noise is injected into
that relative pose, and the result is composed back onto the leader's pose.
The noise therefore enters in the leader's body frame, exactly where a real
detector would err, and only then gets rotated out into the world.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dataio import nearest_in_time
from .ekf import MeasurementEvent, MeasurementKind, measurement_covariance
from .errors import DataError
from .geometry import (
    BODY_ADAS,
    BODY_SMART,
    Pose,
    Quaternion,
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


def pair_streams(
    smart_poses: Iterable[Pose], adas_poses: Iterable[Pose], gate_threshold: float
) -> list[PairedSample]:
    """Nearest-in-time pairing, then gating.

    For every follower pose the closest leader pose by timestamp is selected;
    the pair survives only if it passes :func:`gate_pair`.  Both inputs must
    be time-ordered.
    """
    # tuples index fast, whatever iterable (a trajectory log, say) came in
    smart_poses, adas_poses = tuple(smart_poses), tuple(adas_poses)
    smart_ts = np.array([p.timestamp for p in smart_poses])
    adas_ts = np.array([p.timestamp for p in adas_poses])
    if np.any(np.diff(smart_ts) < 0) or np.any(np.diff(adas_ts) < 0):
        raise DataError("pose streams must be time-ordered")
    if len(smart_ts) == 0 or len(adas_ts) == 0:
        return []
    if not (np.isfinite(smart_ts).all() and np.isfinite(adas_ts).all()):
        raise ValueError("timestamps must be finite")
    best = nearest_in_time(smart_ts, adas_ts)
    gated = np.flatnonzero(_inside_gate(np.abs(smart_ts[best] - adas_ts), gate_threshold))
    return [
        PairedSample(smart_poses[i], adas_poses[k], adas_poses[k].timestamp)
        for k, i in zip(gated.tolist(), best[gated].tolist())
    ]


def make_measurement(pair, cfg: PerceptionConfig, rng: RandomStream):
    """One absolute follower-pose measurement from a gated pair.

    relative pose -> planar noise in the leader frame -> recomposition onto
    the leader's world pose.  With zero noise this reproduces the follower's
    ground truth exactly (up to rounding).

    ``pair`` may also be a sequence of pairs; their measurements are then
    made at once, on arrays, and returned as a list, with the same noise
    draws in the same order as one call per pair.
    """
    if isinstance(pair, PairedSample):
        return make_measurement([pair], cfg, rng)[0]
    pairs = pair
    if not pairs:
        return []
    t_smart, q_smart = pose_arrays([p.smart_pose for p in pairs])
    rel = compose_arrays(*invert_arrays(t_smart, q_smart), *pose_arrays([p.adas_pose for p in pairs]))
    t_world, q_world = compose_arrays(t_smart, q_smart, *perturb_pose(rel, cfg.noise, rng))
    r6 = measurement_covariance(cfg.noise)
    return [
        MeasurementEvent(
            p.pair_time,
            MeasurementKind.PERCEPTION_ABSOLUTE,
            Pose._trusted(p.pair_time, t, Quaternion(*q), p.smart_pose.parent_frame, BODY_ADAS),
            r6=r6,
            source=PERCEPTION_SOURCE,
        )
        for p, t, q in zip(pairs, t_world, q_world.tolist())
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
    smart_poses: Iterable[Pose],
    adas_poses: Iterable[Pose],
    cfg: PerceptionConfig,
    rng: RandomStream,
) -> list[MeasurementEvent]:
    """The full channel: pair, gate, rate-limit, then inject noise per pair.

    Noise is drawn only for emitted pairs, so the draw sequence depends on
    the gate and rate settings but never on pairs that were dropped.
    """
    pairs = pair_streams(smart_poses, adas_poses, cfg.gate_threshold)
    if cfg.output_rate is not None:
        pairs = rate_limit(pairs, cfg.output_rate)
    return make_measurement(pairs, cfg, rng)
