"""Simulated leader-to-follower perception channel.

Ground truth in, absolute pose measurements out: the leader and follower
world poses are paired under a strict time gate, the relative pose of the
follower as seen from the leader is computed, planar noise is injected into
that relative pose, and the result is composed back onto the leader's pose.
The noise therefore enters in the leader's body frame, exactly where a real
detector would err, and only then gets rotated out into the world.

Pairing, gating and rate limiting work on the two streams' stamps and pick
row indices; only the picked rows are gathered and measured, at once, on
arrays.  The channel's result is those measured rows and their covariance.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .dataio import TrajectoryLog, nearest_in_time
from .ekf import _checked_r6, measurement_covariance
from .errors import DataError
from .geometry import Agent, compose_arrays, invert_arrays
from .noise import NoiseSpec, RandomStream, perturb_pose

GATE_RELATIVE_MARGIN = 1e-9
RATE_EPSILON = 1e-9

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
    """Gated leader/follower world poses, the input of :func:`make_measurement`.

    ``t`` (n,) holds the pairs' follower-side stamps.  Pair k joins row
    ``smart_rows[k]`` of the leader log ``smart`` with row ``adas_rows[k]``
    of the follower log ``adas``.  The pose arrays ``smart_p``/``adas_p``
    (n, 3) and ``smart_q``/``adas_q`` (n, 4, scalar-last, unit) are gathered
    from the logs when read, so :meth:`take` before reading copies only the
    rows it keeps.
    """

    t: np.ndarray
    smart: TrajectoryLog
    adas: TrajectoryLog
    smart_rows: np.ndarray
    adas_rows: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def take(self, rows) -> "PairedRows":
        """The pairs at ``rows`` (an index array, list or slice)."""
        return replace(
            self, t=self.t[rows], smart_rows=self.smart_rows[rows], adas_rows=self.adas_rows[rows]
        )

    @property
    def smart_p(self) -> np.ndarray:
        return self.smart.p[self.smart_rows]

    @property
    def smart_q(self) -> np.ndarray:
        return self.smart.q[self.smart_rows]

    @property
    def adas_p(self) -> np.ndarray:
        return self.adas.p[self.adas_rows]

    @property
    def adas_q(self) -> np.ndarray:
        return self.adas.q[self.adas_rows]


def pair_streams(smart: TrajectoryLog, adas: TrajectoryLog, gate_threshold: float) -> PairedRows:
    """Nearest-in-time pairing, then gating.

    For every follower stamp the closest leader stamp is selected; the pair
    survives only if it passes :func:`gate_pair`.
    """
    for log, agent in ((smart, Agent.SMART), (adas, Agent.ADAS)):
        if log.agent is not agent:
            raise DataError(f"expected a {agent.value} log, got a {log.agent.value} log")
    if len(smart) and len(adas):
        best = nearest_in_time(smart.t, adas.t)
        k = np.flatnonzero(_inside_gate(np.abs(smart.t[best] - adas.t), gate_threshold))
        i = best[k]
    else:
        i = k = np.zeros(0, dtype=np.intp)
    return PairedRows(adas.t[k], smart, adas, i, k)


def make_measurement(
    rows: PairedRows, cfg: PerceptionConfig, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute follower-pose measurements of gated pairs.

    relative pose -> planar noise in the leader frame -> recomposition onto
    the leader's world pose.  With zero noise this reproduces the follower's
    ground truth exactly (up to rounding).  Returns the measured poses as
    (n, 3) translations and (n, 4) quaternions; n rows draw the same noise,
    in the same order, as n one-row calls.
    """
    smart_p, smart_q = rows.smart_p, rows.smart_q
    rel = compose_arrays(*invert_arrays(smart_p, smart_q), rows.adas_p, rows.adas_q)
    return compose_arrays(smart_p, smart_q, *perturb_pose(rel, cfg.noise, rng))


@dataclass(frozen=True)
class PerceptionRows:
    """The channel's measured follower world poses, one row per emitted pair.

    ``t`` (n,) holds the stamps, ``p`` (n, 3) and ``q`` (n, 4) the measured
    poses; every row carries the same covariance ``r6``, checked once here.
    """

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r6: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "r6", _checked_r6(self.r6, "perception r6"))

    def __len__(self) -> int:
        return len(self.t)


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


def simulate_perception(
    smart: TrajectoryLog,
    adas: TrajectoryLog,
    cfg: PerceptionConfig,
    rng: RandomStream,
    r6_scale: float = 1.0,
) -> PerceptionRows:
    """The full channel: pair, gate, rate-limit, then inject noise per pair.

    Noise is drawn only for emitted pairs, so the draw sequence depends on
    the gate and rate settings but never on pairs that were dropped.  The
    rows carry the channel covariance times ``r6_scale``.
    """
    rows = pair_streams(smart, adas, cfg.gate_threshold)
    if cfg.output_rate is not None:
        rows = rows.take(rate_limit_indices(rows.t.tolist(), cfg.output_rate))
    r6 = measurement_covariance(cfg.noise) * r6_scale
    return PerceptionRows(rows.t, *make_measurement(rows, cfg, rng), r6)
