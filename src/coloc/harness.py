"""Experiment harness: one place that wires the whole pipeline together.

A run takes ground truth for both vehicles (synthetic or loaded from CSV),
simulates the follower's raw odometry with seeded noise, simulates the
leader-side perception channel, drives the two filter nodes, and scores the
fused world-frame estimate against ground truth.  Every run also produces a
matched "perception off" baseline from the identical odometry events, so
fused-versus-baseline comparisons hold the noise realization fixed.

Sweeps run a grid of perception noise settings, each cell over several
derived seeds.  Runs that differ only in seed and perception noise share one
event schedule, so a sweep's runs, and a report's seeds, step as the members
of one lockstep pass; a single run is its one-member case.  A member that
fails leaves the pass with the error of its run alone; the others go on.
Reports serialize to canonical JSON whose bytes depend only on (config,
seeds): not on batch layout or worker count, and wall-clock time is kept
on the report object but never written into the JSON document.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from copy import copy
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from ._version import __version__
from .dataio import (
    SyncSpec,
    TrajectoryLog,
    estimate_track,
    generate_synthetic,
    load_trajectory,
    synchronize,
    write_estimate_csv,  # re-exported beside the run results it writes
)
from .ekf import (
    EkfNode,
    FilterNodeConfig,
    MeasurementEvent,
    MeasurementKind,
    default_process_noise,
    measurement_covariance,
    state_from_row,
    twist_measurements,
)
from .errors import ColocError, DataError
from .evaluation import AlignmentMode, ErrorStats, evaluate
from .geometry import LOCAL, WORLD, Agent, compose_arrays, invert_arrays, quaternions_to_euler
from .noise import NoiseSpec, RandomStream, perturb_pose
from .perception import (
    PerceptionConfig,
    PerceptionRows,
    rate_limit_indices,
    simulate_perception,
)

# Fallback ratio tying node 2's trust in smoothed odometry to the raw noise
# level when no explicit value is configured, with floors so zero-noise
# configs stay numerically regular.
SMOOTHED_SIGMA_RATIO = 0.3
SMOOTHED_SIGMA_FLOOR = 0.02
SMOOTHED_GAMMA_RATIO = 0.3
SMOOTHED_GAMMA_FLOOR = 0.1


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _check_number(value, name: str, kind: type = numbers.Real) -> None:
    """A real (or, with ``kind=numbers.Integral``, whole) number that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for generated ground truth (see dataio.generate_synthetic)."""

    kind: str = "figure-eight"
    duration: float = 60.0
    rate: float = 50.0
    speed: float = 8.0
    gap: float = 5.0
    seed: int = 0


@dataclass(frozen=True)
class InputConfig:
    """Exactly one trajectory source: a CSV pair or a synthetic spec."""

    smart_csv: str | None = None
    adas_csv: str | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        has_csv = self.smart_csv is not None or self.adas_csv is not None
        if has_csv and (self.smart_csv is None or self.adas_csv is None):
            raise ValueError("csv input needs both smart_csv and adas_csv")
        if has_csv == (self.synthetic is not None):
            raise ValueError("configure either a csv pair or a synthetic spec, not both")


@dataclass(frozen=True)
class EkfSettings:
    """Filter tuning knobs exposed to experiment configs.

    ``smoothed_sigma_trans``/``smoothed_gamma_deg`` set the covariance of
    the smoothed odometry poses node 2 fuses differentially;
    left as None they derive from the raw noise level.
    ``perception_r6_scale`` scales the perception channel covariance before
    node 2 consumes it (trust calibration; 1.0 = channel value as-is).
    """

    node1_q_scale: float = 1.0
    node2_q_scale: float = 1.0
    smoothed_sigma_trans: float | None = None
    smoothed_gamma_deg: float | None = None
    perception_r6_scale: float = 1.0
    pose_variance: float = 1e-6
    derivative_variance: float = 1e3
    max_predict_dt: float = 1.0
    predict_substep: float = 0.1

    def __post_init__(self) -> None:
        for name in ("node1_q_scale", "node2_q_scale", "perception_r6_scale",
                     "pose_variance", "derivative_variance", "max_predict_dt", "predict_substep"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("smoothed_sigma_trans", "smoothed_gamma_deg"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0 when set, got {v}")


@dataclass(frozen=True)
class EvalSettings:
    alignment: AlignmentMode = AlignmentMode.SE3
    max_dt: float = 0.02

    def __post_init__(self) -> None:
        if not isinstance(self.alignment, AlignmentMode):
            raise ValueError(f"alignment must be an AlignmentMode, got {self.alignment!r}")
        if not (math.isfinite(self.max_dt) and self.max_dt > 0.0):
            raise ValueError(f"max_dt must be > 0, got {self.max_dt}")


@dataclass(frozen=True)
class SweepGrid:
    """Perception noise grid: sigma columns by gamma rows, as in the ablations."""

    sigma_grid: tuple[float, ...]
    gamma_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))
        if not self.sigma_grid or not self.gamma_grid:
            raise ValueError("sweep grids must be non-empty")
        for v in (*self.sigma_grid, *self.gamma_grid):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"grid values must be finite and >= 0, got {v}")
        for name in ("sigma_grid", "gamma_grid"):
            # cell directory names and table headers print grid values with :g,
            # and the table finds cells by value, where -0.0 == 0.0 (+ 0.0 maps
            # -0.0 to 0.0)
            grid = getattr(self, name)
            if len({f"{v + 0.0:g}" for v in grid}) < len(grid):
                raise ValueError(
                    f"{name} values must differ in their first 6 significant digits, got {list(grid)}"
                )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; JSON-serializable and hashable."""

    input: InputConfig
    sync: SyncSpec | None = None
    raw_noise: NoiseSpec = field(default_factory=lambda: NoiseSpec(0.0, 0.0))
    perception: PerceptionConfig = field(
        default_factory=lambda: PerceptionConfig(NoiseSpec(0.0, 0.0))
    )
    raw_rate: float | None = None
    ekf: EkfSettings = field(default_factory=EkfSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    seeds: tuple[int, ...] = (0,)
    sweep: SweepGrid | None = None
    output_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.raw_rate is not None and not (math.isfinite(self.raw_rate) and self.raw_rate > 0.0):
            raise ValueError(f"raw_rate must be > 0 when set, got {self.raw_rate}")


# --- JSON round trip -------------------------------------------------------
#
# The JSON document mirrors the config dataclasses: one object per section,
# keyed by field names, read and written by walking the fields and their
# annotations.  Two layout rules keep the document flat: the perception
# section holds its noise fields inline, and the input section writes only
# the source it uses.

_INLINE = {(PerceptionConfig, "noise")}
_SET_FIELDS_ONLY = {InputConfig}


def _to_json(value):
    if is_dataclass(value):
        out = {}
        for f in fields(value):
            v = getattr(value, f.name)
            if (type(value), f.name) in _INLINE:
                out.update(_to_json(v))
            elif v is not None or type(value) not in _SET_FIELDS_ONLY:
                out[f.name] = _to_json(v)
        return out
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _to_json(cfg)


def _keys(cls) -> set[str]:
    """The JSON keys of a section that holds a ``cls``."""
    hints = get_type_hints(cls)
    return set().union(
        *(_keys(hints[f.name]) if (cls, f.name) in _INLINE else {f.name} for f in fields(cls))
    )


def _default(f):
    if f.default_factory is not MISSING:
        return f.default_factory()
    return f.default


def _read_value(tp, value, path: str, default=None):
    """A JSON value as annotation ``tp``; null only where ``tp`` allows None.

    A section takes the keys it leaves out from ``default``, the field's
    default, when that is a config object (see _read_section).
    """
    args = get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
    if is_dataclass(tp):
        return _read_section(tp, value, path, default if is_dataclass(default) else None)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {value!r}")
        return tuple(_read_value(get_args(tp)[0], v, f"{path} entry") for v in value)
    if isinstance(tp, type) and issubclass(tp, Enum):
        for member in tp:
            if member.value == value:
                return member
        raise ValueError(f"{path} must be one of {[m.value for m in tp]}, got {value!r}")
    if tp is float:
        _check_number(value, path)
        return float(value)
    if tp is int:
        _check_number(value, path, numbers.Integral)
        return value
    if tp is str:
        if not isinstance(value, str):
            raise ValueError(f"{path} must be a string, got {value!r}")
        return value
    raise TypeError(f"no JSON reader for {tp!r} ({path})")


def _read_section(cls, d, path: str, base=None):
    """A JSON object as a ``cls``.

    An absent key takes the field's value in ``base`` when given, else the
    field default; a null whole section counts as absent.
    """
    where = path or "config"
    if not isinstance(d, dict):
        raise ValueError(f"{where!r} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - _keys(cls)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        tp = hints[f.name]
        key = f"{path}.{f.name}" if path else f.name
        default = _default(f) if base is None else getattr(base, f.name)
        if (cls, f.name) in _INLINE:
            own = {k: v for k, v in d.items() if k in _keys(tp)}
            kwargs[f.name] = _read_section(tp, own, path, default)
        elif f.name in d and not (d[f.name] is None and is_dataclass(tp)):
            kwargs[f.name] = _read_value(tp, d[f.name], key, default)
        elif default is MISSING:
            raise ValueError(f"{key} is required")
        else:
            kwargs[f.name] = default
    return cls(**kwargs)


def config_from_dict(d: dict) -> ExperimentConfig:
    return _read_section(ExperimentConfig, d, "")


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(d)


# ---------------------------------------------------------------------------
# Single run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunArtifacts:
    """Everything a single run produces beyond the two headline stats.

    Each node-2 pass leaves its estimate after every odometry step as a
    world-frame follower log and an (N, 4) 1-sigma array on x, y, z and
    yaw.  The baseline fields are None when the run skipped the
    perception-off pass.
    """

    fused: ErrorStats
    baseline: ErrorStats | None
    fused_estimates: TrajectoryLog
    fused_sd: np.ndarray
    baseline_estimates: TrajectoryLog | None
    baseline_sd: np.ndarray | None
    n_odometry: int
    n_perception: int
    n_rejected: int


@contextmanager
def _stage(name: str):
    """Prefix any pipeline error with the stage that raised it."""
    try:
        yield
    except ColocError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def _load_ground_truth(cfg: ExperimentConfig) -> tuple[TrajectoryLog, TrajectoryLog]:
    with _stage("ingest"):
        if cfg.input.synthetic is not None:
            s = cfg.input.synthetic
            smart, adas = generate_synthetic(s.kind, s.duration, s.rate, s.speed, s.seed, s.gap)
        else:
            smart = load_trajectory(cfg.input.smart_csv)
            adas = load_trajectory(cfg.input.adas_csv)
            if smart.agent is not Agent.SMART or adas.agent is not Agent.ADAS:
                raise DataError(
                    f"expected a smart and an adas log, got {smart.agent.value} and {adas.agent.value}"
                )
    with _stage("synchronize"):
        if cfg.sync is not None:
            smart, adas = synchronize(smart, adas, cfg.sync)
    if len(adas) < 2 or len(smart) < 1:
        raise DataError("ground truth too short: need >= 2 follower and >= 1 leader samples")
    return smart, adas


def _raw_odometry_truth(adas: TrajectoryLog, cfg: ExperimentConfig) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The raw odometry stamps (N,) and the follower's true poses at them in
    the local frame, its first pose, as translations (N, 3) and quaternions
    (N, 4).  They depend on ground truth and the raw rate only."""
    rows = slice(None)
    if cfg.raw_rate is not None:
        rows = rate_limit_indices(adas.t, cfg.raw_rate)
    # compose(local_from_world, pose) for all samples at once
    return adas.t[rows], compose_arrays(*invert_arrays(adas.p[:1], adas.q[:1]), adas.p[rows], adas.q[rows])


def _simulate_raw_odometry(
    local: tuple[np.ndarray, np.ndarray], cfg: ExperimentConfig, stream: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy local-frame follower poses, the input to filter node 1: the true
    poses ``local`` of :func:`_raw_odometry_truth` perturbed by the raw noise.
    Returns their translations (N, 3) and quaternions (N, 4)."""
    return perturb_pose(local, cfg.raw_noise, stream.derive("raw-odometry"))


def _pose_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per stamp, every member's (x, y, z, roll, pitch, yaw) row of the poses
    (p, q), (B, n, 3) and (B, n, 4): an (n, B, 6) array, whose (B, 6) rows
    are event payloads."""
    euler = quaternions_to_euler(q.reshape(-1, 4)).reshape(*q.shape[:2], 3)
    return np.concatenate((p.transpose(1, 0, 2), euler.transpose(1, 0, 2)), axis=2)


def _smoothed_odometry_spec(cfg: ExperimentConfig) -> NoiseSpec:
    sigma = cfg.ekf.smoothed_sigma_trans
    if sigma is None:
        sigma = max(SMOOTHED_SIGMA_RATIO * cfg.raw_noise.sigma_trans, SMOOTHED_SIGMA_FLOOR)
    gamma = cfg.ekf.smoothed_gamma_deg
    if gamma is None:
        gamma = max(SMOOTHED_GAMMA_RATIO * cfg.raw_noise.gamma_yaw, SMOOTHED_GAMMA_FLOOR)
    return NoiseSpec(sigma, gamma)


def _node_configs(cfg: ExperimentConfig, adas: TrajectoryLog) -> tuple[FilterNodeConfig, FilterNodeConfig]:
    """Node 1 starts at the local origin, node 2 at the follower's first world pose."""
    s = cfg.ekf
    t0 = float(adas.t[0])
    # Under raw noise the local start is only known to raw accuracy.
    # s * s overflows to inf where ** would raise; the initial state rejects inf
    sigma, gamma = cfg.raw_noise.sigma_trans, cfg.raw_noise.gamma_yaw_rad
    node1_pose_var = max(s.pose_variance, sigma * sigma, gamma * gamma)
    node1 = FilterNodeConfig(
        state_from_row(t0, [0.0] * 6, node1_pose_var, s.derivative_variance),
        default_process_noise() * s.node1_q_scale,
        max_predict_dt=s.max_predict_dt,
        predict_substep=s.predict_substep,
    )
    node2 = FilterNodeConfig(
        state_from_row(t0, np.concatenate((adas.p[0], quaternions_to_euler(adas.q[:1])[0])), s.pose_variance, s.derivative_variance),
        default_process_noise() * s.node2_q_scale,
        max_predict_dt=s.max_predict_dt,
        predict_substep=s.predict_substep,
    )
    return node1, node2


# Member rows (members x odometry rows) per block of the filter loop in a
# lockstep pass: a block's events are alive at once.
_BLOCK = 256

# Member rows (members x ground-truth rows) of one lockstep batch: a batch
# holds every member's whole-run arrays at once, and this bounds them, as
# _BLOCK bounds the events alive at once.  A 60-run sweep of 1 500-row runs
# is one batch; longer runs go in batches of fewer members, at least one.
_BATCH_ROWS = 1 << 17


_ODOMETRY = MeasurementKind.ODOMETRY_DIFFERENTIAL
_PERCEPTION = MeasurementKind.PERCEPTION_ABSOLUTE
_new = tuple.__new__


class _Node1Pass:
    """Node 1 over the raw odometry schedule, fed block by block.

    ``stamps`` (N,), ``t`` (B, N, 3) and ``q`` (B, N, 4) are the B members'
    raw odometry poses, which carry the raw channel covariance ``raw_r6``.
    Each block turns node 1's local->body pose rows, with the smoothed
    channel covariance ``smoothed_r6``, into node 2's odometry events: one
    :func:`twist_measurements` pass over the block's rows, from the last row
    of the block before.
    """

    def __init__(
        self, cfg: FilterNodeConfig, stamps: np.ndarray, t: np.ndarray, q: np.ndarray,
        raw_r6: np.ndarray, smoothed_r6: np.ndarray,
    ):
        self.node = EkfNode(cfg, len(t))
        self.stamps, self.t, self.q = stamps, t, q
        self.raw_r6, self.smoothed_r6 = raw_r6, smoothed_r6
        self.last = None  # the stamp and (B, 6) pose rows the next twists start from

    def step(self, rows: slice) -> list[MeasurementEvent]:
        """Raw odometry ``rows``; node 2's odometry events."""
        node, raw_r6 = self.node, self.raw_r6
        stamps = self.stamps[rows]
        smoothed = [
            node.node1_step(_new(MeasurementEvent, (stamp, _ODOMETRY, LOCAL, z, raw_r6)))
            for stamp, z in zip(stamps.tolist(), _pose_rows(self.t[:, rows], self.q[:, rows]))
        ]
        if not smoothed:
            return []
        events, smoothed = [], np.array(smoothed)
        if self.last is None:
            # the run's first row only starts node 2's clock
            events.append(_new(MeasurementEvent, (float(stamps[0]), _ODOMETRY, LOCAL, None, None)))
        else:
            stamps, smoothed = np.insert(stamps, 0, self.last[0]), np.concatenate((self.last[1][None], smoothed))
        self.last = stamps[-1], smoothed[-1]
        events += [
            _new(MeasurementEvent, (stamp, _ODOMETRY, LOCAL, z, r_vel))
            for stamp, (z, r_vel) in zip(stamps[1:].tolist(), twist_measurements(stamps, smoothed, self.smoothed_r6))
        ]
        return events

    def restricted(self, members: list[int]) -> _Node1Pass:
        """The pass of the given members only, in that order."""
        node1 = copy(self)
        node1.node, node1.t, node1.q = self.node.restricted(members), self.t[members], self.q[members]
        if self.last is not None:
            node1.last = self.last[0], self.last[1][members]
        return node1


class _Node2Pass:
    """One node-2 pass over the odometry schedule, fed block by block.

    The odometry events carry the twists of node 1's rows; perception
    events join as they come due, and odometry wins stamp ties.  The
    members' perception channels share their stamps; each member has its
    own rows and r6.  The pass keeps what :func:`estimate_track` reads after
    each odometry step, besides its stamp: per member the pose block of the
    node's state and of its covariance diagonal, taken from the block's
    committed states and covariances at once.
    """

    def __init__(self, cfg: FilterNodeConfig, n: int, members: int, perception: Sequence[PerceptionRows] = ()):
        self.node = EkfNode(cfg, members)
        self.perception = None
        if perception:
            stamps = perception[0].t
            if any(not np.array_equal(r.t, stamps) for r in perception):
                raise ValueError("lockstep members must share one perception schedule")
            # one member's covariance (a one-member node takes matrices), or the members' stack
            r6 = perception[0].r6 if members == 1 else np.array([r.r6 for r in perception])
            r6.flags.writeable = False
            self.perception = (stamps, np.array([r.p for r in perception]), np.array([r.q for r in perception]), r6)
        self.due = 0  # row of the next perception event
        self.x, self.variances = np.empty((n, members, 6)), np.empty((n, members, 6))

    def step(self, rows: slice, events: list[MeasurementEvent]) -> None:
        """Node-2 odometry events of odometry ``rows``; without any, the rest of the perception rows."""
        node, due = self.node, []
        if self.perception is not None:
            stamps, p, q, r6 = self.perception
            # every perception row stamped before the block's last odometry event
            end = int(stamps.searchsorted(events[-1].timestamp)) if events else len(stamps)
            due_rows, self.due = slice(self.due, end), end
            due = [
                _new(MeasurementEvent, (stamp, _PERCEPTION, WORLD, z, r6))
                for stamp, z in zip(stamps[due_rows].tolist(), _pose_rows(p[:, due_rows], q[:, due_rows]))
            ]
        j, n_due = 0, len(due)
        x, P = [], []
        for event in events:
            while j < n_due and due[j].timestamp < event.timestamp:
                node.node2_step(due[j])
                j += 1
            node.node2_step(event)
            x.append(node.x)
            P.append(node.P)
        for event in due[j:]:
            node.node2_step(event)
        if events:
            self.x[rows], self.variances[rows] = np.array(x)[:, :, :6], np.array(P).diagonal(0, 2, 3)[:, :, :6]

    def restricted(self, members: list[int]) -> _Node2Pass:
        """The pass of the given members only, in that order."""
        node2 = copy(self)
        node2.node = self.node.restricted(members)
        if self.perception is not None:
            stamps, p, q, r6 = self.perception
            if r6.ndim == 3:  # a stack; one member's covariance is its matrix
                r6 = r6[members if len(members) > 1 else members[0]]
                r6.flags.writeable = False
            node2.perception = stamps, p[members], q[members], r6
        node2.x, node2.variances = self.x[:, members], self.variances[:, members]
        return node2

    def finish(self, t: np.ndarray) -> list[tuple[TrajectoryLog, np.ndarray]]:
        """Each member's estimate track at the odometry stamps ``t``.

        The pass lets go of its whole-run arrays, which the tracks replace.
        """
        x, variances = self.x, self.variances
        del self.x, self.variances, self.perception
        return [estimate_track(t, x[:, b], variances[:, b]) for b in range(self.node.members)]


@contextmanager
def _collector_paused():
    """Pause Python's cyclic garbage collector for the duration of a run.

    A run allocates a few hundred thousand small objects that form no
    reference cycles (events, their pose rows, filter arrays).  Reference counting
    frees each one once the filter block that built it is done, so only one
    block's worth is alive at a time.  With the collector on, it would still
    scan the young objects after every few hundred allocations and find
    nothing to free.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass(frozen=True)
class _Filtered:
    """One member's share of a lockstep pass: its estimate tracks, each a
    (track, 1-sigma) pair, and its event counts."""

    fused: tuple[TrajectoryLog, np.ndarray]
    baseline: tuple[TrajectoryLog, np.ndarray] | tuple[None, None]
    n_odometry: int
    n_perception: int
    n_rejected: int


def _step(chain: list, rows: slice) -> None:
    """Node 1 and then each node-2 pass of ``chain`` over odometry ``rows``."""
    smoothed = chain[0].step(rows)
    for node2 in chain[1:]:
        node2.step(rows, smoothed)


def _failure(chain: list, rows: slice) -> ColocError | None:
    """The error that stepping ``chain`` over ``rows`` raises, or None."""
    try:
        with _stage("filter"):
            _step(chain, rows)
    except ColocError as exc:
        return exc


def _lockstep(
    cfg: ExperimentConfig,
    members: Sequence[tuple[PerceptionConfig, int]],
    ground_truth: tuple[TrajectoryLog, TrajectoryLog],
    with_baseline: bool = True,
) -> list[_Filtered | ColocError]:
    """The simulation and filter stages of B runs as one pass, each member a
    (perception config, seed): each member's share, or the error its run
    alone raises.

    The members share everything in ``cfg`` but the perception channel, so
    their events share one stamp schedule: the raw odometry stamps follow
    from ground truth and the raw rate, the perception stamps from ground
    truth, the gate and the output rate.  Node 1, node 2 fused and node 2
    baseline each step all members as one :class:`EkfNode`.  Member b's
    tracks are bit for bit those of its run alone.

    A member whose simulation raises never enters the filter.  When a
    filter block raises, each member steps it alone from a snapshot taken
    before it; those that raise keep their error, and the rest step it again
    together.  An error no member raises alone, or one raised before the
    first block, is every member's.
    """
    with _collector_paused():
        smart, adas = ground_truth
        # the members share the stamps and true poses; each draws its own noise
        stamps, local = _raw_odometry_truth(adas, cfg)
        out: list = [None] * len(members)
        simulated = {}  # member -> (raw odometry, perception rows)
        for k, (channel, seed) in enumerate(members):
            stream = RandomStream(int(seed))
            try:
                with _stage("simulate-raw-odometry"):
                    raw = _simulate_raw_odometry(local, cfg, stream)
                with _stage("simulate-perception"):
                    simulated[k] = raw, simulate_perception(
                        smart, adas, channel, stream.derive("perception"), cfg.ekf.perception_r6_scale
                    )
            except ColocError as exc:
                out[k] = exc
        del local
        if not simulated:
            return out
        live, (raw, perception) = list(simulated), zip(*simulated.values())
        del simulated
        n_perception = len(perception[0])  # the members share one perception schedule

        try:
            with _stage("filter"):
                node1_cfg, node2_cfg = _node_configs(cfg, adas)
                node1 = _Node1Pass(
                    node1_cfg, stamps, np.array([t for t, _ in raw]), np.array([q for _, q in raw]),
                    measurement_covariance(cfg.raw_noise),
                    measurement_covariance(_smoothed_odometry_spec(cfg)),
                )
                del raw
                n, b = len(stamps), len(live)
                # Node 1 never sees perception, so its poses serve both node-2 passes.
                chain = [node1, _Node2Pass(node2_cfg, n, b, perception)]
                del perception  # the fused pass holds the members' rows stacked
                if with_baseline:
                    chain.append(_Node2Pass(node2_cfg, n, b))
                block = max(1, _BLOCK // b)
                # the last, empty block fuses the perception rows after the last odometry stamp
                for start in [*range(0, n, block), n]:
                    rows = slice(start, start + block)
                    saved = [copy(p) for p in chain]
                    for p in saved:  # a snapshot: steps replace node state, and fill pass arrays once a block is done
                        p.node = copy(p.node)
                    try:
                        _step(chain, rows)
                    except ColocError:
                        alone = [_failure([p.restricted([m]) for p in saved], rows) for m in range(len(live))]
                        if all(exc is None for exc in alone):
                            raise
                        for k, exc in zip(live, alone):
                            out[k] = exc
                        kept = [m for m, exc in enumerate(alone) if exc is None]
                        live = [live[m] for m in kept]
                        if not live:
                            return out
                        chain = [p.restricted(kept) for p in saved]
                        _step(chain, rows)
                    # a snapshot kept past its block holds finish's arrays alive
                    del saved
                # a node-2 pass's clock reads each odometry stamp after stepping it
                fused = chain[1].finish(stamps)
                baseline = chain[2].finish(stamps) if with_baseline else [(None, None)] * len(live)
                n_rejected = sum(p.node.rejected_count for p in chain)
                for k, *tracks in zip(live, fused, baseline):
                    out[k] = _Filtered(*tracks, n, n_perception, n_rejected)
        except ColocError as exc:
            for k in live:
                out[k] = exc
        return out


def execute_run(
    cfg: ExperimentConfig,
    seed: int,
    ground_truth: tuple[TrajectoryLog, TrajectoryLog] | None = None,
    with_baseline: bool = True,
    _filtered: _Filtered | ColocError | None = None,
) -> RunArtifacts:
    """One full pipeline pass: fused estimate plus matched perception-off baseline.

    ``with_baseline=False`` skips the perception-off node-2 pass entirely, for
    callers who only need the fused estimate.  The simulation and filter
    stages are the one-member lockstep pass.  Sweeps and reports step many
    runs in one pass and hand each run's share to this call as
    ``_filtered``, which then only scores it, or raises it if it is the
    run's error.
    """
    with _collector_paused():
        smart, adas = _load_ground_truth(cfg) if ground_truth is None else ground_truth
        if _filtered is None:
            (_filtered,) = _lockstep(cfg, [(cfg.perception, seed)], (smart, adas), with_baseline)
        if isinstance(_filtered, ColocError):
            raise _filtered
        (fused, fused_sd), (baseline, baseline_sd) = _filtered.fused, _filtered.baseline

        with _stage("evaluate"):
            fused_stats = evaluate(fused, adas, cfg.eval.alignment, cfg.eval.max_dt).stats
            baseline_stats = None
            if baseline is not None:
                baseline_stats = evaluate(baseline, adas, cfg.eval.alignment, cfg.eval.max_dt).stats

        return RunArtifacts(
            fused=fused_stats,
            baseline=baseline_stats,
            fused_estimates=fused,
            fused_sd=fused_sd,
            baseline_estimates=baseline,
            baseline_sd=baseline_sd,
            n_odometry=_filtered.n_odometry,
            n_perception=_filtered.n_perception,
            n_rejected=_filtered.n_rejected,
        )


def _lockstep_runs(
    cfg: ExperimentConfig,
    members: Sequence[tuple[PerceptionConfig, int]],
    ground_truth: tuple[TrajectoryLog, TrajectoryLog],
) -> Iterator[RunArtifacts | ColocError]:
    """Each member's artifacts, or the error its run alone raises, in member order.

    Each member is a (perception config, seed).  Members step in lockstep
    batches of at most ``_BATCH_ROWS`` member rows; each member's share is
    then scored by :func:`execute_run`.
    """
    size = max(1, _BATCH_ROWS // len(ground_truth[1]))
    for start in range(0, len(members), size):
        batch = members[start:start + size]
        filtered = _lockstep(cfg, batch, ground_truth)
        filtered.reverse()  # popped in member order, so each share is freed once scored
        for channel, seed in batch:
            try:
                yield execute_run(replace(cfg, perception=channel), seed, ground_truth, True, filtered.pop())
            except ColocError as exc:
                yield exc


# ---------------------------------------------------------------------------
# Sweeps and reports
# ---------------------------------------------------------------------------

def derive_run_seed(base_seed: int, sigma_idx: int, gamma_idx: int, rep_idx: int) -> int:
    """Stable per-cell seed: adding grid rows or seeds never moves old cells."""
    payload = f"sweep:{int(base_seed)}:{int(sigma_idx)}:{int(gamma_idx)}:{int(rep_idx)}"
    return int.from_bytes(hashlib.sha256(payload.encode("ascii")).digest()[:8], "big")


@dataclass(frozen=True)
class SeedResult:
    """One run's outcome; fused is None in the perception-off report cell."""

    seed: int
    fused: ErrorStats | None
    baseline: ErrorStats
    n_odometry: int
    n_perception: int
    n_rejected: int


@dataclass(frozen=True)
class CellReport:
    """One report cell: a (sigma, gamma) grid point, or the baseline row."""

    sigma: float | None
    gamma_deg: float | None
    run_seeds: tuple[int, ...]
    results: tuple[SeedResult, ...]
    error: str | None = None

    def __post_init__(self) -> None:
        if self.error is None and not self.results:
            raise ValueError("a cell without an error must carry at least one seed result")

    @property
    def is_baseline(self) -> bool:
        return self.sigma is None


def _mean_over_seeds(stats_list: Sequence[ErrorStats]) -> dict:
    return {
        "translation_rmse_m": float(np.mean([s.translation.rmse for s in stats_list])),
        "translation_mean_m": float(np.mean([s.translation.mean for s in stats_list])),
        "orientation_rmse_deg": float(np.mean([s.orientation.rmse for s in stats_list])),
        "orientation_mean_deg": float(np.mean([s.orientation.mean for s in stats_list])),
        "n_seeds": len(stats_list),
    }


def cell_aggregate(cell: CellReport) -> dict:
    if cell.error is not None:
        return {"fused": None, "baseline": None, "translation_rmse_ratio": None}
    fused_list = [r.fused for r in cell.results if r.fused is not None]
    baseline_list = [r.baseline for r in cell.results]
    fused = _mean_over_seeds(fused_list) if fused_list else None
    baseline = _mean_over_seeds(baseline_list)
    ratio = None
    if fused is not None and baseline["translation_rmse_m"] > 0.0:
        ratio = fused["translation_rmse_m"] / baseline["translation_rmse_m"]
    return {"fused": fused, "baseline": baseline, "translation_rmse_ratio": ratio}


@dataclass(frozen=True)
class RunReport:
    """Config echo plus per-cell results; cells = grid cells + 1 baseline cell."""

    config: dict
    cells: tuple[CellReport, ...]
    wall_clock_s: float

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a report needs at least one cell")
        if sum(1 for c in self.cells if c.is_baseline) != 1:
            raise ValueError("a report carries exactly one perception-off cell")

    def baseline_cell(self) -> CellReport:
        return next(c for c in self.cells if c.is_baseline)

    def grid_cells(self) -> tuple[CellReport, ...]:
        return tuple(c for c in self.cells if not c.is_baseline)

    def to_dict(self) -> dict:
        # wall_clock_s is intentionally absent: report bytes must depend on
        # (config, seeds) only.
        return {
            "version": __version__,
            "config": self.config,
            "cells": [
                {
                    "sigma": c.sigma,
                    "gamma_deg": c.gamma_deg,
                    "run_seeds": list(c.run_seeds),
                    "per_seed": [
                        {
                            "seed": r.seed,
                            "fused": None if r.fused is None else r.fused.to_dict(),
                            "baseline": r.baseline.to_dict(),
                            "n_odometry": r.n_odometry,
                            "n_perception": r.n_perception,
                            "n_rejected": r.n_rejected,
                        }
                        for r in c.results
                    ],
                    "aggregate": cell_aggregate(c),
                    "error": c.error,
                }
                for c in self.cells
            ],
        }


def report_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _cell_config(cfg: ExperimentConfig, sigma: float, gamma: float) -> ExperimentConfig:
    perception = replace(
        cfg.perception, noise=replace(cfg.perception.noise, sigma_trans=sigma, gamma_yaw=gamma)
    )
    return replace(cfg, perception=perception)


def _seed_result(seed: int, art: RunArtifacts) -> SeedResult:
    return SeedResult(seed, art.fused, art.baseline, art.n_odometry, art.n_perception, art.n_rejected)


def _error_text(exc: ColocError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_cells(args: tuple) -> list[tuple[tuple[SeedResult, ...], ColocError | None]]:
    """Worker-pool entry: every run of a group of cells, in lockstep batches.

    ``args`` is (config, cells, ground truth), a cell being its perception
    config and run seeds.  A cell's failure is recorded as data: the error
    of its first failing seed.  Ground truth is regenerated inside a worker
    (deterministic), keeping the task payload small and the results
    byte-identical to a sequential run; an error loading it is raised.
    """
    cfg, cells, ground_truth = args
    if ground_truth is None:
        ground_truth = _load_ground_truth(cfg)
    runs = _lockstep_runs(cfg, [(channel, s) for channel, seeds in cells for s in seeds], ground_truth)
    outcomes = []
    for _, seeds in cells:
        arts = [next(runs) for _ in seeds]
        failed = [a for a in arts if isinstance(a, ColocError)]
        if failed:
            outcomes.append(((), failed[0]))
        else:
            outcomes.append((tuple(map(_seed_result, seeds, arts)), None))
    return outcomes


def _baseline_cell(results: Sequence[SeedResult]) -> CellReport:
    """The perception-off cell: the baseline side of every given seed result."""
    return CellReport(
        None, None, tuple(r.seed for r in results), tuple(replace(r, fused=None) for r in results)
    )


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> RunReport:
    """Every (sigma, gamma) cell over derived seeds, plus the baseline cell.

    The baseline cell pools the matched perception-off results from all grid
    runs: same seeds, same odometry noise, channel off.

    The cells differ only in perception noise, so all runs of the sweep
    (cells x seeds) step in lockstep, as batches of at most ``_BATCH_ROWS``
    member rows.  ``workers`` > 1 splits the cells into that many contiguous
    groups (at most one per cell), each run in its own process as its own
    batches.  Report bytes do not depend on ``workers`` or on batch layout.
    A cell that fails records its first failing seed's error and leaves
    every other cell as it would be without it.  If every cell fails, the
    first cell's error is raised, as is an error loading ground truth.
    """
    if cfg.sweep is None:
        raise ValueError("run_sweep requires a sweep grid in the config")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t_start = time.perf_counter()

    layout, cells = [], []
    for gi, gamma in enumerate(cfg.sweep.gamma_grid):
        for si, sigma in enumerate(cfg.sweep.sigma_grid):
            run_seeds = tuple(
                derive_run_seed(base, si, gi, ri) for ri, base in enumerate(cfg.seeds)
            )
            layout.append((sigma, gamma, run_seeds))
            cells.append((_cell_config(cfg, sigma, gamma).perception, run_seeds))

    if workers == 1:
        outcomes = _run_cells((cfg, cells, _load_ground_truth(cfg)))
    else:
        n = min(workers, len(cells))
        groups = [cells[k * len(cells) // n:(k + 1) * len(cells) // n] for k in range(n)]
        # the pool starts all max_workers processes on its first submit
        with ProcessPoolExecutor(max_workers=n) as pool:
            outcomes = [o for group in pool.map(_run_cells, [(cfg, g, None) for g in groups]) for o in group]

    pooled = [r for results, _ in outcomes for r in results]
    if not pooled:
        first = outcomes[0][1]
        raise type(first)(f"every sweep cell failed, the first with: {first}")
    cells = [
        CellReport(sigma, gamma, run_seeds, results, None if error is None else _error_text(error))
        for (sigma, gamma, run_seeds), (results, error) in zip(layout, outcomes)
    ]
    cells.append(_baseline_cell(pooled))

    expected = len(cfg.sweep.sigma_grid) * len(cfg.sweep.gamma_grid) + 1
    assert len(cells) == expected, f"cell count {len(cells)} != {expected}"
    return RunReport(config_to_dict(cfg), tuple(cells), time.perf_counter() - t_start)


def run_report(cfg: ExperimentConfig) -> tuple[RunReport, RunArtifacts]:
    """Single-setting report over cfg.seeds (used by the run subcommand).

    The seeds' runs step in lockstep, as batches of at most ``_BATCH_ROWS``
    member rows; report bytes do not depend on batch layout.  The first
    failing seed's error is raised.  Returns the report plus the first
    seed's artifacts for CSV export.
    """
    t_start = time.perf_counter()
    ground_truth = _load_ground_truth(cfg)
    first_artifacts: RunArtifacts | None = None
    results = []
    for s, art in zip(cfg.seeds, _lockstep_runs(cfg, [(cfg.perception, s) for s in cfg.seeds], ground_truth)):
        if isinstance(art, ColocError):
            raise art
        if first_artifacts is None:
            first_artifacts = art
        results.append(_seed_result(s, art))
    grid_cell = CellReport(
        cfg.perception.noise.sigma_trans, cfg.perception.noise.gamma_yaw, cfg.seeds, tuple(results)
    )
    report = RunReport(
        config_to_dict(cfg), (grid_cell, _baseline_cell(results)), time.perf_counter() - t_start
    )
    return report, first_artifacts


# ---------------------------------------------------------------------------
# Text outputs
# ---------------------------------------------------------------------------

def format_table(report: RunReport) -> str:
    """Sigma columns by gamma rows, with the perception-off row underneath."""
    grid = report.grid_cells()
    sigmas = sorted({c.sigma for c in grid})
    gammas = sorted({c.gamma_deg for c in grid})
    by_key = {(c.sigma, c.gamma_deg): c for c in grid}
    label_width = max(len("w/o perception"), *(len(f"gamma={g:g} deg") for g in gammas)) + 2
    col_width = max(*(len(f"sigma={s:g} m") for s in sigmas), 12) + 2

    def fmt_row(label: str, values: list[str]) -> str:
        return label.ljust(label_width) + "".join(v.rjust(col_width) for v in values)

    def cell_value(cell: CellReport | None, which: str, key: str) -> str:
        if cell is None or cell.error is not None:
            return "failed"
        agg = cell_aggregate(cell)[which]
        return f"{agg[key]:.4f}" if agg is not None else "n/a"

    baseline = report.baseline_cell()
    n_seeds = len(report.cells[0].run_seeds)
    blocks = []
    for title, key in (
        ("Translation RMSE [m]", "translation_rmse_m"),
        ("Orientation RMSE [deg]", "orientation_rmse_deg"),
    ):
        lines = [f"{title}, mean over {n_seeds} seed(s) per cell"]
        lines.append(fmt_row("", [f"sigma={s:g} m" for s in sigmas]))
        for g in gammas:
            values = [cell_value(by_key.get((s, g)), "fused", key) for s in sigmas]
            lines.append(fmt_row(f"gamma={g:g} deg", values))
        lines.append(fmt_row("w/o perception", [cell_value(baseline, "baseline", key)]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
