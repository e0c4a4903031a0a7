"""Experiment harness: one place that wires the whole pipeline together.

A run takes ground truth for both vehicles (synthetic or loaded from CSV),
simulates the follower's raw odometry with seeded noise, simulates the
leader-side perception channel, drives the two filter nodes, and scores the
fused world-frame estimate against ground truth.  Every run also produces a
matched "perception off" baseline from the identical odometry events, so
fused-versus-baseline comparisons hold the noise realization fixed.

Sweeps run a grid of perception noise settings, each cell over several
derived seeds.  Reports serialize to canonical JSON whose bytes depend only
on (config, seeds): wall-clock time is kept on the report object but never
written into the JSON document.
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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

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


def _simulate_raw_odometry(
    adas: TrajectoryLog, cfg: ExperimentConfig, stream: RandomStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noisy local-frame follower poses, the input to filter node 1.

    The local frame is the follower's first pose.  Returns the stamps (N,),
    translations (N, 3) and quaternions (N, 4) of the raw odometry.
    """
    rows = slice(None)
    if cfg.raw_rate is not None:
        rows = rate_limit_indices(adas.t.tolist(), cfg.raw_rate)
    # compose(local_from_world, pose) then perturb_pose, for all samples at once
    local = compose_arrays(*invert_arrays(adas.p[:1], adas.q[:1]), adas.p[rows], adas.q[rows])
    t, q = perturb_pose(local, cfg.raw_noise, stream.derive("raw-odometry"))
    return adas.t[rows], t, q


def _pose_rows(p: np.ndarray, q: np.ndarray) -> list[list[float]]:
    """(x, y, z, roll, pitch, yaw) rows of the poses (p, q), as event payloads."""
    return np.concatenate((p, quaternions_to_euler(q)), axis=1).tolist()


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
    node1_pose_var = max(
        s.pose_variance, cfg.raw_noise.sigma_trans**2, cfg.raw_noise.gamma_yaw_rad**2
    )
    node1 = FilterNodeConfig(
        state_from_row(t0, [0.0] * 6, node1_pose_var, s.derivative_variance),
        default_process_noise() * s.node1_q_scale,
        max_predict_dt=s.max_predict_dt,
        predict_substep=s.predict_substep,
    )
    node2 = FilterNodeConfig(
        state_from_row(t0, _pose_rows(adas.p[:1], adas.q[:1])[0], s.pose_variance, s.derivative_variance),
        default_process_noise() * s.node2_q_scale,
        max_predict_dt=s.max_predict_dt,
        predict_substep=s.predict_substep,
    )
    return node1, node2


# Odometry events per block of the filter loop in execute_run.
_BLOCK = 256


_ODOMETRY = MeasurementKind.ODOMETRY_DIFFERENTIAL
_PERCEPTION = MeasurementKind.PERCEPTION_ABSOLUTE
_event = MeasurementEvent._trusted


class _Node1Pass:
    """Node 1 over the raw odometry schedule, fed block by block.

    ``stamps`` (N,), ``t`` (N, 3) and ``q`` (N, 4) are the raw odometry
    poses, which carry the raw channel covariance ``raw_r6``.  Each block
    gives node 1's local->body pose rows as node 2's odometry events, with
    the smoothed channel covariance ``smoothed_r6``.
    """

    def __init__(
        self, cfg: FilterNodeConfig, stamps: np.ndarray, t: np.ndarray, q: np.ndarray,
        raw_r6: np.ndarray, smoothed_r6: np.ndarray,
    ):
        self.node = EkfNode(cfg)
        self.stamps, self.t, self.q = stamps, t, q
        self.raw_r6, self.smoothed_r6 = raw_r6, smoothed_r6

    def step(self, start: int) -> list[MeasurementEvent]:
        """Raw odometry rows ``start`` to ``start + _BLOCK``; node 2's odometry events."""
        rows = slice(start, start + _BLOCK)
        node, raw_r6, r6 = self.node, self.raw_r6, self.smoothed_r6
        return [
            _event(stamp, _ODOMETRY, LOCAL, node.node1_step(_event(stamp, _ODOMETRY, LOCAL, z, raw_r6)), r6)
            for stamp, z in zip(self.stamps[rows].tolist(), _pose_rows(self.t[rows], self.q[rows]))
        ]


class _Node2Pass:
    """One node-2 pass over the odometry schedule, fed block by block.

    The odometry events carry node 1's local->body pose rows; perception
    events join as they come due, and odometry wins stamp ties.  The pass
    keeps what :func:`estimate_track` reads after each odometry step: the
    stamp, the pose block of the node's state and of its covariance diagonal.
    """

    def __init__(self, cfg: FilterNodeConfig, n: int, perception: PerceptionRows | None = None):
        self.node = EkfNode(cfg)
        self.perception = perception
        self.due = 0  # row of the next perception event
        self.t, self.x, self.variances = np.empty(n), np.empty((n, 6)), np.empty((n, 6))

    def _perception_events(self, end: int | None) -> list[MeasurementEvent]:
        """Events of the perception rows from the next due one up to ``end``."""
        rows, r = slice(self.due, end), self.perception
        self.due = len(r) if end is None else end
        return [
            _event(stamp, _PERCEPTION, WORLD, z, r.r6)
            for stamp, z in zip(r.t[rows].tolist(), _pose_rows(r.p[rows], r.q[rows]))
        ]

    def step(self, start: int, events: list[MeasurementEvent]) -> None:
        """Node-2 odometry events ``start``, ``start + 1``, ..."""
        node, due = self.node, []
        if self.perception is not None:
            # every perception row stamped before the block's last odometry event
            due = self._perception_events(int(self.perception.t.searchsorted(events[-1].timestamp)))
        j = 0
        for k, event in enumerate(events, start):
            while j < len(due) and due[j].timestamp < event.timestamp:
                node.node2_step(due[j])
                j += 1
            node.node2_step(event)
            self.t[k], self.x[k], self.variances[k] = node.timestamp, node.x[:6], node.P.diagonal()[:6]

    def finish(self) -> tuple[TrajectoryLog, np.ndarray]:
        """Fuse the perception rows after the last odometry stamp; the estimate track."""
        if self.perception is not None:
            for event in self._perception_events(None):
                self.node.node2_step(event)
        return estimate_track(self.t, self.x, self.variances)


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


def execute_run(
    cfg: ExperimentConfig,
    seed: int,
    ground_truth: tuple[TrajectoryLog, TrajectoryLog] | None = None,
    with_baseline: bool = True,
) -> RunArtifacts:
    """One full pipeline pass: fused estimate plus matched perception-off baseline.

    ``with_baseline=False`` skips the perception-off node-2 pass entirely, for
    callers who only need the fused estimate.
    """
    with _collector_paused():
        smart, adas = _load_ground_truth(cfg) if ground_truth is None else ground_truth
        stream = RandomStream(int(seed))

        with _stage("simulate-raw-odometry"):
            stamps, odometry_t, odometry_q = _simulate_raw_odometry(adas, cfg, stream)
        with _stage("simulate-perception"):
            perception = simulate_perception(
                smart, adas, cfg.perception, stream.derive("perception"), cfg.ekf.perception_r6_scale
            )

        with _stage("filter"):
            node1_cfg, node2_cfg = _node_configs(cfg, adas)
            node1 = _Node1Pass(
                node1_cfg, stamps, odometry_t, odometry_q,
                measurement_covariance(cfg.raw_noise),
                measurement_covariance(_smoothed_odometry_spec(cfg)),
            )
            n = len(stamps)
            # Node 1 never sees perception, so its poses serve both node-2 passes.
            passes = [_Node2Pass(node2_cfg, n, perception)]
            if with_baseline:
                passes.append(_Node2Pass(node2_cfg, n))
            for start in range(0, n, _BLOCK):
                smoothed = node1.step(start)
                for node2 in passes:
                    node2.step(start, smoothed)
            fused, fused_sd = passes[0].finish()
            baseline, baseline_sd = passes[1].finish() if with_baseline else (None, None)
            n_rejected = node1.node.rejected_count + sum(p.node.rejected_count for p in passes)

        with _stage("evaluate"):
            fused_stats = evaluate(fused, adas, cfg.eval.alignment, cfg.eval.max_dt).stats
            baseline_stats = None
            if with_baseline:
                baseline_stats = evaluate(baseline, adas, cfg.eval.alignment, cfg.eval.max_dt).stats

        return RunArtifacts(
            fused=fused_stats,
            baseline=baseline_stats,
            fused_estimates=fused,
            fused_sd=fused_sd,
            baseline_estimates=baseline,
            baseline_sd=baseline_sd,
            n_odometry=n,
            n_perception=len(perception),
            n_rejected=n_rejected,
        )


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


def _run_cell_task(args: tuple) -> tuple[tuple[SeedResult, ...], str | None]:
    """Worker-pool entry: run every seed of one cell; record failure as data.

    Ground truth is regenerated inside the worker (deterministic), keeping the
    task payload small and the results byte-identical to a sequential run.
    """
    cell_cfg, run_seeds, ground_truth = args
    results = []
    try:
        if ground_truth is None:
            ground_truth = _load_ground_truth(cell_cfg)
        for s in run_seeds:
            art = execute_run(cell_cfg, s, ground_truth)
            results.append(
                SeedResult(s, art.fused, art.baseline, art.n_odometry, art.n_perception, art.n_rejected)
            )
    except ColocError as exc:
        return (), f"{type(exc).__name__}: {exc}"
    return tuple(results), None


def _baseline_cell(results: Sequence[SeedResult]) -> CellReport:
    """The perception-off cell: the baseline side of every given seed result."""
    return CellReport(
        None, None, tuple(r.seed for r in results), tuple(replace(r, fused=None) for r in results)
    )


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> RunReport:
    """Every (sigma, gamma) cell over derived seeds, plus the baseline cell.

    The baseline cell pools the matched perception-off results from all grid
    runs: same seeds, same odometry noise, channel off.
    """
    if cfg.sweep is None:
        raise ValueError("run_sweep requires a sweep grid in the config")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t_start = time.perf_counter()

    tasks = []
    layout = []
    for gi, gamma in enumerate(cfg.sweep.gamma_grid):
        for si, sigma in enumerate(cfg.sweep.sigma_grid):
            run_seeds = tuple(
                derive_run_seed(base, si, gi, ri) for ri, base in enumerate(cfg.seeds)
            )
            layout.append((sigma, gamma, run_seeds))
            tasks.append((_cell_config(cfg, sigma, gamma), run_seeds))

    if workers == 1:
        ground_truth = _load_ground_truth(cfg)
        outcomes = [_run_cell_task((c, s, ground_truth)) for c, s in tasks]
    else:
        # the pool starts all max_workers processes on its first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            outcomes = list(pool.map(_run_cell_task, [(c, s, None) for c, s in tasks]))

    cells = [
        CellReport(sigma, gamma, run_seeds, results, error)
        for (sigma, gamma, run_seeds), (results, error) in zip(layout, outcomes)
    ]
    pooled = [r for results, _ in outcomes for r in results]
    if not pooled:
        raise DataError("every sweep cell failed; no baseline results to report")
    cells.append(_baseline_cell(pooled))

    expected = len(cfg.sweep.sigma_grid) * len(cfg.sweep.gamma_grid) + 1
    assert len(cells) == expected, f"cell count {len(cells)} != {expected}"
    return RunReport(config_to_dict(cfg), tuple(cells), time.perf_counter() - t_start)


def run_report(cfg: ExperimentConfig) -> tuple[RunReport, RunArtifacts]:
    """Single-setting report over cfg.seeds (used by the run subcommand).

    Returns the report plus the first seed's artifacts for CSV export.
    """
    t_start = time.perf_counter()
    ground_truth = _load_ground_truth(cfg)
    first_artifacts: RunArtifacts | None = None
    results = []
    for s in cfg.seeds:
        art = execute_run(cfg, s, ground_truth)
        if first_artifacts is None:
            first_artifacts = art
        results.append(
            SeedResult(s, art.fused, art.baseline, art.n_odometry, art.n_perception, art.n_rejected)
        )
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
