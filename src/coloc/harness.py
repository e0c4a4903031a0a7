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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ._version import __version__
from .dataio import (
    ESTIMATE_COLUMNS,
    SyncSpec,
    TrajectoryLog,
    generate_synthetic,
    load_trajectory,
    synchronize,
    write_table,
)
from .ekf import (
    EkfNode,
    FilterNodeConfig,
    MeasurementEvent,
    MeasurementKind,
    NodeId,
    default_process_noise,
    measurement_covariance,
    state_from_pose,
)
from .errors import ColocError, DataError
from .evaluation import AlignmentMode, ErrorStats, evaluate
from .geometry import (
    BODY_ADAS,
    LOCAL,
    WORLD,
    Agent,
    Pose,
    Quaternion,
    body_frame,
    compose_arrays,
    invert,
    pose_arrays,
)
from .noise import NoiseSpec, RandomStream, perturb_pose
from .perception import PerceptionConfig, rate_limit_indices, simulate_perception

RAW_ODOMETRY_SOURCE = "adas/raw-odometry"

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

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str):
            raise ValueError(f"kind must be a string, got {self.kind!r}")
        for name in ("duration", "rate", "speed", "gap"):
            _check_number(getattr(self, name), name)
        _check_number(self.seed, "seed", numbers.Integral)


@dataclass(frozen=True)
class InputConfig:
    """Exactly one trajectory source: a CSV pair or a synthetic spec."""

    smart_csv: str | None = None
    adas_csv: str | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        for name in ("smart_csv", "adas_csv"):
            path = getattr(self, name)
            if path is not None and not isinstance(path, str):
                raise ValueError(f"{name} must be a path string, got {path!r}")
        has_csv = self.smart_csv is not None or self.adas_csv is not None
        if has_csv and (self.smart_csv is None or self.adas_csv is None):
            raise ValueError("csv input needs both smart_csv and adas_csv")
        if has_csv == (self.synthetic is not None):
            raise ValueError("configure either a csv pair or a synthetic spec, not both")


@dataclass(frozen=True)
class EkfSettings:
    """Filter tuning knobs exposed to experiment configs.

    ``smoothed_sigma_trans``/``smoothed_gamma_deg`` set node 2's default
    covariance for smoothed odometry poses entering differential fusion;
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
            if v is not None:
                _check_number(v, name)
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

def _require_keys(d: dict, allowed: set[str], context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown {context} keys: {sorted(unknown)}")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    inp: dict = {}
    if cfg.input.synthetic is not None:
        s = cfg.input.synthetic
        inp["synthetic"] = {
            "kind": s.kind,
            "duration": s.duration,
            "rate": s.rate,
            "speed": s.speed,
            "gap": s.gap,
            "seed": s.seed,
        }
    else:
        inp["smart_csv"] = cfg.input.smart_csv
        inp["adas_csv"] = cfg.input.adas_csv
    out = {
        "input": inp,
        "sync": None
        if cfg.sync is None
        else {"offset_seconds": cfg.sync.offset_seconds, "reference": cfg.sync.reference.value},
        "raw_noise": {"sigma_trans": cfg.raw_noise.sigma_trans, "gamma_yaw": cfg.raw_noise.gamma_yaw},
        "perception": {
            "sigma_trans": cfg.perception.noise.sigma_trans,
            "gamma_yaw": cfg.perception.noise.gamma_yaw,
            "gate_threshold": cfg.perception.gate_threshold,
            "output_rate": cfg.perception.output_rate,
        },
        "raw_rate": cfg.raw_rate,
        "ekf": {
            "node1_q_scale": cfg.ekf.node1_q_scale,
            "node2_q_scale": cfg.ekf.node2_q_scale,
            "smoothed_sigma_trans": cfg.ekf.smoothed_sigma_trans,
            "smoothed_gamma_deg": cfg.ekf.smoothed_gamma_deg,
            "perception_r6_scale": cfg.ekf.perception_r6_scale,
            "pose_variance": cfg.ekf.pose_variance,
            "derivative_variance": cfg.ekf.derivative_variance,
            "max_predict_dt": cfg.ekf.max_predict_dt,
            "predict_substep": cfg.ekf.predict_substep,
        },
        "eval": {"alignment": cfg.eval.alignment.value, "max_dt": cfg.eval.max_dt},
        "seeds": list(cfg.seeds),
        "sweep": None
        if cfg.sweep is None
        else {"sigma_grid": list(cfg.sweep.sigma_grid), "gamma_grid": list(cfg.sweep.gamma_grid)},
        "output_dir": cfg.output_dir,
    }
    return out


def _section(d: dict, key: str, allowed: set[str]) -> dict:
    """The JSON object d[key] with only the allowed keys; {} when absent or null."""
    value = d.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"config section {key!r} must be a JSON object, got {type(value).__name__}")
    _require_keys(value, allowed, key)
    return value


def _float(d: dict, key: str, default: float | None, context: str) -> float | None:
    """d[key] (or the default) as a float; null only where the default is None."""
    value = d.get(key, default)
    if value is None and default is None:
        return None
    _check_number(value, f"{context}.{key}")
    return float(value)


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
    _require_keys(
        d,
        {"input", "sync", "raw_noise", "perception", "raw_rate", "ekf", "eval", "seeds",
         "sweep", "output_dir"},
        "config",
    )
    if "input" not in d:
        raise ValueError("config requires an 'input' section")

    inp_d = _section(d, "input", {"smart_csv", "adas_csv", "synthetic"})
    if inp_d.get("synthetic") is not None:
        syn_d = _section(inp_d, "synthetic", {"kind", "duration", "rate", "speed", "gap", "seed"})
        inp = InputConfig(synthetic=SyntheticSpec(**syn_d))
    else:
        inp = InputConfig(smart_csv=inp_d.get("smart_csv"), adas_csv=inp_d.get("adas_csv"))

    sync = None
    if d.get("sync") is not None:
        sync_d = _section(d, "sync", {"offset_seconds", "reference"})
        if set(sync_d) != {"offset_seconds", "reference"}:
            raise ValueError("sync needs both offset_seconds and reference")
        sync = SyncSpec(_float(sync_d, "offset_seconds", 0.0, "sync"), Agent(sync_d["reference"]))

    raw_d = _section(d, "raw_noise", {"sigma_trans", "gamma_yaw"})
    raw = NoiseSpec(_float(raw_d, "sigma_trans", 0.0, "raw_noise"), _float(raw_d, "gamma_yaw", 0.0, "raw_noise"))

    per_d = _section(d, "perception", {"sigma_trans", "gamma_yaw", "gate_threshold", "output_rate"})
    perception = PerceptionConfig(
        NoiseSpec(_float(per_d, "sigma_trans", 0.0, "perception"), _float(per_d, "gamma_yaw", 0.0, "perception")),
        gate_threshold=_float(per_d, "gate_threshold", 0.1, "perception"),
        output_rate=_float(per_d, "output_rate", None, "perception"),
    )

    ekf_d = _section(
        d,
        "ekf",
        {"node1_q_scale", "node2_q_scale", "smoothed_sigma_trans", "smoothed_gamma_deg",
         "perception_r6_scale", "pose_variance", "derivative_variance", "max_predict_dt",
         "predict_substep"},
    )
    ekf = EkfSettings(**ekf_d)

    eval_d = _section(d, "eval", {"alignment", "max_dt"})
    eval_cfg = EvalSettings(
        alignment=AlignmentMode(eval_d.get("alignment", "se3")),
        max_dt=_float(eval_d, "max_dt", 0.02, "eval"),
    )

    sweep = None
    if d.get("sweep") is not None:
        sweep_d = _section(d, "sweep", {"sigma_grid", "gamma_grid"})
        grids = []
        for key in ("sigma_grid", "gamma_grid"):
            values = sweep_d.get(key)
            if not isinstance(values, list):
                raise ValueError(f"sweep.{key} must be a list of numbers, got {values!r}")
            for v in values:
                _check_number(v, f"sweep.{key} entry")
            grids.append(tuple(values))
        sweep = SweepGrid(*grids)

    seeds = d.get("seeds", [0])
    if not isinstance(seeds, list):
        raise ValueError(f"seeds must be a list of integers, got {seeds!r}")
    for s in seeds:
        _check_number(s, "seeds entry", numbers.Integral)
    output_dir = d.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ValueError(f"output_dir must be a path string, got {output_dir!r}")
    return ExperimentConfig(
        input=inp,
        sync=sync,
        raw_noise=raw,
        perception=perception,
        raw_rate=_float(d, "raw_rate", None, "config"),
        ekf=ekf,
        eval=eval_cfg,
        seeds=tuple(seeds),
        sweep=sweep,
        output_dir=output_dir,
    )


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

@dataclass(frozen=True, slots=True)
class EstimateRecord:
    """World pose estimate plus 1-sigma on x, y, z and yaw."""

    pose: Pose
    sd: tuple[float, float, float, float]


@dataclass(frozen=True)
class RunArtifacts:
    """Everything a single run produces beyond the two headline stats.

    The baseline fields are None/empty when the run skipped the
    perception-off pass.
    """

    fused: ErrorStats
    baseline: ErrorStats | None
    fused_records: tuple[EstimateRecord, ...]
    baseline_records: tuple[EstimateRecord, ...]
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
) -> tuple[Pose, list[MeasurementEvent]]:
    """Noisy local-frame follower poses, the input to filter node 1."""
    (start,) = adas.poses([0])
    world_to_local = Pose(start.timestamp, start.translation, start.rotation, WORLD, LOCAL)
    local_from_world = invert(world_to_local)
    rows = slice(None)
    if cfg.raw_rate is not None:
        rows = rate_limit_indices(adas.t.tolist(), cfg.raw_rate)
    # compose(local_from_world, pose) then perturb_pose, for all samples at once
    local = compose_arrays(
        local_from_world.translation, local_from_world.rotation.as_array(), adas.p[rows], adas.q[rows]
    )
    t, q = perturb_pose(local, cfg.raw_noise, stream.derive("raw-odometry"))
    child = body_frame(adas.agent)
    events = [
        MeasurementEvent(
            stamp,
            MeasurementKind.ODOMETRY_DIFFERENTIAL,
            Pose._trusted(stamp, tk, Quaternion(*qk), LOCAL, child),
            r6=None,
            source=RAW_ODOMETRY_SOURCE,
        )
        for stamp, tk, qk in zip(adas.t[rows].tolist(), t, q.tolist())
    ]
    return world_to_local, events


def _scaled_r6(events: list[MeasurementEvent], scale: float) -> list[MeasurementEvent]:
    """The events with their covariance times ``scale``.

    Events that carry the same covariance array share one scaled copy,
    validated once by the first event that takes it.
    """
    first_with: dict[int, MeasurementEvent] = {}
    out = []
    for ev in events:
        first = first_with.get(id(ev.r6))
        if first is None:
            first = first_with[id(ev.r6)] = replace(ev, r6=ev.r6 * scale)
            out.append(first)
        else:
            out.append(replace(ev, r6=first.r6))
    return out


def _smoothed_odometry_spec(cfg: ExperimentConfig) -> NoiseSpec:
    sigma = cfg.ekf.smoothed_sigma_trans
    if sigma is None:
        sigma = max(SMOOTHED_SIGMA_RATIO * cfg.raw_noise.sigma_trans, SMOOTHED_SIGMA_FLOOR)
    gamma = cfg.ekf.smoothed_gamma_deg
    if gamma is None:
        gamma = max(SMOOTHED_GAMMA_RATIO * cfg.raw_noise.gamma_yaw, SMOOTHED_GAMMA_FLOOR)
    return NoiseSpec(sigma, gamma)


def _node_configs(
    cfg: ExperimentConfig, world_to_local: Pose, adas_start: Pose
) -> tuple[FilterNodeConfig, FilterNodeConfig]:
    s = cfg.ekf
    t0 = adas_start.timestamp
    local_start = Pose(t0, np.zeros(3), Quaternion.identity(), LOCAL, BODY_ADAS)
    # Under raw noise the local start is only known to raw accuracy.
    node1_pose_var = max(
        s.pose_variance, cfg.raw_noise.sigma_trans**2, cfg.raw_noise.gamma_yaw_rad**2
    )
    node1 = FilterNodeConfig(
        NodeId.NODE1,
        state_from_pose(local_start, node1_pose_var, s.derivative_variance),
        default_process_noise() * s.node1_q_scale,
        {MeasurementKind.ODOMETRY_DIFFERENTIAL: measurement_covariance(cfg.raw_noise)},
        max_predict_dt=s.max_predict_dt,
        predict_substep=s.predict_substep,
    )
    node2 = FilterNodeConfig(
        NodeId.NODE2,
        state_from_pose(adas_start, s.pose_variance, s.derivative_variance),
        default_process_noise() * s.node2_q_scale,
        {MeasurementKind.ODOMETRY_DIFFERENTIAL: measurement_covariance(_smoothed_odometry_spec(cfg))},
        world_to_local=world_to_local,
        max_predict_dt=s.max_predict_dt,
        predict_substep=s.predict_substep,
    )
    return node1, node2


def _record(node: EkfNode) -> EstimateRecord:
    d = node.state.P.diagonal().tolist()
    # 1-sigma on x, y, z and yaw; tiny negative rounding on the diagonal is 0
    sd = tuple(math.sqrt(v) if v > 0.0 else 0.0 for v in (d[0], d[1], d[2], d[5]))
    return EstimateRecord(node.pose_estimate(), sd)


def _run_node2(
    node2_cfg: FilterNodeConfig,
    smoothed: list[tuple[MeasurementEvent, Pose]],
    perception_events: list[MeasurementEvent],
) -> tuple[EkfNode, list[EstimateRecord]]:
    """Drive node 2 over a time-merged event stream; odometry wins stamp ties."""
    node2 = EkfNode(node2_cfg)
    records = []
    i = j = 0
    while i < len(smoothed) or j < len(perception_events):
        take_odometry = j >= len(perception_events) or (
            i < len(smoothed) and smoothed[i][0].timestamp <= perception_events[j].timestamp
        )
        if take_odometry:
            event, local_to_body = smoothed[i]
            i += 1
            node2.node2_step(event, local_to_body)
            records.append(_record(node2))
        else:
            node2.node2_step(perception_events[j])
            j += 1
    return node2, records


@contextmanager
def _collector_paused():
    """Pause Python's cyclic garbage collector for the duration of a run.

    A run allocates a few hundred thousand small objects that form no
    reference cycles (poses, events, estimate records); reference counting
    frees every one of them.  With the collector on, its full passes rescan
    all live objects several times per run, about a tenth of the run time.
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
            world_to_local, odometry_events = _simulate_raw_odometry(adas, cfg, stream)
        with _stage("simulate-perception"):
            perception_events = simulate_perception(
                smart, adas, cfg.perception, stream.derive("perception")
            )
            if cfg.ekf.perception_r6_scale != 1.0:
                perception_events = _scaled_r6(perception_events, cfg.ekf.perception_r6_scale)

        with _stage("filter"):
            node1_cfg, node2_cfg = _node_configs(cfg, world_to_local, adas.poses([0])[0])
            # Node 1 never sees perception, so one pass serves both variants.
            node1 = EkfNode(node1_cfg)
            smoothed = [(ev, node1.node1_step(ev)) for ev in odometry_events]
            fused_node, fused_records = _run_node2(node2_cfg, smoothed, perception_events)
            n_rejected = node1.rejected_count + fused_node.rejected_count
            baseline_records: list[EstimateRecord] = []
            if with_baseline:
                baseline_node, baseline_records = _run_node2(node2_cfg, smoothed, [])
                n_rejected += baseline_node.rejected_count

        with _stage("evaluate"):
            fused_stats = evaluate(
                [r.pose for r in fused_records], adas, cfg.eval.alignment, cfg.eval.max_dt
            ).stats
            baseline_stats = None
            if with_baseline:
                baseline_stats = evaluate(
                    [r.pose for r in baseline_records], adas, cfg.eval.alignment, cfg.eval.max_dt
                ).stats

        return RunArtifacts(
            fused=fused_stats,
            baseline=baseline_stats,
            fused_records=tuple(fused_records),
            baseline_records=tuple(baseline_records),
            n_odometry=len(odometry_events),
            n_perception=len(perception_events),
            n_rejected=n_rejected,
        )


def run_single(
    cfg: ExperimentConfig,
    seed: int,
    ground_truth: tuple[TrajectoryLog, TrajectoryLog] | None = None,
) -> tuple[ErrorStats, ErrorStats]:
    """Fused and odometry-only error statistics for one seed."""
    art = execute_run(cfg, seed, ground_truth)
    return art.fused, art.baseline


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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell_task, [(c, s, None) for c, s in tasks]))

    cells = []
    pooled: list[SeedResult] = []
    for (sigma, gamma, run_seeds), (results, error) in zip(layout, outcomes):
        cells.append(CellReport(sigma, gamma, run_seeds, results, error))
        for r in results:
            pooled.append(
                SeedResult(r.seed, None, r.baseline, r.n_odometry, r.n_perception, r.n_rejected)
            )
    if not pooled:
        raise DataError("every sweep cell failed; no baseline results to report")
    baseline_cell = CellReport(None, None, tuple(r.seed for r in pooled), tuple(pooled))
    cells.append(baseline_cell)

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
    pooled = tuple(
        SeedResult(r.seed, None, r.baseline, r.n_odometry, r.n_perception, r.n_rejected)
        for r in results
    )
    baseline_cell = CellReport(None, None, cfg.seeds, pooled)
    report = RunReport(
        config_to_dict(cfg), (grid_cell, baseline_cell), time.perf_counter() - t_start
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


def write_estimate_csv(records: Sequence[EstimateRecord], path) -> None:
    """Estimate trajectory with 1-sigma columns, loadable as a trajectory CSV."""
    t, q = pose_arrays([r.pose for r in records])
    stamps = [r.pose.timestamp for r in records]
    sd = np.array([r.sd for r in records], dtype=float).reshape(-1, 4)
    write_table(
        path, ["agent=adas", "convention=ENU"], ESTIMATE_COLUMNS, np.column_stack([stamps, t, q, sd])
    )
