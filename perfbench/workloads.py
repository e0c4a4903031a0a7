"""The benchmark's workloads: set-up, one timed pass, and the output check.

Each workload makes its inputs from the workload seed during set-up and
hands the program only those inputs.  The timed pass calls the program
through ``coloc.harness`` or ``coloc.cli.main`` looked up at call time, so a
tracer installed around the pass sees every call.

Seeded inputs come in ``VARIANTS`` variants (workload seed modulo
``VARIANTS``).  ``goldens.json`` holds, for every variant, the accuracy of
the full-size workload as ``record_goldens.py`` recorded it; the check
compares against it within ``GOLDEN_RTOL``/``GOLDEN_ATOL``.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from coloc import cli, harness
from coloc.evaluation import AlignmentMode
from coloc.harness import (
    EvalSettings,
    ExperimentConfig,
    InputConfig,
    SweepGrid,
    SyntheticSpec,
)
from coloc.noise import NoiseSpec
from coloc.perception import PerceptionConfig

VARIANTS = 16
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-9
GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

# The acceptance translation-noise table.
TABLE_GRID = SweepGrid(sigma_grid=(0.3, 0.6, 0.9), gamma_grid=(10.0, 15.0))
TABLE_SPEED = 25.0
RAW_SIGMA_M = 2.5


@dataclass
class Outcome:
    """What one pass produced, after checking it."""

    attempted: int  # seed-runs
    failed: int
    events: int  # odometry + perception events fed to the filters
    translation_rmse_m: float
    orientation_rmse_deg: float
    rmse_ratio: float | None  # fused over perception-off translation RMSE
    problems: list[str] = field(default_factory=list)
    report: bytes | None = None  # report.json with config.output_dir blanked


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run one coloc subcommand in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _write_config(cfg: ExperimentConfig, path: Path) -> Path:
    path.write_text(json.dumps(harness.config_to_dict(cfg), indent=2) + "\n", encoding="utf-8")
    return path


def _normalized_report(path: Path) -> bytes:
    report = json.loads(path.read_text(encoding="utf-8"))
    report["config"]["output_dir"] = None
    return json.dumps(report, sort_keys=True, indent=2).encode("utf-8")


def compare_golden(outcome: Outcome, golden: dict | None) -> None:
    """Append a problem for every accuracy figure that left its golden value."""
    if golden is None:
        return
    for key, expected in golden.items():
        got = getattr(outcome, key)
        if got is None or not abs(got - expected) <= GOLDEN_RTOL * abs(expected) + GOLDEN_ATOL:
            outcome.problems.append(f"{key} {got!r} != golden {expected!r}")


@dataclass(frozen=True)
class NoiselessLong:
    """Acceptance criterion 1: one noiseless run, fused pass only."""

    name: str = "noiseless-long"
    duration: float = 120.0
    rate: float = 200.0
    # Acceptance criterion 1 limits (tests/test_acceptance.py).  They hold
    # for the full 120 s run; the start-up transient dominates short runs.
    trans_limit_m: float = 1e-3
    orient_limit_deg: float = 0.01

    def setup(self, work: Path, seed: int) -> ExperimentConfig:
        # The inputs do not depend on the seed: this is the fixed headline run.
        return ExperimentConfig(
            input=InputConfig(
                synthetic=SyntheticSpec(kind="figure-eight", duration=self.duration, rate=self.rate)
            )
        )

    def golden_key(self, seed: int) -> str:
        return "0"

    def run(self, cfg: ExperimentConfig, out: Path):
        return harness.execute_run(cfg, 0, with_baseline=False)

    def check(self, cfg: ExperimentConfig, art, out: Path) -> Outcome:
        n = int(math.floor(self.duration * self.rate + 1e-9))
        trans, orient = art.fused.translation.rmse, art.fused.orientation.rmse
        outcome = Outcome(1, 0, art.n_odometry + art.n_perception, trans, orient, None)
        if not trans < self.trans_limit_m:
            outcome.problems.append(f"translation RMSE {trans!r} m >= {self.trans_limit_m}")
        if not orient < self.orient_limit_deg:
            outcome.problems.append(f"orientation RMSE {orient!r} deg >= {self.orient_limit_deg}")
        if (art.n_odometry, art.n_perception) != (n, n):
            outcome.problems.append(
                f"events {art.n_odometry} odometry / {art.n_perception} perception, "
                f"expected {n} each"
            )
        return outcome


@dataclass(frozen=True)
class Sweep:
    """`coloc sweep` on the acceptance translation-noise table."""

    name: str = "sweep-table"
    workers: int = 1
    duration: float = 8.0
    rate: float = 100.0
    seeds_per_cell: int = 2

    def setup(self, work: Path, seed: int) -> Path:
        v = seed % VARIANTS
        cfg = ExperimentConfig(
            input=InputConfig(
                synthetic=SyntheticSpec(
                    kind="figure-eight", duration=self.duration, rate=self.rate, speed=TABLE_SPEED
                )
            ),
            raw_noise=NoiseSpec(RAW_SIGMA_M, 0.0),
            seeds=tuple(v * self.seeds_per_cell + k for k in range(self.seeds_per_cell)),
            sweep=TABLE_GRID,
        )
        return _write_config(cfg, work / "sweep.json")

    def golden_key(self, seed: int) -> str:
        return str(seed % VARIANTS)

    def run(self, cfg_path: Path, out: Path) -> int:
        code, _ = _quiet_cli(
            ["sweep", "--config", cfg_path, "--out", out, "--workers", self.workers]
        )
        return code

    def check(self, cfg_path: Path, code: int, out: Path) -> Outcome:
        n_cells = len(TABLE_GRID.sigma_grid) * len(TABLE_GRID.gamma_grid)
        attempted = n_cells * self.seeds_per_cell
        if code != 0:
            return Outcome(attempted, attempted, 0, 0.0, 0.0, None,
                           [f"coloc sweep exited {code}"])
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        grid = [c for c in report["cells"] if c["sigma"] is not None]
        baseline = next(c for c in report["cells"] if c["sigma"] is None)
        ok = [c for c in grid if c["error"] is None]
        fused = [c["aggregate"]["fused"] for c in ok]
        trans = sum(f["translation_rmse_m"] for f in fused) / max(len(fused), 1)
        orient = sum(f["orientation_rmse_deg"] for f in fused) / max(len(fused), 1)
        base = baseline["aggregate"]["baseline"]["translation_rmse_m"]
        events = sum(r["n_odometry"] + r["n_perception"] for c in ok for r in c["per_seed"])
        outcome = Outcome(attempted, (len(grid) - len(ok)) * self.seeds_per_cell, events,
                          trans, orient, trans / base,
                          report=_normalized_report(out / "report.json"))
        if len(grid) != n_cells or outcome.failed:
            outcome.problems.append(f"{len(ok)} of {n_cells} cells succeeded")
        if any(len(c["per_seed"]) != self.seeds_per_cell for c in ok):
            outcome.problems.append("a cell is missing seed results")
        expected = ["table.txt"] + [
            f"sigma={s:g}_gamma={g:g}/cell.json"
            for s in TABLE_GRID.sigma_grid for g in TABLE_GRID.gamma_grid
        ] + ["wo-perception/cell.json"]
        absent = [p for p in expected if not (out / p).is_file()]
        if absent:
            outcome.problems.append(f"missing outputs: {absent}")
        return outcome


@dataclass(frozen=True)
class SparseInputs:
    config: Path
    adas_csv: Path


@dataclass(frozen=True)
class SparseCsv:
    """Generated CSV ground truth, sparse odometry and perception, then `coloc eval`."""

    name: str = "sparse-csv"
    duration: float = 120.0
    rate: float = 200.0
    n_seeds: int = 3

    def setup(self, work: Path, seed: int) -> SparseInputs:
        v = seed % VARIANTS
        gt = work / "gt"
        code, _ = _quiet_cli(["gen", "--kind", "waypoint-spline", "--duration", self.duration,
                              "--rate", self.rate, "--seed", v, "--out", gt])
        if code != 0:
            raise RuntimeError(f"coloc gen exited {code}")
        cfg = ExperimentConfig(
            input=InputConfig(smart_csv=str(gt / "smart.csv"), adas_csv=str(gt / "adas.csv")),
            raw_noise=NoiseSpec(RAW_SIGMA_M, 0.5),
            perception=PerceptionConfig(NoiseSpec(0.6, 10.0), output_rate=2.0),
            raw_rate=10.0,
            eval=EvalSettings(alignment=AlignmentMode.YAW_ONLY),
            seeds=tuple(v * self.n_seeds + k for k in range(self.n_seeds)),
        )
        return SparseInputs(_write_config(cfg, work / "run.json"), gt / "adas.csv")

    def golden_key(self, seed: int) -> str:
        return str(seed % VARIANTS)

    def run(self, inputs: SparseInputs, out: Path) -> tuple[int, int, str]:
        run_code, _ = _quiet_cli(["run", "--config", inputs.config, "--out", out])
        if run_code != 0:
            return run_code, -1, ""
        eval_code, eval_out = _quiet_cli(
            ["eval", "--est", out / "fused.csv", "--gt", inputs.adas_csv, "--align", "yaw"]
        )
        return run_code, eval_code, eval_out

    def check(self, inputs: SparseInputs, result: tuple[int, int, str], out: Path) -> Outcome:
        run_code, eval_code, eval_out = result
        if run_code != 0 or eval_code != 0:
            return Outcome(self.n_seeds, self.n_seeds, 0, 0.0, 0.0, None,
                           [f"coloc run exited {run_code}, coloc eval exited {eval_code}"])
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        cell = report["cells"][0]
        agg = cell["aggregate"]
        events = sum(r["n_odometry"] + r["n_perception"] for r in cell["per_seed"])
        outcome = Outcome(self.n_seeds, 0, events, agg["fused"]["translation_rmse_m"],
                          agg["fused"]["orientation_rmse_deg"], agg["translation_rmse_ratio"],
                          report=_normalized_report(out / "report.json"))
        if cell["error"] is not None or len(cell["per_seed"]) != self.n_seeds:
            outcome.failed = self.n_seeds
            outcome.problems.append(f"run cell error {cell['error']!r}")
        seed0 = cell["per_seed"][0]["fused"]["translation_m"]["rmse"]
        evaluated = json.loads(eval_out)["translation_m"]["rmse"]
        if evaluated != seed0:
            outcome.problems.append(
                f"coloc eval RMSE {evaluated!r} != report seed-0 fused RMSE {seed0!r}"
            )
        for name in ("fused.csv", "baseline.csv", "errors.csv"):
            if not (out / name).is_file():
                outcome.problems.append(f"missing output {name}")
        return outcome


WORKLOADS = {
    w.name: w
    for w in (
        NoiselessLong(),
        Sweep(),
        SparseCsv(),
    )
}

# Key of each workload's table in goldens.json.
GOLDEN_GROUP = {
    "noiseless-long": "noiseless-long",
    "sweep-table": "sweep",
    "sparse-csv": "sparse-csv",
}
