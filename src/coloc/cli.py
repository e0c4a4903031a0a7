"""Command-line front end: run, sweep, gen and eval subcommands.

Every subcommand exits 0 on success, 1 on usage problems (bad flags, invalid
configuration), 2 on data errors (unreadable or inconsistent inputs) and 3 on
numeric failures (degenerate geometry, non-finite filter state).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .dataio import TRAJECTORY_KINDS, export_trajectory, generate_synthetic, load_trajectory
from .errors import ColocError, DataError, NumericError
from .evaluation import AlignmentMode, evaluate, export_error_series
from .harness import (
    CellReport,
    ExperimentConfig,
    load_config,
    format_table,
    report_json,
    run_report,
    run_sweep,
    write_estimate_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[], help="one experiment setting over its seeds")
    run.add_argument("--config", required=True, help="experiment config (JSON)")
    run.add_argument("--out", help="output directory (overrides output_dir in the config)")
    run.add_argument(
        "--seed", action="append", type=int, help="replace the config seed list; repeatable"
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="perception-noise grid with per-cell reports")
    sweep.add_argument("--config", required=True, help="experiment config (JSON) with a sweep grid")
    sweep.add_argument("--out", help="output directory (overrides output_dir in the config)")
    sweep.add_argument(
        "--seed", action="append", type=int, help="replace the config seed list; repeatable"
    )
    sweep.add_argument("--workers", type=int, default=1, help="parallel cells (default 1)")
    sweep.set_defaults(func=_cmd_sweep)

    gen = sub.add_parser("gen", help="write a synthetic ground-truth trajectory pair")
    gen.add_argument("--kind", default="figure-eight", choices=TRAJECTORY_KINDS)
    gen.add_argument("--duration", type=float, default=60.0, help="seconds (default 60)")
    gen.add_argument("--rate", type=float, default=50.0, help="Hz (default 50)")
    gen.add_argument("--speed", type=float, default=8.0, help="m/s (default 8)")
    gen.add_argument("--gap", type=float, default=5.0, help="leader arc-length lead in m (default 5)")
    gen.add_argument("--seed", type=int, default=0, help="path seed for seeded kinds")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_gen)

    ev = sub.add_parser("eval", help="error statistics between two trajectory CSVs")
    ev.add_argument("--est", required=True, help="estimated trajectory CSV")
    ev.add_argument("--gt", required=True, help="ground-truth trajectory CSV")
    ev.add_argument(
        "--align",
        default=AlignmentMode.SE3.value,
        choices=[m.value for m in AlignmentMode],
        help="alignment before computing errors (default se3)",
    )
    ev.add_argument("--max-dt", type=float, default=0.02, help="pairing tolerance in s")
    ev.set_defaults(func=_cmd_eval)
    return parser


def _prepare_dir(path_str: str) -> Path:
    out = Path(path_str)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _load_with_overrides(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed:
        cfg = replace(cfg, seeds=tuple(args.seed))
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if cfg.output_dir is None:
        raise ValueError("no output directory: pass --out or set output_dir in the config")
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_with_overrides(args)
    out = _prepare_dir(cfg.output_dir)
    report, artifacts = run_report(cfg)
    _write_text(out / "report.json", report_json(report))
    write_estimate_csv(artifacts.fused_estimates, artifacts.fused_sd, out / "fused.csv")
    write_estimate_csv(artifacts.baseline_estimates, artifacts.baseline_sd, out / "baseline.csv")
    export_error_series(artifacts.fused, out / "errors.csv")
    fused = artifacts.fused.translation.rmse
    baseline = artifacts.baseline.translation.rmse
    print(
        f"seed {cfg.seeds[0]}: fused translation RMSE {fused:.4f} m, "
        f"odometry-only {baseline:.4f} m; outputs in {out}"
    )
    return EXIT_OK


def _cell_dir_name(cell: CellReport) -> str:
    if cell.is_baseline:
        return "wo-perception"
    return f"sigma={cell.sigma:g}_gamma={cell.gamma_deg:g}"


def _cmd_sweep(args) -> int:
    cfg = _load_with_overrides(args)
    if cfg.sweep is None:
        raise ValueError("the sweep subcommand needs a 'sweep' grid in the config")
    out = _prepare_dir(cfg.output_dir)
    report = run_sweep(cfg, workers=args.workers)
    _write_text(out / "report.json", report_json(report))
    table = format_table(report)
    _write_text(out / "table.txt", table)
    for cell, cell_dict in zip(report.cells, report.to_dict()["cells"]):
        cell_dir = _prepare_dir(str(out / _cell_dir_name(cell)))
        _write_text(cell_dir / "cell.json", json.dumps(cell_dict, sort_keys=True, indent=2) + "\n")
    print(table, end="")
    print(f"outputs in {out}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    smart, adas = generate_synthetic(
        args.kind, args.duration, args.rate, args.speed, args.seed, args.gap
    )
    out = _prepare_dir(args.out)
    export_trajectory(smart, out / "smart.csv")
    export_trajectory(adas, out / "adas.csv")
    print(f"wrote {len(smart)} samples per agent to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    est = load_trajectory(args.est)
    gt = load_trajectory(args.gt)
    result = evaluate(est, gt, AlignmentMode(args.align), args.max_dt)
    payload = result.stats.to_dict()
    payload["n_dropped"] = result.n_dropped
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ColocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
