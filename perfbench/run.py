"""coloc benchmark: time one workload, check its outputs, print the metrics.

Run from the repository root:

    python3 perfbench/run.py --workload noiseless-long --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it sets up the workload's inputs (several times, to time
set-up), then runs timed passes back to back, one at a time, while the
next pass should still end within ``--seconds`` (and at least two passes),
and prints the end-to-end metrics.  Their times are taken at a reference
machine speed (see ``speed.py``), so that runs made minutes apart on a
shared host compare.  With ``--trace 1`` it runs one untraced pass and one
traced pass and prints the per-layer metrics from the trace.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
SETUP_REPEATS = 3
MIN_PASSES = 2


def import_program() -> SpeedProbe:
    """Import coloc from this checkout's src/; returns the timing of the import."""
    if not (SRC / "coloc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no coloc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    with SpeedProbe() as probe:
        import coloc

    if Path(coloc.__file__).resolve().parent != (SRC / "coloc").resolve():
        raise SystemExit(f"perfbench: imported coloc from {coloc.__file__}, not {SRC}")
    return probe


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "coloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_pass(workload, inputs, out: Path, golden: dict | None):
    """Run one pass and check it; returns (SpeedProbe of the pass, Outcome)."""
    from workloads import Outcome, compare_golden

    gc.collect()
    probe = SpeedProbe()
    try:
        with probe:
            result = workload.run(inputs, out)
        outcome: Outcome = workload.check(inputs, result, out)
    except Exception:  # a crashing pass is a failed pass, not a crashed benchmark
        traceback.print_exc()
        return probe, None
    compare_golden(outcome, golden)
    if outcome.problems and not outcome.failed:
        outcome.failed = outcome.attempted
    for problem in outcome.problems:
        print(f"check failed: {workload.name}: {problem}", file=sys.stderr)
    return probe, outcome


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seed: int, seconds: float, import_probe: SpeedProbe, work: Path,
                 golden):
    setups = []
    inputs = None
    for k in range(SETUP_REPEATS):
        with SpeedProbe() as probe:
            inputs = workload.setup(_dir(work / f"setup-{k}"), seed)
        setups.append(probe)

    passes, outcomes = [], []
    deadline = perf_counter() + seconds
    # Start a pass only if it should end by the deadline, but run at least
    # MIN_PASSES so that even the longest workload reports a median of two.
    while len(passes) < MIN_PASSES or perf_counter() + passes[-1].wall_s <= deadline:
        out = work / f"pass-{len(passes)}"
        probe, outcome = timed_pass(workload, inputs, out, golden)
        passes.append(probe)
        outcomes.append(outcome)
        shutil.rmtree(out, ignore_errors=True)

    attempted = sum(o.attempted if o else 1 for o in outcomes)
    failed = sum(o.failed if o else 1 for o in outcomes)
    checked = [o for o in outcomes if o is not None]
    wall_ref_s = statistics.median(p.reference_s for p in passes)
    setup_s = import_probe.reference_s + statistics.median(p.reference_s for p in setups)
    first = checked[0] if checked else None
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_ref_s": metric(wall_ref_s, "s"),
        "events_per_s": metric((first.events if first else 0) / wall_ref_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "translation_rmse_m": metric(first.translation_rmse_m if first else 0.0, "m"),
        "orientation_rmse_deg": metric(first.orientation_rmse_deg if first else 0.0, "deg"),
    }
    notes = {"passes": len(passes),
             "pass_walls_s": [p.wall_s for p in passes],
             "pass_kernel_us": [p.kernel_s * 1e6 for p in passes],
             "setup_walls_s": [p.wall_s for p in setups],
             "import_wall_s": import_probe.wall_s,
             "rmse_ratio": first.rmse_ratio if first else None}
    return attempted, failed, metrics, notes


def run_traced(workload, seed: int, work: Path, golden, trace_file: Path):
    """One untraced pass, then one traced pass; per-layer metrics from the trace.

    For a sweep, one more untraced pass with ``--workers 2`` gives
    ``harness.pool_speedup`` and must produce the same report.  Times here
    are plain wall times.
    """
    from tracer import METRICS, Tracer, summarize

    inputs = workload.setup(_dir(work / "setup"), seed)
    outcomes = []
    probe_u, plain = timed_pass(workload, inputs, work / "untraced", golden)
    outcomes.append(plain)
    wall_u = probe_u.wall_s

    tracer = Tracer()
    with tracer:
        probe_t, traced = timed_pass(workload, inputs, work / "traced", golden)
    outcomes.append(traced)
    wall_t = probe_t.wall_s
    layer, missing = summarize(tracer.spans, tracer.counts)
    problems = []
    if plain and traced and plain.report != traced.report:
        problems.append("traced pass changed report.json")

    speedup = 0.0
    if hasattr(workload, "workers"):
        parallel = replace(workload, workers=2)
        probe_p, par = timed_pass(parallel, inputs, work / "parallel", golden)
        outcomes.append(par)
        speedup = wall_u / probe_p.wall_s
        if plain and par and plain.report != par.report:
            problems.append("--workers 1 and --workers 2 reports differ")

    metrics = {name: metric(float(layer[name]), unit) for name, unit in METRICS.items()}
    ratio = plain.rmse_ratio if plain is not None else None
    if ratio is None:
        ratio = 0.0
        missing = sorted(set(missing) | {"evaluation.rmse_ratio"})
    metrics.update({
        "evaluation.rmse_ratio": metric(ratio, "ratio"),
        "harness.pool_speedup": metric(speedup, "ratio"),
        "trace.wall_s": metric(wall_t, "s"),
        "trace.untraced_wall_s": metric(wall_u, "s"),
        "trace.overhead_s": metric(wall_t - wall_u, "s"),
    })
    attempted = sum(o.attempted if o else 1 for o in outcomes)
    failed = sum(o.failed if o else 1 for o in outcomes)
    if problems:
        failed = attempted
        for problem in problems:
            print(f"check failed: {workload.name}: {problem}", file=sys.stderr)
    notes = {"missing": missing, "n_spans": len(tracer.spans)}
    trace_file.write_text(json.dumps({"workload": workload.name, "seed": seed, "metrics": metrics,
                                      "missing": missing, "counts": tracer.counts,
                                      "spans": tracer.spans}),
                          encoding="utf-8")
    return attempted, failed, metrics, notes


def _dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_probe = import_program()
    from workloads import GOLDEN_GROUP, WORKLOADS, load_goldens

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    golden = load_goldens()[GOLDEN_GROUP[workload.name]].get(workload.golden_key(args.seed))
    if golden is None:
        raise SystemExit(f"perfbench: no golden values for {workload.name} seed {args.seed}")

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        if args.trace:
            attempted, failed, metrics, notes = run_traced(
                workload, args.seed, work, golden,
                WORK_DIR / f"trace-{workload.name}.json",
            )
        else:
            attempted, failed, metrics, notes = run_untraced(
                workload, args.seed, args.seconds, import_probe, work, golden
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']!r} {m['unit']}")
    print("notes: " + json.dumps(notes))
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
