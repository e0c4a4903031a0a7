"""The benchmark's own tests, at tiny sizes: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

IMPORT = run.import_program()

from tracer import installed_wrappers  # noqa: E402
from workloads import WORKLOADS, NoiselessLong, SparseCsv, Sweep  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "noiseless-long": NoiselessLong(duration=3.0, orient_limit_deg=1.0),
    "sweep-table": Sweep(duration=2.0, rate=50.0, seeds_per_cell=1),
    "sparse-csv": SparseCsv(duration=10.0, rate=50.0, n_seeds=2),
}


@pytest.fixture
def work(request):
    """A fresh scratch directory inside the benchmark's own work area."""
    path = run.WORK_DIR / "tests" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_tiny_set_covers_every_workload():
    assert set(TINY) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_passes_its_check_and_prints_every_end_to_end_metric(name, work):
    attempted, failed, metrics, notes = run.run_untraced(TINY[name], 3, 0.0, IMPORT, work, None)
    assert attempted >= 1 and failed == 0
    assert notes["passes"] == run.MIN_PASSES
    assert len(notes["pass_kernel_us"]) == run.MIN_PASSES
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0.0


# Metric groups expected to be missing, and execute_run calls, per tiny workload.
EXPECTED_TRACE = {
    "noiseless-long": (["cli", "ekf.node2_baseline", "evaluation.rmse_ratio"], 1),
    "sweep-table": ([], 6),
    "sparse-csv": ([], 2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_keeps_report_bytes_and_uninstalls(name, work):
    attempted, failed, metrics, notes = run.run_traced(TINY[name], 3, work, None,
                                                       work / "trace.json")
    # run_traced fails the pass when the traced report differs from the untraced one
    assert attempted >= 1 and failed == 0
    assert installed_wrappers() == []
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    missing, runs = EXPECTED_TRACE[name]
    assert notes["missing"] == missing
    assert metrics["harness.runs"]["value"] == runs
    assert metrics["ekf.node1_steps"]["value"] > 0
    # only a sweep also runs with --workers 2 (and must give the same report)
    assert (metrics["harness.pool_speedup"]["value"] > 0.0) == (name == "sweep-table")
    assert json.loads((work / "trace.json").read_text())["missing"] == missing


def test_golden_mismatch_fails_the_pass(work):
    workload = TINY["noiseless-long"]
    inputs = workload.setup(work, 0)
    _, outcome = run.timed_pass(workload, inputs, work / "out",
                                {"translation_rmse_m": 1.0, "orientation_rmse_deg": 1.0})
    assert outcome.failed == outcome.attempted == 1
    assert len(outcome.problems) == 2


def test_failing_passes_count_as_failed(work):
    # a pass that raises
    _, outcome = run.timed_pass(TINY["noiseless-long"], None, work / "crash", None)
    assert outcome is None
    # a subcommand that exits nonzero: every seed-run of the pass failed
    sweep = TINY["sweep-table"]
    _, outcome = run.timed_pass(sweep, work / "no-such-config.json", work / "exit", None)
    assert outcome.failed == outcome.attempted == 6 and outcome.problems


def test_uninstall_restores_modules_imported_during_install():
    # A fresh interpreter has not imported coloc.cli before install().
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer\n"
        "t = tracer.Tracer(); t.install(); t.uninstall()\n"
        "print(tracer.installed_wrappers())\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(run.SRC), str(BENCH_DIR)],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_speed_probe_rescales_wall_time_and_restores_the_signal_handler():
    import signal

    from speed import MIN_SAMPLES, REF_KERNEL_S, SpeedProbe

    before = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        sum(i * i for i in range(2_000_000))  # ~0.1 s of CPU: several samples
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples) >= MIN_SAMPLES
    assert 0.0 < probe.program_s <= probe.wall_s
    assert probe.reference_s == probe.program_s * REF_KERNEL_S / probe.kernel_s
