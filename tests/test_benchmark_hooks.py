"""The names the benchmark's tracer hooks into must exist in the package.

``perfbench/tracer.py`` wraps functions and methods it looks up by name, and
reads a few sizes off their arguments and results.  A rename or deletion on
the program side would blind a traced benchmark run, so these tests read the
tracer's tables and check them against ``coloc`` here, in tier-1.
"""

import importlib.util
from pathlib import Path

import pytest

import coloc
from coloc import harness
from coloc.harness import ExperimentConfig, InputConfig, SyntheticSpec
from coloc.noise import NoiseSpec
from coloc.perception import PerceptionConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    for module_name, attr, _ in tracer.TARGETS + tracer.COUNTED:
        _, _, original = tracer._resolve(module_name, attr)
        assert callable(original), f"{module_name}.{attr}"


def test_every_exported_name_exists():
    assert [name for name in coloc.__all__ if not hasattr(coloc, name)] == []


def test_traced_run_reports_pairing_and_association(tracer):
    cfg = ExperimentConfig(
        input=InputConfig(synthetic=SyntheticSpec(kind="figure-eight", duration=2.0, rate=50.0)),
        perception=PerceptionConfig(NoiseSpec(0.3, 5.0), output_rate=10.0),
    )
    t = tracer.Tracer()
    with t:
        harness.execute_run(cfg, 0)  # looked up at call time, as the benchmark does
    assert tracer.installed_wrappers() == []
    metrics, missing = tracer.summarize(t.spans, t.counts)
    assert missing == ["cli"]
    for name in (
        "perception.pair_s",
        "perception.pair_yield",
        "perception.emit_ratio",
        "evaluation.associate_s",
        "evaluation.match_ratio",
    ):
        assert metrics[name] > 0.0, name


def test_traced_run_counts_every_filter_step(tracer):
    # one node-1 step per odometry row; the fused node-2 pass steps once per
    # odometry and perception row, the baseline pass once per odometry row
    cfg = ExperimentConfig(
        input=InputConfig(synthetic=SyntheticSpec(kind="figure-eight", duration=2.0, rate=50.0)),
        perception=PerceptionConfig(NoiseSpec(0.3, 5.0), output_rate=10.0),
    )
    t = tracer.Tracer()
    with t:
        art = harness.execute_run(cfg, 0)
    metrics, _ = tracer.summarize(t.spans, t.counts)
    assert art.n_odometry > 0 and art.n_perception > 0
    assert metrics["ekf.node1_steps"] == art.n_odometry
    assert metrics["ekf.node2_fused_steps"] == art.n_odometry + art.n_perception
    assert metrics["ekf.node2_baseline_steps"] == art.n_odometry
