"""Experiment-harness tests.

Oracles here are structural rather than numeric: determinism claims are
checked by running the pipeline twice and comparing outputs bitwise, the
matched-noise claim by varying exactly one channel and asserting the other
output is byte-for-byte unchanged, and the config round trip by comparing
against the source dataclasses field by field.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from coloc.dataio import SyncSpec, export_trajectory, generate_synthetic, load_trajectory
from coloc.errors import DataError
from coloc.evaluation import AlignmentMode
from coloc.geometry import Agent
from coloc.harness import (
    CellReport,
    EkfSettings,
    EvalSettings,
    ExperimentConfig,
    InputConfig,
    RunReport,
    SeedResult,
    SweepGrid,
    SyntheticSpec,
    _run_cell_task,
    cell_aggregate,
    config_from_dict,
    config_to_dict,
    derive_run_seed,
    execute_run,
    format_table,
    load_config,
    report_json,
    run_report,
    run_single,
    run_sweep,
    write_estimate_csv,
)
from coloc.noise import NoiseSpec
from coloc.perception import PerceptionConfig


def synthetic_config(duration=10.0, rate=20.0, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        input=InputConfig(synthetic=SyntheticSpec(duration=duration, rate=rate)), **kwargs
    )


def noisy_config(**kwargs) -> ExperimentConfig:
    return synthetic_config(
        raw_noise=NoiseSpec(2.5, 0.0),
        perception=PerceptionConfig(NoiseSpec(0.3, 10.0)),
        **kwargs,
    )


def full_config() -> ExperimentConfig:
    """Every field away from its default, for round-trip coverage."""
    return ExperimentConfig(
        input=InputConfig(synthetic=SyntheticSpec("circle", 12.0, 25.0, 6.0, 3.0, 4)),
        sync=SyncSpec(0.25, Agent.ADAS),
        raw_noise=NoiseSpec(1.5, 0.5),
        perception=PerceptionConfig(NoiseSpec(0.4, 8.0), gate_threshold=0.05, output_rate=5.0),
        raw_rate=12.5,
        ekf=EkfSettings(
            node1_q_scale=2.0,
            node2_q_scale=0.5,
            smoothed_sigma_trans=0.33,
            smoothed_gamma_deg=0.75,
            perception_r6_scale=3.0,
            pose_variance=1e-5,
            derivative_variance=500.0,
            max_predict_dt=0.5,
            predict_substep=0.05,
        ),
        eval=EvalSettings(alignment=AlignmentMode.YAW_ONLY, max_dt=0.04),
        seeds=(3, 5, 8),
        sweep=SweepGrid((0.3, 0.6), (10.0, 15.0)),
        output_dir="out/exp1",
    )


def write_gt_pair(tmp_path, duration=6.0, rate=10.0):
    smart, adas = generate_synthetic("figure-eight", duration, rate, 8.0)
    smart_path, adas_path = tmp_path / "smart.csv", tmp_path / "adas.csv"
    export_trajectory(smart, smart_path)
    export_trajectory(adas, adas_path)
    return smart_path, adas_path


def same_records(a, b) -> bool:
    """Bitwise record-stream equality (Pose holds arrays, so == won't do)."""
    return len(a) == len(b) and all(
        ra.pose.timestamp == rb.pose.timestamp
        and np.array_equal(ra.pose.translation, rb.pose.translation)
        and ra.pose.rotation == rb.pose.rotation
        and ra.sd == rb.sd
        for ra, rb in zip(a, b)
    )


# ---------------------------------------------------------------------------
# Config serialization
# ---------------------------------------------------------------------------

class TestConfigRoundTrip:
    def test_defaults_round_trip(self):
        cfg = synthetic_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_every_field_round_trips(self):
        cfg = full_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_csv_input_round_trips(self):
        cfg = ExperimentConfig(input=InputConfig(smart_csv="a.csv", adas_csv="b.csv"))
        back = config_from_dict(config_to_dict(cfg))
        assert back.input.smart_csv == "a.csv"
        assert back.input.adas_csv == "b.csv"
        assert back.input.synthetic is None

    def test_dict_is_json_serializable(self):
        text = json.dumps(config_to_dict(full_config()))
        assert config_from_dict(json.loads(text)) == full_config()

    def test_unknown_top_level_key_rejected(self):
        d = config_to_dict(synthetic_config())
        d["grvity"] = 9.81
        with pytest.raises(ValueError, match="grvity"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "section", ["input", "raw_noise", "perception", "ekf", "eval", "sweep", "sync"]
    )
    def test_unknown_nested_key_rejected(self, section):
        d = config_to_dict(full_config())
        d[section]["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            config_from_dict(d)

    def test_unknown_synthetic_key_rejected(self):
        d = config_to_dict(synthetic_config())
        d["input"]["synthetic"]["warp"] = 9
        with pytest.raises(ValueError, match="warp"):
            config_from_dict(d)

    def test_missing_input_rejected(self):
        with pytest.raises(ValueError, match="input"):
            config_from_dict({"seeds": [1]})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict([1, 2, 3])

    def test_load_config_round_trips(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config_to_dict(full_config())), encoding="utf-8")
        assert load_config(path) == full_config()

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError, match="not valid JSON"):
            load_config(path)


class TestConfigValidation:
    def test_input_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="not both"):
            InputConfig(smart_csv="a.csv", adas_csv="b.csv", synthetic=SyntheticSpec())
        with pytest.raises(ValueError, match="not both"):
            InputConfig()

    def test_csv_pair_requires_both(self):
        with pytest.raises(ValueError, match="both"):
            InputConfig(smart_csv="a.csv")

    @pytest.mark.parametrize("field_name", ["node1_q_scale", "perception_r6_scale", "pose_variance"])
    def test_ekf_positive_fields(self, field_name):
        with pytest.raises(ValueError, match=field_name):
            EkfSettings(**{field_name: 0.0})

    def test_smoothed_overrides_may_be_zero_but_not_negative(self):
        EkfSettings(smoothed_sigma_trans=0.0, smoothed_gamma_deg=0.0)
        with pytest.raises(ValueError, match="smoothed_sigma_trans"):
            EkfSettings(smoothed_sigma_trans=-0.1)

    def test_sweep_grid_rejects_empty_and_negative(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepGrid((), (10.0,))
        with pytest.raises(ValueError, match="finite"):
            SweepGrid((0.3,), (-1.0,))

    def test_at_least_one_seed(self):
        with pytest.raises(ValueError, match="seed"):
            synthetic_config(seeds=())

    def test_raw_rate_positive(self):
        with pytest.raises(ValueError, match="raw_rate"):
            synthetic_config(raw_rate=0.0)


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

class TestExecuteRun:
    def test_identical_across_invocations(self):
        cfg = noisy_config()
        a = execute_run(cfg, 11)
        b = execute_run(cfg, 11)
        assert a.fused == b.fused
        assert a.baseline == b.baseline
        assert same_records(a.fused_records, b.fused_records)

    def test_seed_changes_noisy_outcome(self):
        cfg = noisy_config()
        a = execute_run(cfg, 11)
        b = execute_run(cfg, 12)
        assert a.fused.translation.rmse != b.fused.translation.rmse

    def test_noiseless_run_is_tight(self):
        art = execute_run(synthetic_config(), 0)
        assert art.fused.translation.rmse < 0.05
        assert art.fused.orientation.rmse < 2.0
        assert art.n_rejected == 0

    def test_fused_beats_baseline_under_raw_noise(self):
        fused, baseline = run_single(noisy_config(), 7)
        assert fused.translation.rmse < 0.5 * baseline.translation.rmse

    def test_baseline_immune_to_perception_settings(self):
        # matched noise: the perception channel draws from its own labeled
        # stream, so the odometry-only result cannot depend on it
        quiet = noisy_config()
        loud = replace(
            quiet, perception=PerceptionConfig(NoiseSpec(0.9, 15.0), output_rate=3.0)
        )
        _, base_quiet = run_single(quiet, 7)
        _, base_loud = run_single(loud, 7)
        assert base_quiet == base_loud

    def test_with_baseline_false_skips_the_second_pass(self):
        cfg = noisy_config()
        both = execute_run(cfg, 7)
        only = execute_run(cfg, 7, with_baseline=False)
        assert only.baseline is None
        assert only.baseline_records == ()
        assert only.fused == both.fused

    def test_raw_rate_decimates_odometry(self):
        art = execute_run(synthetic_config(raw_rate=5.0), 0)
        assert art.n_odometry == 50  # 10 s at 5 Hz
        assert art.n_perception == 200

    def test_substepped_prediction_accepts_coincident_events(self):
        # Every odometry and perception event is reached by several short
        # prediction substeps, and odometry shares its stamps with perception:
        # the filter clock must land on each stamp exactly.
        cfg = noisy_config(raw_rate=10.0, ekf=EkfSettings(max_predict_dt=0.03, predict_substep=0.01))
        art = execute_run(cfg, 0)
        assert art.n_rejected == 0
        assert art.n_perception == 200

    def test_perception_rate_decimates_channel(self):
        cfg = synthetic_config(perception=PerceptionConfig(NoiseSpec(0.0, 0.0), output_rate=2.0))
        art = execute_run(cfg, 0)
        assert art.n_perception == 20
        assert art.n_odometry == 200

    def test_sync_offset_beyond_gate_silences_perception(self):
        cfg = synthetic_config(sync=SyncSpec(500.0, Agent.ADAS))
        art = execute_run(cfg, 0)
        assert art.n_perception == 0
        # without perception events the fused pass degenerates to the baseline
        assert art.fused == art.baseline

    def test_ingest_error_names_the_stage(self, tmp_path):
        cfg = ExperimentConfig(
            input=InputConfig(
                smart_csv=str(tmp_path / "missing_a.csv"),
                adas_csv=str(tmp_path / "missing_b.csv"),
            )
        )
        with pytest.raises(DataError, match=r"\[ingest\]"):
            execute_run(cfg, 0)

    def test_agent_mismatch_rejected(self, tmp_path):
        _, adas_path = write_gt_pair(tmp_path)
        cfg = ExperimentConfig(
            input=InputConfig(smart_csv=str(adas_path), adas_csv=str(adas_path))
        )
        with pytest.raises(DataError, match="expected a smart and an adas log"):
            execute_run(cfg, 0)

    def test_too_short_ground_truth_rejected(self, tmp_path):
        smart, adas = generate_synthetic("figure-eight", 6.0, 10.0, 8.0)
        short = replace(adas, t=adas.t[:1], p=adas.p[:1], q=adas.q[:1])
        smart_path, adas_path = tmp_path / "smart.csv", tmp_path / "adas.csv"
        export_trajectory(smart, smart_path)
        export_trajectory(short, adas_path)
        cfg = ExperimentConfig(input=InputConfig(smart_csv=str(smart_path), adas_csv=str(adas_path)))
        with pytest.raises(DataError, match="too short"):
            execute_run(cfg, 0)

    def test_csv_and_synthetic_inputs_agree(self, tmp_path):
        smart_path, adas_path = write_gt_pair(tmp_path, duration=10.0, rate=20.0)
        from_csv = ExperimentConfig(
            input=InputConfig(smart_csv=str(smart_path), adas_csv=str(adas_path)),
            raw_noise=NoiseSpec(2.5, 0.0),
            perception=PerceptionConfig(NoiseSpec(0.3, 10.0)),
        )
        art_csv = execute_run(from_csv, 7)
        art_syn = execute_run(noisy_config(), 7)
        # the CSV round trip is lossless, so the pipelines see identical inputs
        assert art_csv.fused == art_syn.fused
        assert art_csv.baseline == art_syn.baseline


class TestPoseObjectsOnlyForPerception:
    """The run path reads the logs' arrays; only perception turns whole logs into poses."""

    @pytest.fixture
    def built(self, monkeypatch):
        from coloc import harness
        from coloc.dataio import TrajectoryLog

        built = []
        samples = TrajectoryLog.samples

        def counted(log):
            built.append(log)
            return samples.func(log)

        monkeypatch.setattr(TrajectoryLog, "samples", property(counted))
        monkeypatch.setattr(harness, "simulate_perception", lambda *args: [])
        return built

    def test_execute_run(self, built):
        execute_run(noisy_config(raw_rate=10.0), 0)
        assert built == []

    def test_run_sweep(self, built):
        run_sweep(noisy_config(seeds=(0, 1), sweep=SweepGrid((0.3,), (10.0,))))
        assert built == []

    def test_csv_ground_truth(self, built, tmp_path):
        smart_path, adas_path = write_gt_pair(tmp_path)
        run_report(ExperimentConfig(input=InputConfig(smart_csv=str(smart_path), adas_csv=str(adas_path))))
        assert built == []


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

class TestDeriveRunSeed:
    def test_pure_function(self):
        assert derive_run_seed(3, 1, 2, 0) == derive_run_seed(3, 1, 2, 0)

    def test_uint64_range(self):
        for args in [(0, 0, 0, 0), (2**62, 9, 9, 9), (-5, 1, 1, 1)]:
            v = derive_run_seed(*args)
            assert 0 <= v < 2**64

    def test_every_index_matters(self):
        base = derive_run_seed(3, 1, 2, 0)
        assert derive_run_seed(4, 1, 2, 0) != base
        assert derive_run_seed(3, 2, 2, 0) != base
        assert derive_run_seed(3, 1, 3, 0) != base
        assert derive_run_seed(3, 1, 2, 1) != base

    def test_no_collisions_over_small_grid(self):
        seeds = {
            derive_run_seed(b, si, gi, ri)
            for b in range(3)
            for si in range(4)
            for gi in range(4)
            for ri in range(3)
        }
        assert len(seeds) == 3 * 4 * 4 * 3


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep_config(sigmas=(0.3, 0.6), gammas=(10.0,), seeds=(3,)) -> ExperimentConfig:
    return ExperimentConfig(
        input=InputConfig(synthetic=SyntheticSpec(duration=6.0, rate=10.0)),
        raw_noise=NoiseSpec(2.5, 0.0),
        seeds=seeds,
        sweep=SweepGrid(sigmas, gammas),
    )


class TestRunSweep:
    def test_cell_layout(self):
        report = run_sweep(sweep_config((0.3, 0.6), (10.0, 15.0)))
        assert len(report.cells) == 2 * 2 + 1
        grid = report.grid_cells()
        assert {(c.sigma, c.gamma_deg) for c in grid} == {
            (0.3, 10.0), (0.6, 10.0), (0.3, 15.0), (0.6, 15.0)
        }
        assert report.baseline_cell().is_baseline

    def test_run_seeds_follow_derivation(self):
        cfg = sweep_config((0.3, 0.6), (10.0, 15.0), seeds=(3, 5))
        report = run_sweep(cfg)
        for cell in report.grid_cells():
            si = cfg.sweep.sigma_grid.index(cell.sigma)
            gi = cfg.sweep.gamma_grid.index(cell.gamma_deg)
            expected = tuple(derive_run_seed(b, si, gi, ri) for ri, b in enumerate(cfg.seeds))
            assert cell.run_seeds == expected
            assert tuple(r.seed for r in cell.results) == expected

    def test_baseline_cell_pools_every_run(self):
        cfg = sweep_config((0.3, 0.6), (10.0,), seeds=(3, 5))
        report = run_sweep(cfg)
        baseline = report.baseline_cell()
        assert len(baseline.results) == 2 * 1 * 2
        assert all(r.fused is None for r in baseline.results)

    def test_existing_cells_survive_grid_growth(self):
        small = run_sweep(sweep_config((0.3,), (10.0,)))
        grown = run_sweep(sweep_config((0.3, 0.6), (10.0, 15.0)))
        pick = lambda rep: next(
            c for c in rep.grid_cells() if (c.sigma, c.gamma_deg) == (0.3, 10.0)
        )
        assert pick(small).run_seeds == pick(grown).run_seeds
        assert pick(small).results == pick(grown).results

    def test_existing_cells_survive_extra_seeds(self):
        one = run_sweep(sweep_config(seeds=(3,)))
        two = run_sweep(sweep_config(seeds=(3, 5)))
        for c1, c2 in zip(one.grid_cells(), two.grid_cells()):
            assert c1.results == c2.results[: len(c1.results)]

    def test_report_bytes_are_reproducible(self):
        cfg = sweep_config()
        assert report_json(run_sweep(cfg)) == report_json(run_sweep(cfg))

    def test_workers_match_sequential_bytes(self):
        cfg = sweep_config()
        assert report_json(run_sweep(cfg, workers=2)) == report_json(run_sweep(cfg, workers=1))

    def test_requires_grid(self):
        with pytest.raises(ValueError, match="sweep grid"):
            run_sweep(synthetic_config())

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(sweep_config(), workers=0)

    def test_all_cells_failing_raises(self, tmp_path):
        cfg = ExperimentConfig(
            input=InputConfig(
                smart_csv=str(tmp_path / "none_a.csv"), adas_csv=str(tmp_path / "none_b.csv")
            ),
            sweep=SweepGrid((0.3,), (10.0,)),
        )
        with pytest.raises(DataError):
            run_sweep(cfg, workers=2)

    def test_cell_failure_is_recorded_as_data(self, tmp_path):
        cfg = ExperimentConfig(
            input=InputConfig(
                smart_csv=str(tmp_path / "none_a.csv"), adas_csv=str(tmp_path / "none_b.csv")
            )
        )
        results, error = _run_cell_task((cfg, (1, 2), None))
        assert results == ()
        assert error is not None and "DataError" in error


class TestRunReport:
    def test_two_cells_and_artifacts(self):
        cfg = noisy_config(seeds=(3, 5))
        report, artifacts = run_report(cfg)
        assert len(report.cells) == 2
        grid = report.grid_cells()[0]
        assert (grid.sigma, grid.gamma_deg) == (0.3, 10.0)
        assert grid.run_seeds == (3, 5)
        assert len(report.baseline_cell().results) == 2
        # estimates are recorded at the odometry cadence; perception updates
        # land in the state and show up at the next odometry step
        assert len(artifacts.fused_records) == artifacts.n_odometry
        assert len(artifacts.baseline_records) == artifacts.n_odometry

    def test_report_bytes_are_reproducible(self):
        cfg = noisy_config()
        r1, _ = run_report(cfg)
        r2, _ = run_report(cfg)
        assert report_json(r1) == report_json(r2)


# ---------------------------------------------------------------------------
# Report structure
# ---------------------------------------------------------------------------

def tiny_report() -> RunReport:
    report, _ = run_report(noisy_config())
    return report


class TestReportStructure:
    def test_wall_clock_never_reaches_json(self):
        report = tiny_report()
        assert report.wall_clock_s > 0.0
        assert "wall_clock" not in report_json(report)

    def test_version_and_config_echoed(self):
        from coloc import __version__

        d = json.loads(report_json(tiny_report()))
        assert d["version"] == __version__
        assert config_from_dict(d["config"]) == noisy_config()

    def test_exactly_one_baseline_cell_enforced(self):
        report = tiny_report()
        with pytest.raises(ValueError, match="exactly one"):
            RunReport(report.config, report.grid_cells(), 0.0)
        with pytest.raises(ValueError, match="exactly one"):
            RunReport(
                report.config, (report.baseline_cell(), report.baseline_cell()), 0.0
            )

    def test_cell_needs_results_or_error(self):
        with pytest.raises(ValueError, match="at least one"):
            CellReport(0.3, 10.0, (), ())
        CellReport(0.3, 10.0, (), (), error="DataError: boom")  # fine

    def test_aggregate_ratio(self):
        report = tiny_report()
        agg = cell_aggregate(report.grid_cells()[0])
        fused = agg["fused"]["translation_rmse_m"]
        baseline = agg["baseline"]["translation_rmse_m"]
        assert agg["translation_rmse_ratio"] == pytest.approx(fused / baseline)

    def test_failed_cell_aggregate_is_empty(self):
        agg = cell_aggregate(CellReport(0.3, 10.0, (1,), (), error="DataError: boom"))
        assert agg == {"fused": None, "baseline": None, "translation_rmse_ratio": None}


class TestFormatTable:
    def test_blocks_rows_and_columns(self):
        text = format_table(run_sweep(sweep_config((0.3, 0.6), (10.0, 15.0))))
        assert "Translation RMSE [m]" in text
        assert "Orientation RMSE [deg]" in text
        assert "sigma=0.3 m" in text and "sigma=0.6 m" in text
        assert "gamma=10 deg" in text and "gamma=15 deg" in text
        assert "w/o perception" in text

    def test_failed_cell_rendered(self):
        report = run_sweep(sweep_config((0.3,), (10.0,)))
        broken = CellReport(0.3, 10.0, (1,), (), error="DataError: boom")
        patched = RunReport(report.config, (broken, report.baseline_cell()), 0.0)
        assert "failed" in format_table(patched)


# ---------------------------------------------------------------------------
# Estimate CSV
# ---------------------------------------------------------------------------

class TestWriteEstimateCsv:
    def test_round_trips_through_trajectory_loader(self, tmp_path):
        art = execute_run(noisy_config(), 3)
        path = tmp_path / "fused.csv"
        write_estimate_csv(art.fused_records, path)
        log = load_trajectory(path)
        assert log.agent is Agent.ADAS
        assert len(log) == len(art.fused_records)
        for loaded, rec in zip(log.samples, art.fused_records):
            assert loaded.timestamp == rec.pose.timestamp
            assert np.array_equal(loaded.translation, rec.pose.translation)

    def test_sd_columns_present(self, tmp_path):
        art = execute_run(noisy_config(), 3)
        path = tmp_path / "fused.csv"
        write_estimate_csv(art.fused_records, path)
        header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
        assert header.split(",")[-4:] == ["sx", "sy", "sz", "syaw"]
