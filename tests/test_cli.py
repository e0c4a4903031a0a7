"""Command-line interface tests.

Each subcommand is exercised through main() in-process; the documented exit
codes (0 ok, 1 usage, 2 data, 3 numeric) are checked against handcrafted
failure inputs for each class.
"""

import json

import pytest

from coloc.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from coloc.dataio import load_trajectory
from coloc.geometry import Agent


def write_config(tmp_path, **extra):
    payload = {
        "input": {"synthetic": {"kind": "figure-eight", "duration": 6.0, "rate": 10.0}},
        "raw_noise": {"sigma_trans": 2.5, "gamma_yaw": 0.0},
        "perception": {"sigma_trans": 0.3, "gamma_yaw": 10.0},
        "seeds": [3],
    }
    payload.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def gen_pair(tmp_path, kind="figure-eight"):
    out = tmp_path / f"gt-{kind}"
    assert main(["gen", "--kind", kind, "--duration", "6", "--rate", "10", "--out", str(out)]) == EXIT_OK
    return out / "smart.csv", out / "adas.csv"


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

class TestGen:
    def test_writes_loadable_pair(self, tmp_path):
        smart_path, adas_path = gen_pair(tmp_path)
        smart, adas = load_trajectory(smart_path), load_trajectory(adas_path)
        assert smart.agent is Agent.SMART
        assert adas.agent is Agent.ADAS
        assert len(smart) == len(adas) == 60

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--kind", "hexagon", "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_duration_is_usage_error(self, tmp_path):
        rc = main(["gen", "--duration", "-3", "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [
        ("--duration", "inf"), ("--rate", "inf"), ("--speed", "inf"), ("--gap", "nan"), ("--gap", "inf"),
    ])
    def test_non_finite_spec_is_usage_error(self, tmp_path, capsys, flag, value):
        rc = main(["gen", flag, value, "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

class TestRun:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["cells"]) == 2
        fused = load_trajectory(out / "fused.csv")
        baseline = load_trajectory(out / "baseline.csv")
        assert len(fused) == len(baseline) == 60
        header = (out / "errors.csv").read_text().splitlines()[0]
        assert header == "t,e_trans_m,e_rot_deg"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out), "--seed", "7", "--seed", "9"])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seeds"] == [7, 9]

    def test_out_flag_optional_when_config_has_output_dir(self, tmp_path):
        out = tmp_path / "from-config"
        cfg = write_config(tmp_path, output_dir=str(out))
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert (out / "report.json").exists()

    def test_no_output_dir_anywhere_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "output directory" in capsys.readouterr().err

    def test_missing_config_is_data_error(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input": {"synthetic": {}}, "gravty": 1}), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "gravty" in capsys.readouterr().err

    def test_invalid_json_is_data_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_DATA

    def test_non_utf8_config_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"input": {"synthetic": {}}}\xff')
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_numeric_failure_in_a_later_filter_block_exits_3(self, tmp_path, capsys, monkeypatch):
        from coloc import harness
        from coloc.ekf import EkfNode
        from coloc.errors import NumericError

        # node 1 fails on the first event of the second block, after node 2
        # has stepped through the first
        step = EkfNode.node1_step
        calls = []

        def failing(node, event):
            calls.append(event)
            if len(calls) == harness._BLOCK + 1:
                raise NumericError("filter produced non-finite state or covariance")
            return step(node, event)

        monkeypatch.setattr(EkfNode, "node1_step", failing)
        cfg = write_config(tmp_path, input={"synthetic": {"kind": "figure-eight", "duration": 60.0, "rate": 10.0}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error: [filter] ") and "non-finite" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "section, message",
        [
            ("raw_noise", "error: [filter] covariance contains non-finite values"),
            ("perception", "error: [simulate-perception] perception r6 contains non-finite values"),
        ],
    )
    def test_huge_finite_noise_exits_3(self, tmp_path, capsys, section, message):
        # 1e200 squared overflows to inf, which the covariance checks reject
        cfg = write_config(tmp_path, **{section: {"sigma_trans": 1e200, "gamma_yaw": 0.0}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.strip() == message
        assert not (out / "report.json").exists()

    def test_unwritable_report_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "report.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"input": 5}, "'input' must be a JSON object"),
            ({"input": {"synthetic": {"duration": "abc"}}}, "duration must be a number"),
            ({"input": {"synthetic": {}}, "seeds": 3}, "seeds must be a list"),
            ({"input": {"synthetic": {}}, "seeds": [1, "2"]}, "seeds entry must be an integer"),
            ({"input": {"synthetic": {}}, "ekf": [1]}, "'ekf' must be a JSON object"),
            ({"input": {"synthetic": {}}, "raw_noise": {"sigma_trans": None}}, "sigma_trans must be a number"),
            ({"input": {"synthetic": {}}, "sync": {"offset_seconds": 1.0}}, "sync.reference is required"),
            ({"input": {"synthetic": {}}, "sweep": {"sigma_grid": 0.3}}, "sigma_grid must be a list"),
            ({"input": {"smart_csv": 5, "adas_csv": "a.csv"}}, "smart_csv must be a string"),
            ({"input": {"synthetic": {"duration": float("inf")}}}, "must be finite"),
            ({"input": {"synthetic": {"rate": float("inf")}}}, "must be finite"),
            ({"input": {"synthetic": {"speed": float("inf")}}}, "must be finite"),
            ({"input": {"synthetic": {"gap": float("nan")}}}, "must be finite"),
        ],
    )
    def test_malformed_config_is_usage_error_without_traceback(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class TestSweep:
    def test_writes_table_and_cell_dirs(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"sigma_grid": [0.3, 0.6], "gamma_grid": [10.0]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        table = (out / "table.txt").read_text()
        assert "Translation RMSE [m]" in table and "w/o perception" in table
        for name in ("sigma=0.3_gamma=10", "sigma=0.6_gamma=10", "wo-perception"):
            cell = json.loads((out / name / "cell.json").read_text())
            assert cell["error"] is None
        report = json.loads((out / "report.json").read_text())
        assert len(report["cells"]) == 3

    def test_cell_json_matches_report_slice(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"sigma_grid": [0.3], "gamma_grid": [10.0]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        cell = json.loads((out / "sigma=0.3_gamma=10" / "cell.json").read_text())
        assert cell in report["cells"]

    def test_huge_finite_noise_fails_its_cell_alone(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"sigma_grid": [0.3, 1e200], "gamma_grid": [10.0]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        failed = json.loads((out / "sigma=1e+200_gamma=10" / "cell.json").read_text())
        assert failed["error"] == "NumericError: [simulate-perception] perception r6 contains non-finite values"
        alone = tmp_path / "alone"
        cfg = write_config(tmp_path, sweep={"sigma_grid": [0.3], "gamma_grid": [10.0]})
        assert main(["sweep", "--config", str(cfg), "--out", str(alone)]) == EXIT_OK
        for name in ("sigma=0.3_gamma=10", "wo-perception"):
            assert (out / name / "cell.json").read_bytes() == (alone / name / "cell.json").read_bytes()
        assert "failed" in (out / "table.txt").read_text()

    def test_unwritable_cell_file_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"sigma_grid": [0.3], "gamma_grid": [10.0]})
        out = tmp_path / "sweep"
        (out / "sigma=0.3_gamma=10" / "cell.json").mkdir(parents=True)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "cell.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sigmas", [[0.3, 0.3], [0.3, 0.3000001], [0.0, -0.0]])
    def test_grid_values_that_print_alike_are_usage_errors(self, tmp_path, capsys, sigmas):
        # cell directories and table columns are named by the values under :g
        cfg = write_config(tmp_path, sweep={"sigma_grid": sigmas, "gamma_grid": [10.0]})
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: sigma_grid values")
        assert not (tmp_path / "s").exists()

    def test_grid_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert rc == EXIT_USAGE
        assert "sweep" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class TestEval:
    def test_self_comparison_is_numerically_zero(self, tmp_path, capsys):
        _, adas_path = gen_pair(tmp_path)
        capsys.readouterr()  # drain the gen status line
        assert main(["eval", "--est", str(adas_path), "--gt", str(adas_path)]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_samples"] == 60
        assert stats["n_dropped"] == 0
        assert stats["translation_m"]["rmse"] < 1e-12
        assert stats["orientation_deg"]["rmse"] < 1e-9

    def test_estimate_csv_from_run_is_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        _, adas_path = gen_pair(tmp_path)
        capsys.readouterr()  # drain the run and gen status lines
        rc = main(["eval", "--est", str(out / "fused.csv"), "--gt", str(adas_path)])
        assert rc == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        run_rmse = json.loads((out / "report.json").read_text())["cells"][0]["per_seed"][0][
            "fused"
        ]["translation_m"]["rmse"]
        assert stats["translation_m"]["rmse"] == pytest.approx(run_rmse, rel=1e-12)

    def test_collinear_se3_is_numeric_failure(self, tmp_path, capsys):
        _, adas_path = gen_pair(tmp_path, kind="straight")
        rc = main(["eval", "--est", str(adas_path), "--gt", str(adas_path), "--align", "se3"])
        assert rc == EXIT_NUMERIC
        assert "collinear" in capsys.readouterr().err

    def test_collinear_yaw_alignment_is_fine(self, tmp_path):
        _, adas_path = gen_pair(tmp_path, kind="straight")
        rc = main(["eval", "--est", str(adas_path), "--gt", str(adas_path), "--align", "yaw"])
        assert rc == EXIT_OK

    def test_align_none_accepted(self, tmp_path):
        _, adas_path = gen_pair(tmp_path)
        rc = main(["eval", "--est", str(adas_path), "--gt", str(adas_path), "--align", "none"])
        assert rc == EXIT_OK

    def test_bad_align_choice_is_usage_error(self, tmp_path):
        _, adas_path = gen_pair(tmp_path)
        rc = main(["eval", "--est", str(adas_path), "--gt", str(adas_path), "--align", "sim3"])
        assert rc == EXIT_USAGE

    def test_missing_input_is_data_error(self, tmp_path):
        _, adas_path = gen_pair(tmp_path)
        rc = main(["eval", "--est", str(tmp_path / "none.csv"), "--gt", str(adas_path)])
        assert rc == EXIT_DATA

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        _, adas_path = gen_pair(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(adas_path.read_bytes().replace(b"qw\n", b"qw\n\xff", 1))
        rc = main(["eval", "--est", str(bad), "--gt", str(adas_path)])
        assert rc == EXIT_DATA
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_builds_no_pose_objects_for_whole_logs(self, tmp_path, monkeypatch):
        from coloc.dataio import TrajectoryLog

        _, adas_path = gen_pair(tmp_path)

        def no_samples(log):
            raise AssertionError("samples built")

        monkeypatch.setattr(TrajectoryLog, "samples", property(no_samples))
        assert main(["eval", "--est", str(adas_path), "--gt", str(adas_path)]) == EXIT_OK


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

class TestTopLevel:
    def test_help_exits_ok(self):
        assert main(["--help"]) == EXIT_OK

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments_is_usage_error(self):
        assert main([]) == EXIT_USAGE
