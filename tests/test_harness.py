"""Experiment-harness tests.

Oracles here are structural rather than numeric: determinism claims are
checked by running the pipeline twice and comparing outputs bitwise, the
matched-noise claim by varying exactly one channel and asserting the other
output is byte-for-byte unchanged, and the config round trip by comparing
against the source dataclasses field by field.
"""

import json
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloc import harness
from coloc.dataio import (
    SyncSpec,
    estimate_track,
    export_trajectory,
    generate_synthetic,
    load_trajectory,
)
from coloc.ekf import EkfNode, MeasurementEvent, MeasurementKind, measurement_covariance
from coloc.errors import DataError, NumericError
from coloc.evaluation import AlignmentMode
from coloc.geometry import LOCAL, WORLD, Agent, Pose, Quaternion, quaternions_to_euler
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
    _run_cells,
    cell_aggregate,
    config_from_dict,
    config_to_dict,
    derive_run_seed,
    execute_run,
    format_table,
    load_config,
    report_json,
    run_report,
    run_sweep,
    write_estimate_csv,
)
from coloc.noise import NoiseSpec, RandomStream
from coloc.perception import PerceptionConfig, simulate_perception


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


def same_estimates(a, b) -> bool:
    """Bitwise equality of two runs' fused estimate tracks and 1-sigma arrays."""
    ea, eb = a.fused_estimates, b.fused_estimates
    return all(
        np.array_equal(x, y)
        for x, y in ((ea.t, eb.t), (ea.p, eb.p), (ea.q, eb.q), (a.fused_sd, b.fused_sd))
    )


# ---------------------------------------------------------------------------
# Config serialization
# ---------------------------------------------------------------------------

def config_fields(cls) -> set[tuple[str, str]]:
    """(class, field) for every field of cls and of the config dataclasses it nests."""
    out = set()
    for name, tp in get_type_hints(cls).items():
        out.add((cls.__name__, name))
        for t in (tp, *get_args(tp)):
            if is_dataclass(t):
                out |= config_fields(t)
    return out


def written_fields(value, d: dict) -> set[tuple[str, str]]:
    """(class, field) for every field of value found in its JSON section d.

    A nested dataclass written inline counts when all its fields are in d.
    """
    found = set()
    for f in fields(value):
        v = getattr(value, f.name)
        if f.name in d:
            found.add((type(value).__name__, f.name))
            if is_dataclass(v):
                found |= written_fields(v, d[f.name])
        elif is_dataclass(v):
            inner = written_fields(v, d)
            found |= inner
            if {(type(v).__name__, g.name) for g in fields(v)} <= inner:
                found.add((type(value).__name__, f.name))
    return found


_NONNEG = st.floats(0.0, 1e3)
_POSITIVE = st.floats(1e-9, 1e9)
_ANY = st.floats(-1e9, 1e9)


def _optional(strategy):
    return st.none() | strategy


_NOISE = st.builds(NoiseSpec, _NONNEG, _NONNEG)
_GRID = st.lists(_NONNEG, min_size=1, max_size=4, unique_by=lambda v: f"{v + 0.0:g}").map(tuple)
CONFIGS = st.builds(
    ExperimentConfig,
    input=st.builds(
        InputConfig,
        synthetic=st.builds(
            SyntheticSpec, st.text(max_size=12), _ANY, _ANY, _ANY, _ANY, st.integers(0, 2**64 - 1)
        ),
    )
    | st.builds(InputConfig, smart_csv=st.text(), adas_csv=st.text()),
    sync=_optional(st.builds(SyncSpec, _ANY, st.sampled_from(Agent))),
    raw_noise=_NOISE,
    perception=st.builds(PerceptionConfig, _NOISE, _POSITIVE, _optional(_POSITIVE)),
    raw_rate=_optional(_POSITIVE),
    ekf=st.builds(
        EkfSettings,
        **{
            f.name: _optional(_NONNEG) if f.name.startswith("smoothed_") else _POSITIVE
            for f in fields(EkfSettings)
        },
    ),
    eval=st.builds(EvalSettings, st.sampled_from(AlignmentMode), _POSITIVE),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4).map(tuple),
    sweep=_optional(st.builds(SweepGrid, _GRID, _GRID)),
    output_dir=_optional(st.text()),
)


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

    def test_every_config_field_is_written(self):
        # Input writes only the source it uses, so the csv variant covers the rest.
        csv = replace(full_config(), input=InputConfig(smart_csv="a.csv", adas_csv="b.csv"))
        written = set().union(*(written_fields(c, config_to_dict(c)) for c in (full_config(), csv)))
        assert written == config_fields(ExperimentConfig)

    def test_unset_fields_are_written_as_null_except_input_sources(self):
        d = config_to_dict(synthetic_config())
        assert list(d["input"]) == ["synthetic"]
        nulls = {
            f"{section}.{key}" if section else key
            for section, body in [("", d), *((k, v) for k, v in d.items() if isinstance(v, dict))]
            for key, value in body.items()
            if value is None
        }
        assert nulls == {
            "sync", "raw_rate", "sweep", "output_dir", "perception.output_rate",
            "ekf.smoothed_sigma_trans", "ekf.smoothed_gamma_deg",
        }

    @settings(max_examples=200, deadline=None)
    @given(CONFIGS)
    def test_generated_configs_round_trip_through_json(self, cfg):
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_absent_keys_take_field_defaults(self):
        cfg = config_from_dict({"input": {"synthetic": {}}, "perception": {"sigma_trans": 0.3}})
        assert cfg == ExperimentConfig(
            input=InputConfig(synthetic=SyntheticSpec()),
            perception=PerceptionConfig(NoiseSpec(0.3, 0.0)),
        )

    def test_null_means_none_or_a_default_section(self):
        d = {"input": {"synthetic": {}}, "sync": None, "ekf": None, "raw_rate": None}
        assert config_from_dict(d) == ExperimentConfig(input=InputConfig(synthetic=SyntheticSpec()))
        with pytest.raises(ValueError, match="seeds must be a list"):
            config_from_dict({"input": {"synthetic": {}}, "seeds": None})

    def test_integer_literals_in_float_fields_read_as_floats(self):
        cfg = config_from_dict({"input": {"synthetic": {"duration": 60}}, "ekf": {"node1_q_scale": 2}})
        assert type(cfg.input.synthetic.duration) is float
        assert type(cfg.ekf.node1_q_scale) is float
        assert '"duration": 60.0' in json.dumps(config_to_dict(cfg))

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
        assert same_estimates(a, b)

    def test_estimates_match_per_step_node_state(self, monkeypatch):
        # Reference: after every node-2 odometry step, the node's world pose
        # and the square roots of its P diagonal (x, y, z, yaw; a non-positive
        # variance gives 0), as each step's estimate was once recorded.
        import math

        from coloc.ekf import EkfNode, MeasurementKind

        recorded: dict[int, list] = {}
        step = EkfNode.node2_step

        def recording(node, event):
            out = step(node, event)
            if event.kind is MeasurementKind.ODOMETRY_DIFFERENTIAL:
                d = node.state.P.diagonal().tolist()
                sd = [math.sqrt(v) if v > 0.0 else 0.0 for v in (d[0], d[1], d[2], d[5])]
                recorded.setdefault(id(node), []).append((node.state.pose(WORLD), sd))
            return out

        monkeypatch.setattr(EkfNode, "node2_step", recording)
        art = execute_run(replace(full_config(), sweep=None), 5)
        fused, baseline = recorded.values()
        for track, sd, records in (
            (art.fused_estimates, art.fused_sd, fused),
            (art.baseline_estimates, art.baseline_sd, baseline),
        ):
            assert track.agent is Agent.ADAS and track.convention == "ENU"
            assert track.t.tolist() == [pose.timestamp for pose, _ in records]
            assert track.p.tolist() == [pose.translation.tolist() for pose, _ in records]
            assert track.q.tolist() == [pose.rotation.as_array().tolist() for pose, _ in records]
            assert sd.tolist() == [s for _, s in records]

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
        art = execute_run(noisy_config(), 7)
        fused, baseline = art.fused, art.baseline
        assert fused.translation.rmse < 0.5 * baseline.translation.rmse

    def test_baseline_immune_to_perception_settings(self):
        # matched noise: the perception channel draws from its own labeled
        # stream, so the odometry-only result cannot depend on it
        quiet = noisy_config()
        loud = replace(
            quiet, perception=PerceptionConfig(NoiseSpec(0.9, 15.0), output_rate=3.0)
        )
        assert execute_run(quiet, 7).baseline == execute_run(loud, 7).baseline

    def test_with_baseline_false_skips_the_second_pass(self):
        cfg = noisy_config()
        both = execute_run(cfg, 7)
        only = execute_run(cfg, 7, with_baseline=False)
        assert only.baseline is None
        assert only.baseline_estimates is None and only.baseline_sd is None
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


class TestBlockSchedule:
    """execute_run walks the odometry schedule once, block by block, stepping
    node 1 and then each node-2 pass over every block; the result must be
    what one whole-run pass per node gives."""

    @staticmethod
    def events(kind, frame, stamps, p, q, r6):
        """One checked event per pose row, the Euler angles from one whole-run call."""
        rows = np.concatenate((p, quaternions_to_euler(q)), axis=1)
        return [MeasurementEvent(t, kind, frame, z, r6) for t, z in zip(stamps.tolist(), rows)]

    def two_pass_reference(self, cfg, seed):
        """Fused and baseline (log, 1-sigma): node 1 over every odometry event,
        then one node-2 pass per variant, each through EkfNode's one-event API."""
        smart, adas = harness._load_ground_truth(cfg)
        stream = RandomStream(seed)
        stamps, t, q = harness._simulate_raw_odometry(adas, cfg, stream)
        odo = MeasurementKind.ODOMETRY_DIFFERENTIAL
        odometry = self.events(odo, LOCAL, stamps, t, q, measurement_covariance(cfg.raw_noise))
        channel = simulate_perception(
            smart, adas, cfg.perception, stream.derive("perception"), cfg.ekf.perception_r6_scale
        )
        perception = self.events(
            MeasurementKind.PERCEPTION_ABSOLUTE, WORLD, channel.t, channel.p, channel.q, channel.r6
        )
        node1_cfg, node2_cfg = harness._node_configs(cfg, adas)
        node1 = EkfNode(node1_cfg)
        # node 1's local->body pose rows are node 2's odometry events
        smoothed_r6 = measurement_covariance(harness._smoothed_odometry_spec(cfg))
        smoothed = [
            MeasurementEvent(event.timestamp, odo, LOCAL, node1.node1_step(event)[0], smoothed_r6)
            for event in odometry
        ]

        def node2_pass(channel):
            node = EkfNode(node2_cfg)
            rows, j = [], 0
            for event in smoothed:
                while j < len(channel) and channel[j].timestamp < event.timestamp:
                    node.node2_step(channel[j])
                    j += 1
                node.node2_step(event)
                s = node.state
                rows.append((s.timestamp, s.x, s.P.diagonal()))
            for event in channel[j:]:
                node.node2_step(event)
            return estimate_track(*(np.array(column) for column in zip(*rows)))

        return odometry, perception, node2_pass(perception), node2_pass([])

    def test_matches_two_pass_reference(self, monkeypatch):
        # 25 Hz odometry (every 4th of 100 Hz stamps) and 33 Hz perception
        # (every 3rd) share a stamp every 0.12 s, and perception goes on after
        # the last odometry stamp; a 0.04 s odometry gap exceeds
        # max_predict_dt, so every node-1 prediction is substepped.
        cfg = ExperimentConfig(
            input=InputConfig(synthetic=SyntheticSpec("figure-eight", 40.0, 100.0, 25.0)),
            raw_noise=NoiseSpec(2.5, 1.0),
            perception=PerceptionConfig(NoiseSpec(0.3, 10.0), output_rate=40.0),
            raw_rate=30.0,
            ekf=EkfSettings(max_predict_dt=0.03, predict_substep=0.01),
        )
        odometry, perception, fused, baseline = self.two_pass_reference(cfg, 4)
        odometry_stamps = {event.timestamp for event in odometry}
        assert len(odometry) > 3 * harness._BLOCK
        assert any(event.timestamp in odometry_stamps for event in perception)
        assert perception[-1].timestamp > odometry[-1].timestamp
        assert np.diff([event.timestamp for event in odometry]).min() > cfg.ekf.max_predict_dt

        steps: dict[int, int] = {}
        step = EkfNode.node2_step

        def counted(node, event):
            steps[id(node)] = steps.get(id(node), 0) + 1
            return step(node, event)

        monkeypatch.setattr(EkfNode, "node2_step", counted)
        art = execute_run(cfg, 4)
        assert (art.n_odometry, art.n_perception, art.n_rejected) == (len(odometry), len(perception), 0)
        # every perception event reaches the fused node, the last ones included
        assert list(steps.values()) == [len(odometry) + len(perception), len(odometry)]
        for (track, sd), (want_track, want_sd) in (
            ((art.fused_estimates, art.fused_sd), fused),
            ((art.baseline_estimates, art.baseline_sd), baseline),
        ):
            for name in ("t", "p", "q"):
                assert getattr(track, name).tolist() == getattr(want_track, name).tolist(), name
            assert sd.tolist() == want_sd.tolist()

    def test_traced_peak_per_odometry_event(self):
        # A whole-run pass per node kept every event, pose and node-2 state
        # alive at once: about 1.9 kB of traced peak per odometry event.  The
        # run-length difference cancels what does not grow with the run.
        peaks = []
        for duration in (2.5, 5.0):
            cfg = synthetic_config(duration=duration, rate=200.0)
            ground_truth = harness._load_ground_truth(cfg)
            tracemalloc.start()
            try:
                execute_run(cfg, 0, ground_truth)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_event = (peaks[1] - peaks[0]) / (2.5 * 200.0)
        assert per_event < 1200.0, f"{per_event:.0f} bytes of traced peak per odometry event"


class TestLockstep:
    """The runs of a sweep or report step as members of one lockstep pass;
    a member's numbers are those of its run alone, whatever the batch."""

    @staticmethod
    def assert_same_run(got, want):
        assert (got.fused, got.baseline) == (want.fused, want.baseline)
        assert (got.n_odometry, got.n_perception, got.n_rejected) == (want.n_odometry, want.n_perception, want.n_rejected)
        for track, sd, want_track, want_sd in (
            (got.fused_estimates, got.fused_sd, want.fused_estimates, want.fused_sd),
            (got.baseline_estimates, got.baseline_sd, want.baseline_estimates, want.baseline_sd),
        ):
            for name in ("t", "p", "q"):
                assert np.array_equal(getattr(track, name), getattr(want_track, name)), name
            assert np.array_equal(sd, want_sd)

    def test_members_equal_their_runs_alone(self):
        # two perception cells, two seeds each, substepped predictions
        cfg = noisy_config(raw_rate=5.0, ekf=EkfSettings(max_predict_dt=0.1, predict_substep=0.05))
        ground_truth = harness._load_ground_truth(cfg)
        channels = [cfg.perception, PerceptionConfig(NoiseSpec(0.9, 15.0))]
        members = [(channel, seed) for channel in channels for seed in (4, 11)]
        runs = list(harness._lockstep_runs(cfg, [members], ground_truth))
        assert len(runs) == 4
        for (channel, seed), run in zip(members, runs):
            self.assert_same_run(run, execute_run(replace(cfg, perception=channel), seed, ground_truth))

    def test_sweep_bytes_do_not_depend_on_batch_layout(self, monkeypatch):
        cfg = sweep_config((0.3, 0.6, 0.9), (10.0,), seeds=(3, 5))
        want = report_json(run_sweep(cfg))
        for workers in (2, 3):
            assert report_json(run_sweep(cfg, workers=workers)) == want, workers
        rows = len(harness._load_ground_truth(cfg)[1])
        # one member per batch, then batches of four that cut through a cell,
        # then short filter blocks
        for batch_rows, block in ((rows, harness._BLOCK), (4 * rows, harness._BLOCK), (harness._BATCH_ROWS, 5)):
            monkeypatch.setattr(harness, "_BATCH_ROWS", batch_rows)
            monkeypatch.setattr(harness, "_BLOCK", block)
            assert report_json(run_sweep(cfg)) == want, (batch_rows, block)

    @staticmethod
    def cells_without(report, sigma):
        return [c for c in report.to_dict()["cells"] if c["sigma"] != sigma]

    def test_huge_noise_cell_fails_alone(self):
        # sigma 1e200 squares to inf: its perception covariance is rejected
        cfg = sweep_config((0.3, 0.6, 1e200), (10.0,), seeds=(3, 5))
        report = run_sweep(cfg)
        failed = [c for c in report.grid_cells() if c.error is not None]
        assert [(c.sigma, c.error) for c in failed] == [
            (1e200, "NumericError: [simulate-perception] perception r6 contains non-finite values")
        ]
        healthy = run_sweep(replace(cfg, sweep=SweepGrid((0.3, 0.6), (10.0,))))
        assert self.cells_without(report, 1e200) == healthy.to_dict()["cells"]

    def test_filter_failure_of_one_member_fails_its_cell_alone(self, monkeypatch):
        cfg = sweep_config((0.3, 0.6, 0.9), (10.0,), seeds=(3, 5))
        healthy = run_sweep(replace(cfg, sweep=SweepGrid((0.3, 0.6), (10.0,))))
        # the second seed of the 0.9 m cell: its first perception row trips the filter
        seed = derive_run_seed(cfg.seeds[1], 2, 0, 1)
        smart, adas = harness._load_ground_truth(cfg)
        channel = harness._cell_config(cfg, 0.9, 10.0).perception
        rows = simulate_perception(smart, adas, channel, RandomStream(seed).derive("perception"))
        target = tuple(harness._pose_rows(rows.p[None, :1], rows.q[None, :1])[0][0])
        step = EkfNode.node2_step

        def failing(node, event):
            if any(tuple(z) == target for z in event.z):
                raise NumericError("filter produced non-finite state or covariance")
            return step(node, event)

        monkeypatch.setattr(EkfNode, "node2_step", failing)
        lockstep, passes = harness._lockstep, []

        def counted(cfg, members, *args):
            passes.append(len(members))
            return lockstep(cfg, members, *args)

        monkeypatch.setattr(harness, "_lockstep", counted)
        report = run_sweep(cfg)
        failed = [c for c in report.grid_cells() if c.error is not None]
        assert [(c.sigma, c.error) for c in failed] == [
            (0.9, "NumericError: [filter] filter produced non-finite state or covariance")
        ]
        assert self.cells_without(report, 0.9) == healthy.to_dict()["cells"]
        # the failed batch runs again cell by cell, and the failed cell seed by
        # seed up to its failing seed: the healthy cells step in one pass each
        assert passes == [6, 2, 2, 2, 1, 1]

    def test_report_of_huge_raw_noise_raises_numeric_error(self):
        # sigma 1e200 squares to inf: node 1's initial covariance is rejected
        cfg = replace(noisy_config(seeds=(3, 5)), raw_noise=NoiseSpec(1e200, 0.0))
        with pytest.raises(NumericError, match=r"^\[filter\] covariance contains non-finite values$"):
            run_report(cfg)


class TestPoseObjectsOnlyForPerception:
    """The run path reads the logs' arrays: no stage, perception included, builds a log's poses.

    The filters take pose rows, so a run builds no Pose, and its only
    Quaternion is the rotation of each evaluated track's alignment
    transform, one per track however long the run.
    """

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
        return built

    @pytest.fixture
    def constructed(self, monkeypatch):
        """Names of the Pose and Quaternion objects built, checked or trusted,
        with an "evaluate" entry before each track the harness evaluates."""
        constructed = []
        evaluate = harness.evaluate

        def counted_evaluate(*args, **kwargs):
            constructed.append("evaluate")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(harness, "evaluate", counted_evaluate)
        for cls in (Pose, Quaternion):
            post_init, trusted = cls.__post_init__, cls._trusted.__func__

            def counted_post_init(obj, post_init=post_init, name=cls.__name__):
                constructed.append(name)
                post_init(obj)

            def counted_trusted(klass, *args, trusted=trusted):
                constructed.append(klass.__name__)
                return trusted(klass, *args)

            monkeypatch.setattr(cls, "__post_init__", counted_post_init)
            monkeypatch.setattr(cls, "_trusted", classmethod(counted_trusted))
        return constructed

    def test_counters_see_every_construction(self, constructed):
        Pose(0.0, [0.0, 0.0, 0.0], Quaternion.identity(), WORLD, LOCAL)
        Quaternion._trusted(0.0, 0.0, 0.0, 1.0)
        assert constructed == ["Quaternion", "Pose", "Quaternion"]

    def test_execute_run(self, built, constructed):
        execute_run(noisy_config(raw_rate=10.0), 0)
        assert built == []
        assert constructed == ["evaluate", "Quaternion"] * 2

    def test_run_sweep(self, built, constructed):
        run_sweep(noisy_config(seeds=(0, 1), sweep=SweepGrid((0.3,), (10.0,))))
        assert built == []
        assert constructed == ["evaluate", "Quaternion"] * 4

    def test_csv_ground_truth(self, built, tmp_path):
        smart_path, adas_path = write_gt_pair(tmp_path)
        run_report(ExperimentConfig(input=InputConfig(smart_csv=str(smart_path), adas_csv=str(adas_path))))
        assert built == []

    def test_coloc_eval(self, built, tmp_path):
        from coloc.cli import main

        smart_path, adas_path = write_gt_pair(tmp_path)
        art = execute_run(
            ExperimentConfig(input=InputConfig(smart_csv=str(smart_path), adas_csv=str(adas_path))), 0
        )
        write_estimate_csv(art.fused_estimates, art.fused_sd, tmp_path / "fused.csv")
        argv = ["eval", "--est", str(tmp_path / "fused.csv"), "--gt", str(adas_path), "--align", "yaw"]
        assert main(argv) == 0
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

    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        cfg = sweep_config()
        assert report_json(run_sweep(cfg, workers=8)) == report_json(run_sweep(cfg, workers=1))
        assert sizes == [2]

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
        [(results, error)] = _run_cells((cfg, [(cfg.perception, (1, 2))], None))
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
        assert len(artifacts.fused_estimates) == len(artifacts.fused_sd) == artifacts.n_odometry
        assert len(artifacts.baseline_estimates) == len(artifacts.baseline_sd) == artifacts.n_odometry

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
        write_estimate_csv(art.fused_estimates, art.fused_sd, path)
        log = load_trajectory(path)
        assert log.agent is Agent.ADAS
        assert np.array_equal(log.t, art.fused_estimates.t)
        assert np.array_equal(log.p, art.fused_estimates.p)
        assert np.array_equal(log.q, art.fused_estimates.q)

    def test_sd_columns_present(self, tmp_path):
        art = execute_run(noisy_config(), 3)
        path = tmp_path / "fused.csv"
        write_estimate_csv(art.fused_estimates, art.fused_sd, path)
        header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
        assert header.split(",")[-4:] == ["sx", "sy", "sz", "syaw"]
