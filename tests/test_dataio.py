"""Data I/O tests.

Oracles: the axis-permutation matrix for NED->ENU checks (itself verified in
the geometry suite against matrices), exact round-trip comparisons for the
file format, and arc-length/closure identities for the synthetic paths.
"""

import math

import numpy as np
import pytest

from coloc.dataio import (
    ESTIMATE_COLUMNS,
    HEADER_COLUMNS,
    SyncSpec,
    TrajectoryLog,
    estimate_track,
    export_trajectory,
    generate_synthetic,
    load_trajectory,
    synchronize,
    write_estimate_csv,
)
from coloc.errors import DataError
from coloc.geometry import (
    BODY_ADAS,
    BODY_SMART,
    WORLD,
    Agent,
    Pose,
    Quaternion,
    quat_yaw,
    relative_pose,
    rotation_geodesic,
)

from pose_rows import log_of

RNG = np.random.default_rng(31337)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


GOOD_FILE = """#agent=adas
#convention=ENU
#source=unit-test
t,x,y,z,qx,qy,qz,qw
0.0,1.0,2.0,0.0,0.0,0.0,0.0,1.0
0.5,1.5,2.0,0.0,0.0,0.0,0.0,1.0
1.0,2.0,2.0,0.0,0.0,0.0,0.7071067811865476,0.7071067811865476
"""


class TestLoadTrajectory:
    def test_well_formed_file(self, tmp_path):
        log = load_trajectory(write(tmp_path, "good.csv", GOOD_FILE))
        assert len(log) == 3
        assert log.agent is Agent.ADAS
        assert log.convention == "ENU"
        assert log.metadata == {"source": "unit-test"}
        np.testing.assert_allclose(log.samples[0].translation, [1.0, 2.0, 0.0])
        assert log.samples[2].rotation.to_euler()[2] == pytest.approx(math.pi / 2)

    def test_smart_agent_sets_child_frame(self, tmp_path):
        text = GOOD_FILE.replace("#agent=adas", "#agent=smart")
        log = load_trajectory(write(tmp_path, "smart.csv", text))
        assert log.agent is Agent.SMART
        assert log.samples[0].child_frame == BODY_SMART

    def test_decreasing_timestamp_names_row(self, tmp_path):
        text = (
            "#agent=adas\nt,x,y,z,qx,qy,qz,qw\n"
            "1.0,0,0,0,0,0,0,1\n"
            "0.5,0,0,0,0,0,0,1\n"
        )
        with pytest.raises(DataError, match="row 2"):
            load_trajectory(write(tmp_path, "dec.csv", text))

    def test_duplicate_timestamp_rejected(self, tmp_path):
        text = (
            "#agent=adas\nt,x,y,z,qx,qy,qz,qw\n"
            "1.0,0,0,0,0,0,0,1\n"
            "1.0,1,0,0,0,0,0,1\n"
        )
        with pytest.raises(DataError, match="increase"):
            load_trajectory(write(tmp_path, "dup.csv", text))

    def test_ned_is_converted(self, tmp_path):
        text = (
            "#agent=adas\n#convention=NED\nt,x,y,z,qx,qy,qz,qw\n"
            "0.0,1.0,2.0,3.0,0.0,0.0,0.0,1.0\n"
        )
        log = load_trajectory(write(tmp_path, "ned.csv", text))
        assert log.convention == "ENU"
        np.testing.assert_allclose(log.samples[0].translation, [2.0, 1.0, -3.0], atol=1e-12)
        # Heading north in NED is yaw +90 in ENU.
        assert log.samples[0].rotation.to_euler()[2] == pytest.approx(math.pi / 2)

    def test_enu_loads_without_conversion(self, tmp_path):
        log = load_trajectory(write(tmp_path, "good.csv", GOOD_FILE))
        assert log.samples[0].translation[0] == 1.0
        assert log.samples[0].translation[1] == 2.0

    def test_wrong_column_count(self, tmp_path):
        text = "#agent=adas\nt,x,y,z,qx,qy,qz,qw\n0.0,1.0,2.0\n"
        with pytest.raises(DataError, match="columns"):
            load_trajectory(write(tmp_path, "cols.csv", text))

    def test_nan_field(self, tmp_path):
        text = "#agent=adas\nt,x,y,z,qx,qy,qz,qw\n0.0,nan,0,0,0,0,0,1\n"
        with pytest.raises(DataError, match="non-finite"):
            load_trajectory(write(tmp_path, "nan.csv", text))

    def test_unparseable_number(self, tmp_path):
        text = "#agent=adas\nt,x,y,z,qx,qy,qz,qw\n0.0,oops,0,0,0,0,0,1\n"
        with pytest.raises(DataError, match="unparseable"):
            load_trajectory(write(tmp_path, "bad.csv", text))

    def test_non_unit_quaternion_rejected(self, tmp_path):
        text = "#agent=adas\nt,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,1.001\n"
        with pytest.raises(DataError, match="norm"):
            load_trajectory(write(tmp_path, "quat.csv", text))

    def test_slightly_off_quaternion_renormalized(self, tmp_path):
        w = 1.0 + 5e-7
        text = f"#agent=adas\nt,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,{w!r}\n"
        log = load_trajectory(write(tmp_path, "quat2.csv", text))
        assert log.samples[0].rotation.norm() == pytest.approx(1.0, abs=1e-12)

    def test_missing_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_trajectory(write(tmp_path, "hdr.csv", "#agent=adas\n"))

    def test_wrong_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_trajectory(write(tmp_path, "hdr2.csv", "time,x,y,z,a,b,c,d\n"))

    def test_comment_after_header_rejected(self, tmp_path):
        text = "t,x,y,z,qx,qy,qz,qw\n#agent=adas\n"
        with pytest.raises(DataError, match="before the header"):
            load_trajectory(write(tmp_path, "late.csv", text))

    def test_unknown_agent(self, tmp_path):
        text = "#agent=boat\nt,x,y,z,qx,qy,qz,qw\n"
        with pytest.raises(DataError, match="agent"):
            load_trajectory(write(tmp_path, "agent.csv", text))

    def test_unknown_convention(self, tmp_path):
        text = "#agent=adas\n#convention=WILD\nt,x,y,z,qx,qy,qz,qw\n"
        with pytest.raises(DataError, match="convention"):
            load_trajectory(write(tmp_path, "conv.csv", text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_trajectory(tmp_path / "nope.csv")

    def test_negative_timestamp_rejected(self, tmp_path):
        text = "#agent=adas\nt,x,y,z,qx,qy,qz,qw\n-1.0,0,0,0,0,0,0,1\n"
        with pytest.raises(DataError, match="timestamp"):
            load_trajectory(write(tmp_path, "neg.csv", text))

    def test_defaults_when_metadata_absent(self, tmp_path):
        text = "t,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,1\n"
        log = load_trajectory(write(tmp_path, "plain.csv", text))
        assert log.agent is Agent.ADAS
        assert log.convention == "ENU"


class TestTrajectoryLogType:
    def test_frame_validation(self):
        # frames are not stored: every pose maps the agent's body into the world
        log = TrajectoryLog(Agent.ADAS, "ENU", [0.0], np.zeros((1, 3)), [[0.0, 0.0, 0.0, 1.0]], {})
        assert (log.samples[0].parent_frame, log.samples[0].child_frame) == (WORLD, BODY_ADAS)

    def test_agent_frame_cross_check(self):
        log = TrajectoryLog(Agent.SMART, "ENU", [0.0], np.zeros((1, 3)), [[0.0, 0.0, 0.0, 1.0]], {})
        assert log.samples[0].child_frame == BODY_SMART

    def test_bad_convention(self):
        with pytest.raises(DataError):
            TrajectoryLog(Agent.ADAS, "XYZ", [], np.empty((0, 3)), np.empty((0, 4)), {})

    def test_duration(self):
        samples = tuple(
            Pose(t, np.zeros(3), Quaternion.identity(), WORLD, BODY_ADAS) for t in (1.0, 2.0, 4.5)
        )
        assert log_of(samples, Agent.ADAS).duration() == 3.5

    @pytest.mark.parametrize(
        "t, p, q, match",
        [
            ([0.0, 1.0], np.zeros((2, 2)), np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)), "expected"),
            ([[0.0, 1.0]], np.zeros((2, 3)), np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)), "expected"),
            ([0.0, 1.0], np.zeros((2, 3)), np.zeros((2, 4)), "norm"),
            ([0.0, math.nan], np.zeros((2, 3)), np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)), "finite"),
            ([0.0, 1.0], [[0.0, 0.0, 0.0], [math.inf, 0.0, 0.0]], np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)), "finite"),
            ([-1.0, 1.0], np.zeros((2, 3)), np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)), "negative"),
            ([1.0, 1.0], np.zeros((2, 3)), np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)), "sample 1"),
        ],
    )
    def test_array_validation(self, t, p, q, match):
        with pytest.raises(DataError, match=match):
            TrajectoryLog(Agent.ADAS, "ENU", t, p, q, {})

    def test_arrays_are_read_only_copies_with_normalized_quaternions(self):
        t, p, q = np.array([0.0, 0.5]), np.ones((2, 3)), np.array([[0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 1.0, 1.0]])
        log = TrajectoryLog(Agent.ADAS, "ENU", t, p, q, {})
        t[0] = 9.0
        assert log.t[0] == 0.0
        assert not (log.t.flags.writeable or log.p.flags.writeable or log.q.flags.writeable)
        assert log.q.tolist() == [
            list(Quaternion(0.0, 0.0, 0.0, 2.0).as_array()),
            list(Quaternion(0.0, 0.0, 1.0, 1.0).as_array()),
        ]

    def test_samples_are_built_once_on_request(self):
        _, adas = generate_synthetic("circle", 2.0, 10.0, 1.0)
        assert "samples" not in vars(adas)
        first = adas.samples
        assert adas.samples is first and len(first) == len(adas) == 20
        assert all(a is b for a, b in zip(adas, first))
        for k, pose in enumerate(first):
            assert pose.timestamp == adas.t[k]
            assert pose.translation.tolist() == adas.p[k].tolist()
            assert pose.rotation.as_array().tolist() == adas.q[k].tolist()


class TestExport:
    def random_log(self, n=1000):
        samples = []
        t = 0.0
        for _ in range(n):
            t += float(RNG.uniform(0.001, 0.1))
            q = Quaternion.from_array(RNG.normal(size=4))
            samples.append(Pose(t, RNG.normal(size=3) * 100, q, WORLD, BODY_ADAS))
        return log_of(samples, Agent.ADAS, {"source": "rng"})

    def test_round_trip_is_exact(self, tmp_path):
        log = self.random_log()
        path = tmp_path / "rt.csv"
        export_trajectory(log, path)
        back = load_trajectory(path)
        assert back.agent == log.agent
        assert back.metadata == log.metadata
        assert len(back) == len(log)
        for a, b in zip(log.samples, back.samples):
            assert a.timestamp == b.timestamp
            assert np.array_equal(a.translation, b.translation)
            assert a.rotation.as_array().tolist() == b.rotation.as_array().tolist()

    def test_empty_log_header_only(self, tmp_path):
        log = TrajectoryLog(Agent.SMART, "ENU", [], np.empty((0, 3)), np.empty((0, 4)), {})
        path = tmp_path / "empty.csv"
        export_trajectory(log, path)
        lines = path.read_text().splitlines()
        assert lines == ["#agent=smart", "#convention=ENU", ",".join(HEADER_COLUMNS)]
        assert len(load_trajectory(path)) == 0

    def test_byte_determinism(self, tmp_path):
        log = self.random_log(50)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trajectory(log, p1)
        export_trajectory(log, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_estimate_export_columns_and_load(self, tmp_path):
        x = np.zeros((5, 15))
        x[:, 0] = np.arange(5.0)
        x[:, 1] = 2.0 * np.arange(5.0)
        x[:, 5] = 0.1 * np.arange(5.0)
        variances = np.tile(np.arange(1.0, 16.0), (5, 1))
        path = tmp_path / "est.csv"
        write_estimate_csv(*estimate_track(np.arange(5.0), x, variances), path)
        lines = path.read_text().splitlines()
        assert lines[2] == ",".join(ESTIMATE_COLUMNS)
        first = lines[3].split(",")
        assert len(first) == 12
        np.testing.assert_allclose(
            [float(v) for v in first[8:]],
            np.sqrt([1.0, 2.0, 3.0, 6.0]),
        )
        back = load_trajectory(path)  # extra columns ignored
        assert len(back) == 5
        assert back.samples[3].rotation.to_euler()[2] == pytest.approx(0.3)


class TestSynchronize:
    def make_logs(self, skew):
        smart = log_of(
            [
                Pose(k * 0.1 + skew, np.zeros(3), Quaternion.identity(), WORLD, BODY_SMART)
                for k in range(20)
            ],
            Agent.SMART,
        )
        adas = log_of(
            [
                Pose(k * 0.1, np.array([1.0, 0, 0]), Quaternion.identity(), WORLD, BODY_ADAS)
                for k in range(20)
            ],
            Agent.ADAS,
        )
        return smart, adas

    def test_zero_offset_unchanged(self):
        smart, adas = self.make_logs(0.55)
        out_s, out_a = synchronize(smart, adas, SyncSpec(0.0, Agent.ADAS))
        assert out_s is smart and out_a is adas

    def test_offset_applies_to_non_reference(self):
        smart, adas = self.make_logs(0.55)
        out_s, out_a = synchronize(smart, adas, SyncSpec(1.5, Agent.SMART))
        assert out_s is smart
        for before, after in zip(adas.samples, out_a.samples):
            assert after.timestamp == before.timestamp + 1.5

    def test_alignment_brings_pairs_inside_gate(self):
        from coloc.perception import pair_streams

        smart, adas = self.make_logs(0.55)
        assert len(pair_streams(smart, adas, 0.03)) == 0
        out_s, out_a = synchronize(smart, adas, SyncSpec(-0.55, Agent.ADAS))
        assert len(pair_streams(out_s, out_a, 0.03)) == 20

    def test_same_agent_rejected(self):
        _, adas = self.make_logs(0.0)
        with pytest.raises(DataError):
            synchronize(adas, adas, SyncSpec(0.0, Agent.ADAS))

    def test_shift_below_zero_rejected(self):
        smart, adas = self.make_logs(0.5)
        with pytest.raises(DataError, match="timestamp"):
            synchronize(smart, adas, SyncSpec(-10.0, Agent.SMART))

    def test_nonfinite_offset_rejected(self):
        with pytest.raises(ValueError):
            SyncSpec(math.inf, Agent.ADAS)


class TestGenerateSynthetic:
    def test_straight_sample_count_and_length(self):
        smart, adas = generate_synthetic("straight", 10.0, 10.0, 1.0)
        assert len(adas) == 100
        d = np.linalg.norm(adas.samples[-1].translation - adas.samples[0].translation)
        # One sample period short of the nominal 10 m is expected.
        assert 10.0 - 1.0 / 10.0 - 1e-9 <= d <= 10.0 + 1e-9

    def test_straight_relative_pose_is_constant_gap(self):
        gap = 4.0
        smart, adas = generate_synthetic("straight", 5.0, 20.0, 2.0, gap=gap)
        for sp, ap in zip(smart.samples, adas.samples):
            rel = relative_pose(sp, ap)
            np.testing.assert_allclose(rel.translation, [-gap, 0.0, 0.0], atol=1e-9)
            assert rotation_geodesic(rel.rotation, Quaternion.identity()) < 1e-12

    def test_circle_winds_once_and_closes(self):
        smart, adas = generate_synthetic("circle", 20.0, 10.0, 2.0)
        yaws = np.unwrap([p.rotation.to_euler()[2] for p in adas.samples])
        n = len(adas)
        total = yaws[-1] - yaws[0]
        assert abs(total - 2 * math.pi * (n - 1) / n) < 1e-6
        d = np.linalg.norm(adas.samples[-1].translation - adas.samples[0].translation)
        assert d <= 2.0 / 10.0 + 1e-9

    def test_figure_eight_closes_and_stays_planar(self):
        smart, adas = generate_synthetic("figure-eight", 30.0, 20.0, 3.0)
        d = np.linalg.norm(adas.samples[-1].translation - adas.samples[0].translation)
        assert d <= 1.5 * 3.0 / 20.0
        assert all(p.translation[2] == 0.0 for p in adas.samples)

    def test_headings_are_tangent(self):
        for kind in ("circle", "figure-eight", "waypoint-spline"):
            _, adas = generate_synthetic(kind, 20.0, 20.0, 2.0, seed=5)
            pts = np.array([p.translation[:2] for p in adas.samples])
            yaws = [p.rotation.to_euler()[2] for p in adas.samples]
            steps = np.diff(pts, axis=0)
            for k in range(0, len(steps), 17):
                step = steps[k] / np.linalg.norm(steps[k])
                heading = np.array([math.cos(yaws[k]), math.sin(yaws[k])])
                assert float(step @ heading) > 0.995

    def test_follower_gap_bounded(self):
        for kind in ("straight", "circle", "figure-eight", "waypoint-spline"):
            smart, adas = generate_synthetic(kind, 15.0, 10.0, 2.0, gap=6.0)
            gaps = [
                np.linalg.norm(sp.translation - ap.translation)
                for sp, ap in zip(smart.samples, adas.samples)
            ]
            assert max(gaps) <= 6.0 + 1e-9
            assert min(gaps) > 0.5

    def test_deterministic_given_seed(self, tmp_path):
        a1, b1 = generate_synthetic("waypoint-spline", 10.0, 10.0, 2.0, seed=3)
        a2, b2 = generate_synthetic("waypoint-spline", 10.0, 10.0, 2.0, seed=3)
        export_trajectory(a1, tmp_path / "a1.csv")
        export_trajectory(a2, tmp_path / "a2.csv")
        assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()
        for p, q in zip(b1.samples, b2.samples):
            assert np.array_equal(p.translation, q.translation)

    def test_seed_changes_spline_path(self):
        _, b1 = generate_synthetic("waypoint-spline", 10.0, 10.0, 2.0, seed=3)
        _, b2 = generate_synthetic("waypoint-spline", 10.0, 10.0, 2.0, seed=4)
        assert not np.allclose(b1.samples[-1].translation, b2.samples[-1].translation)

    def test_import_leaves_spline_package_unloaded(self):
        # only the waypoint-spline path needs scipy.interpolate, which costs
        # tens of MB to load, so importing the package must not pull it in
        import os
        import subprocess
        import sys
        from pathlib import Path

        import coloc

        env = dict(os.environ, PYTHONPATH=str(Path(coloc.__file__).resolve().parents[1]))
        probe = (
            "import sys, coloc; loaded = 'scipy.interpolate' in sys.modules; "
            "coloc.generate_synthetic('waypoint-spline', 2.0, 10.0, 2.0); "
            "print(loaded, 'scipy.interpolate' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.split() == ["False", "True"]

    def test_runs_and_sweeps_leave_scipy_unloaded(self, tmp_path):
        # the filter solves with numpy's LAPACK gufunc, so a figure-eight run
        # and an in-process sweep need no scipy module at all
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import coloc

        env = dict(os.environ, PYTHONPATH=str(Path(coloc.__file__).resolve().parents[1]))
        probe = (
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "from coloc import cli, harness\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "loaded = [scipy_modules()]\n"
            "cfg = harness.load_config(sys.argv[1])\n"
            "harness.execute_run(cfg, 0)\n"
            "loaded.append(scipy_modules())\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "loaded.append(scipy_modules())\n"
            "print(json.dumps([code, loaded]))\n"
        )
        config = {
            "input": {"synthetic": {"kind": "figure-eight", "duration": 2.0, "rate": 50.0}},
            "seeds": [0],
            "sweep": {"sigma_grid": [0.3], "gamma_grid": [10.0]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = subprocess.run(
            [sys.executable, "-c", probe, str(path), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert json.loads(out.stdout) == [0, [[], [], []]]
        assert (tmp_path / "out" / "report.json").is_file()

    def test_timestamps_regular_from_zero(self):
        _, adas = generate_synthetic("straight", 2.0, 50.0, 1.0)
        ts = adas.t
        assert ts[0] == 0.0
        np.testing.assert_allclose(np.diff(ts), 0.02, atol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_synthetic("straight", -1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            generate_synthetic("straight", 10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            generate_synthetic("straight", 10.0, 10.0, -2.0)
        with pytest.raises(ValueError):
            generate_synthetic("zigzag", 10.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            generate_synthetic("straight", 0.05, 10.0, 1.0)  # fewer than 2 samples

    def test_metadata_recorded(self):
        smart, _ = generate_synthetic("circle", 10.0, 10.0, 1.0, seed=7, gap=3.0)
        assert smart.metadata["kind"] == "circle"
        assert float(smart.metadata["gap"]) == 3.0
        assert int(smart.metadata["seed"]) == 7


class TestNearestInTime:
    def test_matches_linear_scan_with_ties_to_the_earlier_stamp(self):
        from coloc.dataio import nearest_in_time

        rng = np.random.default_rng(5)
        ref = np.sort(rng.choice(np.arange(0.0, 50.0, 0.25), size=120, replace=False))
        # quarter-second grid: many queries fall exactly halfway between two stamps
        query = np.sort(np.concatenate([rng.uniform(-2.0, 52.0, 300), np.arange(-1.0, 51.0, 0.125)]))
        got = nearest_in_time(ref, query)
        for q, i in zip(query.tolist(), got.tolist()):
            gaps = np.abs(ref - q)
            assert i == int(np.flatnonzero(gaps == gaps.min())[0])

    def test_single_reference_stamp(self):
        from coloc.dataio import nearest_in_time

        assert nearest_in_time(np.array([3.0]), np.array([0.0, 3.0, 9.0])).tolist() == [0, 0, 0]
