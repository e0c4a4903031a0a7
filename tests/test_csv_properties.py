"""Property tests of the trajectory CSV reader and writer.

Oracle: a per-row loader that parses one line at a time and builds one
validated ``Pose`` per row, with the NED->ENU conversion written out on
``Quaternion`` objects.  The array reader in ``coloc.dataio`` must give the
same bits for every well-formed file and the same ``DataError`` text for
every file with one fault.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from coloc.dataio import (
    HEADER_COLUMNS,
    QUAT_NORM_TOLERANCE,
    TrajectoryLog,
    _build_path,
    export_trajectory,
    generate_synthetic,
    load_trajectory,
)
from coloc.errors import DataError
from coloc.geometry import WORLD, Agent, body_frame
from pose_objects import Pose, Quaternion, quat_yaw

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

_Q_WORLD_NED_TO_ENU = Quaternion(math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0)
_Q_BODY_FRD_TO_FLU = Quaternion(1.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Reference: the per-row loader
# ---------------------------------------------------------------------------

def reference_load(path):
    """(agent, metadata, t, p, q) of a trajectory CSV, one row at a time."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    metadata: dict[str, str] = {}
    rows: list[tuple[int, list[float]]] = []
    n_cols = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if n_cols is not None:
                raise DataError(f"{path}:{lineno}: comments are only allowed before the header")
            body = line[1:].strip()
            if "=" not in body:
                raise DataError(f"{path}:{lineno}: comment is not key=value: {line!r}")
            key, _, value = body.partition("=")
            metadata[key.strip()] = value.strip()
            continue
        fields = [f.strip() for f in line.split(",")]
        if n_cols is None:
            if tuple(fields[: len(HEADER_COLUMNS)]) != HEADER_COLUMNS:
                raise DataError(
                    f"{path}:{lineno}: header must start with {','.join(HEADER_COLUMNS)}, got {line!r}"
                )
            n_cols = len(fields)
            continue
        if len(fields) != n_cols:
            raise DataError(f"{path}:{lineno}: expected {n_cols} columns, got {len(fields)}")
        try:
            values = [float(f) for f in fields[: len(HEADER_COLUMNS)]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparseable number: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{path}:{lineno}: non-finite field")
        rows.append((lineno, values))
    if n_cols is None:
        raise DataError(f"{path}: no header line found")

    agent_name = metadata.pop("agent", "adas")
    try:
        agent = Agent(agent_name)
    except ValueError as exc:
        raise DataError(f"{path}: unknown agent {agent_name!r}") from exc
    convention = metadata.pop("convention", "ENU")
    if convention not in ("NED", "ENU"):
        raise DataError(f"{path}: unknown convention {convention!r}")

    child = body_frame(agent)
    samples = []
    prev_t = prev_row = None
    for row_idx, (lineno, v) in enumerate(rows, start=1):
        t = v[0]
        quat = np.array(v[4:8])
        norm = float(np.linalg.norm(quat))
        if abs(norm - 1.0) > QUAT_NORM_TOLERANCE:
            raise DataError(f"{path}:{lineno}: quaternion norm {norm:.8f} is off unit beyond 1e-6")
        if prev_t is not None and t <= prev_t:
            raise DataError(
                f"{path}: row {row_idx} (line {lineno}): timestamp {t} does not increase "
                f"past row {prev_row}'s {prev_t}"
            )
        try:
            pose = Pose(t, np.array(v[1:4]), Quaternion.from_array(quat), WORLD, child)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        samples.append(pose)
        prev_t, prev_row = t, row_idx

    t = np.array([s.timestamp for s in samples], dtype=float)
    p = np.array([s.translation for s in samples], dtype=float).reshape(-1, 3)
    if convention == "NED":
        p = np.array([[e, n, -d] for n, e, d in p.tolist()], dtype=float).reshape(-1, 3)
        rotations = [_Q_WORLD_NED_TO_ENU * s.rotation * _Q_BODY_FRD_TO_FLU for s in samples]
    else:
        rotations = [s.rotation for s in samples]
    q = np.array([r.as_array() for r in rotations], dtype=float).reshape(-1, 4)
    return agent, metadata, t, p, q


def outcome(load, path):
    """What a loader makes of a file: its arrays as bits, or its error text."""
    try:
        result = load(path)
    except DataError as exc:
        return "error", str(exc)
    if isinstance(result, TrajectoryLog):
        result = result.agent, result.metadata, result.t, result.p, result.q
    agent, metadata, *arrays = result
    return agent, metadata, [(a.shape, a.tobytes()) for a in arrays]


# ---------------------------------------------------------------------------
# Generated files
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
unit_axis = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: sum(x * x for x in v) > 1e-3
)


@st.composite
def well_formed(draw):
    """(metadata lines, header fields, data rows as field lists, row values)."""
    n = draw(st.integers(0, 12))
    steps = draw(st.lists(st.floats(1e-6, 10.0), min_size=n, max_size=n))
    t0 = draw(st.floats(0.0, 1e4))
    stamps = list(np.cumsum([t0] + steps)[:n]) if n else []
    rows = []
    for k in range(n):
        v = np.array(draw(unit_axis))
        v = v / np.linalg.norm(v) * (1.0 + draw(st.floats(-5e-7, 5e-7)))
        rows.append([float(stamps[k]), *draw(st.lists(finite, min_size=3, max_size=3)), *v.tolist()])
    meta = []
    if draw(st.booleans()):
        meta.append(f"#agent={draw(st.sampled_from(['smart', 'adas']))}")
    meta.append(f"#convention={draw(st.sampled_from(['ENU', 'NED']))}")
    if draw(st.booleans()):
        meta.append("# source = generated ")
    extra = draw(st.sampled_from([(), ("sx", "sy", "sz", "syaw")]))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    fields = [[pad + repr(v) + pad for v in row] + ["0.5"] * len(extra) for row in rows]
    return meta, list(HEADER_COLUMNS + extra), fields, rows


def render(meta, header, fields, blank_after=None):
    lines = list(meta) + [",".join(header)] + [",".join(f) for f in fields]
    if blank_after is not None:
        lines.insert(min(blank_after, len(lines)), "   ")
    return "\n".join(lines) + "\n"


FAULTS = (
    "columns",
    "unparseable",
    "non-finite",
    "quaternion-norm",
    "stamp-order",
    "negative-stamp",
    "comment-after-header",
)


def inject(fault, fields, rows, k, draw):
    """One fault in data row k (changes ``fields`` in place); returns extra lines to insert."""
    if fault == "columns":
        if draw(st.booleans()):
            fields[k].append("1.0")
        else:
            fields[k].pop()
    elif fault == "unparseable":
        fields[k][draw(st.integers(0, 7))] = draw(st.sampled_from(["oops", "1..2", "", " - ", "0x1"]))
    elif fault == "non-finite":
        fields[k][draw(st.integers(0, 7))] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]))
    elif fault == "quaternion-norm":
        scale = draw(st.sampled_from([1.001, 0.5, 2.0, 0.0]))
        for c in range(4, 8):
            fields[k][c] = repr(rows[k][c] * scale)
    elif fault == "stamp-order":
        assume(k > 0)
        fields[k][0] = repr(rows[k - 1][0] - draw(st.sampled_from([0.0, 0.25])))
    elif fault == "negative-stamp":
        fields[0][0] = repr(-draw(st.floats(1e-9, 5.0)))
    elif fault == "comment-after-header":
        return {k: "#late=comment"}
    return {}


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "log.csv"

    def write(text):
        path.write_text(text, encoding="utf-8")
        return path

    return write


@SETTINGS
@given(doc=well_formed(), blank=st.one_of(st.none(), st.integers(0, 20)))
def test_well_formed_files_load_to_the_same_bits(csv_file, doc, blank):
    meta, header, fields, _ = doc
    path = csv_file(render(meta, header, fields, blank_after=blank))
    expected = outcome(reference_load, path)
    assert expected[0] != "error"
    assert outcome(load_trajectory, path) == expected


@SETTINGS
@given(doc=well_formed(), fault=st.sampled_from(FAULTS), data=st.data())
def test_single_fault_files_fail_with_the_same_text(csv_file, doc, fault, data):
    meta, header, fields, rows = doc
    assume(rows)
    k = data.draw(st.integers(0, len(rows) - 1))
    inserted = inject(fault, fields, rows, k, data.draw)
    lines = list(meta) + [",".join(header)] + [",".join(f) for f in fields]
    for row, line in inserted.items():
        lines.insert(len(meta) + 1 + row, line)
    path = csv_file("\n".join(lines) + "\n")
    expected = outcome(reference_load, path)
    assert expected[0] == "error"
    assert outcome(load_trajectory, path) == expected


@pytest.mark.parametrize(
    "text",
    [
        "t,x,y,z,qx,qy,qz,qw\n1,0,0,0,0,0,0,1\n#late\n0,oops,0,0,0,0,0,1\n",
        "t,x,y,z,qx,qy,qz,qw\n1,nan,0,0,0,0,0,1\n0,1,2\n",
        "t,x,y,z,qx,qy,qz,qw\n1,0,0,0,0,0,0,1\n0.5,oops,0,0,0,0,0,nan\n",
        "t,x,y,z,qx,qy,qz,qw\n1,0,0,0,0,0,0,2\n0.5,0,0,0,0,0,0,1\n",
        "t,x,y,z,qx,qy,qz,qw\n1,0,0,0,0,0,0,1\n0.5,0,0,0,0,0,0,1\n-1,0,0,0,0,0,0,3\n",
        "t,x,y,z,qx,qy,qz,qw\n1,0,0,0,0,0,0,1\n0.5,0,0,0,0,0,0,3\n",
        "t,x,y,z,qx,qy,qz,qw\n1,0,0,0,0,0,0,1\n-1,0,0,0,0,0,0,1\n",
        "#agent=boat\nt,x,y,z,qx,qy,qz,qw\n1,0,0,0,0,0,0,2\n",
        "#agent=adas\nt,x,y,z,qx,qy,qz,qw\n  \n1,0,0,0,0,0,0,1\n,,,,,,,\n",
    ],
)
def test_of_several_faults_the_same_one_is_reported(csv_file, text):
    path = csv_file(text)
    expected = outcome(reference_load, path)
    assert expected[0] == "error"
    assert outcome(load_trajectory, path) == expected


@SETTINGS
@given(doc=well_formed())
def test_export_then_load_returns_the_same_arrays(tmp_path, doc):
    meta, header, fields, rows = doc
    values = np.array(rows, dtype=float).reshape(-1, 8)
    log = TrajectoryLog(Agent.SMART, "ENU", values[:, 0], values[:, 1:4], values[:, 4:8], {"k": "v"})
    path = tmp_path / "rt.csv"
    export_trajectory(log, path)
    back = load_trajectory(path)
    assert (back.agent, back.convention, back.metadata) == (log.agent, log.convention, log.metadata)
    for a, b in ((log.t, back.t), (log.p, back.p), (log.q, back.q)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@SETTINGS
@given(
    kind=st.sampled_from(["straight", "circle", "figure-eight", "waypoint-spline"]),
    duration=st.floats(1.0, 20.0),
    rate=st.floats(2.0, 50.0),
    speed=st.floats(0.1, 30.0),
    gap=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**31),
)
def test_synthetic_quaternions_equal_quat_yaw_bit_for_bit(kind, duration, rate, speed, gap, seed):
    smart, adas = generate_synthetic(kind, duration, rate, speed, seed, gap)
    path = _build_path(kind, duration * speed, gap, seed)
    for log, lead in ((smart, gap), (adas, 0.0)):
        _, _, yaws = path.poses_at(speed * log.t + lead)
        expected = np.array([quat_yaw(yaw).as_array() for yaw in yaws.tolist()])
        assert log.q.tobytes() == expected.tobytes()


@SETTINGS
@given(angle=st.floats(-1e6, 1e6))
def test_numpy_sin_cos_equal_math_sin_cos(angle):
    half = np.array([0.5 * angle])
    assert np.sin(half)[0] == math.sin(0.5 * angle)
    assert np.cos(half)[0] == math.cos(0.5 * angle)
