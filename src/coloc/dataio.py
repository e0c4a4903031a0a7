"""Trajectory logs: CSV ingestion/export, clock sync, synthetic generation.

File format (normative for export, bit-exact across runs):

* UTF-8 CSV with header ``t,x,y,z,qx,qy,qz,qw``; one sample per line, SI
  units, quaternion scalar-last.
* ``#key=value`` comment lines may precede the header; ``agent=smart|adas``
  and ``convention=NED|ENU`` are understood, anything else is carried as
  opaque metadata.
* Estimate exports append per-axis 1-sigma columns ``sx,sy,sz,syaw``; extra
  columns after the canonical eight are ignored on load.

North-east-down inputs are converted to east-north-up at the boundary, so
everything downstream of this module speaks ENU only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .geometry import Agent, euler_to_quaternions, ned_to_enu_arrays, normalize_quaternions

HEADER_COLUMNS = ("t", "x", "y", "z", "qx", "qy", "qz", "qw")
ESTIMATE_COLUMNS = HEADER_COLUMNS + ("sx", "sy", "sz", "syaw")
QUAT_NORM_TOLERANCE = 1e-6

TRAJECTORY_KINDS = ("straight", "circle", "figure-eight", "waypoint-spline")


@dataclass(frozen=True, eq=False)
class TrajectoryLog:
    """A time-ordered series of world->body poses for one agent.

    The poses are three read-only arrays: stamps ``t`` (N,), translations
    ``p`` (N, 3) and unit quaternions ``q`` (N, 4, scalar-last), each row
    normalized by :func:`normalize_quaternions`.
    """

    agent: Agent
    convention: str
    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.convention not in ("NED", "ENU"):
            raise DataError(f"unknown convention {self.convention!r}")
        t, p, q = (np.array(a, dtype=float) for a in (self.t, self.p, self.q))
        n = len(t) if t.ndim == 1 else -1
        if (t.shape, p.shape, q.shape) != ((n,), (n, 3), (n, 4)):
            raise DataError(f"expected t (N,), p (N, 3) and q (N, 4), got {t.shape}, {p.shape}, {q.shape}")
        if not (np.isfinite(t).all() and np.isfinite(p).all()):
            raise DataError("stamps and translations must be finite")
        if n and t.min() < 0.0:
            raise DataError(f"timestamp {t.min()} is negative")
        steps = np.flatnonzero(np.diff(t) <= 0.0)
        if steps.size:
            i = int(steps[0]) + 1
            raise DataError(f"sample {i}: timestamp {t[i]} not strictly increasing")
        try:
            q = normalize_quaternions(q)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        for name, a in (("t", t), ("p", p), ("q", q)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.t)

    def duration(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(self.t[-1] - self.t[0])


@dataclass(frozen=True)
class SyncSpec:
    """Constant clock correction: shift the non-reference agent's stamps."""

    offset_seconds: float
    reference: Agent

    def __post_init__(self) -> None:
        if not math.isfinite(self.offset_seconds):
            raise ValueError(f"offset must be finite, got {self.offset_seconds}")


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _parse_metadata_line(line: str, lineno: int, path: Path) -> tuple[str, str]:
    body = line[1:].strip()
    if "=" not in body:
        raise DataError(f"{path}:{lineno}: comment is not key=value: {line!r}")
    key, _, value = body.partition("=")
    return key.strip(), value.strip()


def _read_preamble(lines: list[str], path: Path) -> tuple[dict[str, str], int, int]:
    """Metadata comments and the header: (metadata, column count, header line number)."""
    metadata: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, value = _parse_metadata_line(line, lineno, path)
            metadata[key] = value
            continue
        fields = [f.strip() for f in line.split(",")]
        if tuple(fields[: len(HEADER_COLUMNS)]) != HEADER_COLUMNS:
            raise DataError(
                f"{path}:{lineno}: header must start with {','.join(HEADER_COLUMNS)}, got {line!r}"
            )
        return metadata, len(fields), lineno
    raise DataError(f"{path}: no header line found")


def _float_error(field: str) -> ValueError | None:
    try:
        float(field.strip())
    except ValueError as exc:
        return exc
    return None


_PARSE_CHUNK = 4096  # data lines parsed at once


def _first_columns(lines: list[str], n_cols: int) -> list[list[str]]:
    """The first eight fields of every line, one list of strings per column."""
    fields = ",".join(lines).split(",") if lines else []
    return [fields[c :: n_cols] for c in range(len(HEADER_COLUMNS))]


def _read_rows(body: list[str], first_lineno: int, n_cols: int, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Line numbers (N,) and the first eight fields as floats (N, 8) of the data lines.

    Blank lines are skipped.  A comment, a line with the wrong number of
    columns, an unparseable number or a non-finite value is an error; of
    several, the one on the earliest line is reported.
    """
    linenos = np.arange(first_lineno, first_lineno + len(body))
    width_ok = np.fromiter(map(str.count, body, repeat(",")), np.intp, len(body)) == n_cols - 1
    odd = np.flatnonzero(~width_ok).tolist()
    blank = np.zeros(len(body), bool)
    blank[[k for k in odd if not body[k].strip()]] = True
    comment = np.zeros(len(body), bool)
    if any("#" in line for line in body):
        comment[:] = [line.lstrip().startswith("#") for line in body]
    rows = np.flatnonzero(width_ok & ~comment)
    lines = body if len(rows) == len(body) else [body[k] for k in rows.tolist()]
    values = np.empty((len(rows), len(HEADER_COLUMNS)))
    try:
        # chunk by chunk, which bounds the number of field strings alive at once
        for lo in range(0, len(lines), _PARSE_CHUNK):
            columns = _first_columns(lines[lo : lo + _PARSE_CHUNK], n_cols)
            values[lo : lo + len(columns[0])] = np.array(
                [np.fromiter(map(float, col), float, len(col)) for col in columns]
            ).T
        unparsed = np.zeros(len(rows), bool)
    except ValueError:
        # error path: each field's parse error, None where it parses
        columns = _first_columns(lines, n_cols)
        errors = [[_float_error(f) for f in col] for col in columns]
        unparsed = np.array([[e is not None for e in errs] for errs in errors]).T.any(axis=1)
        values = np.array(
            [[math.nan if e else float(f) for f, e in zip(col, errs)] for col, errs in zip(columns, errors)]
        ).T
    nonfinite = ~unparsed & ~np.isfinite(values).all(axis=1)

    faults = []  # (line number, message) of the first fault of each kind
    if comment.any():
        k = int(np.argmax(comment))
        faults.append((linenos[k], "comments are only allowed before the header"))
    wrong = ~width_ok & ~blank & ~comment
    if wrong.any():
        k = int(np.argmax(wrong))
        faults.append((linenos[k], f"expected {n_cols} columns, got {body[k].count(',') + 1}"))
    if unparsed.any():
        r = int(np.argmax(unparsed))
        exc = next(errs[r] for errs in errors if errs[r] is not None)
        faults.append((linenos[rows[r]], f"unparseable number: {exc}"))
    if nonfinite.any():
        faults.append((linenos[rows[int(np.argmax(nonfinite))]], "non-finite field"))
    if faults:
        lineno, message = min(faults)
        raise DataError(f"{path}:{lineno}: {message}")
    return linenos[rows], values


def _check_rows(linenos: np.ndarray, t: np.ndarray, q: np.ndarray, path: Path) -> None:
    """Per-sample checks on parsed rows: unit quaternion, increasing and non-negative stamps.

    Of several faults the one on the earliest row is reported, and on one
    row the quaternion comes before the stamp order and the stamp sign.
    """
    off_unit = np.abs(np.linalg.norm(q, axis=1) - 1.0) > QUAT_NORM_TOLERANCE
    not_after = np.zeros(len(t), bool)
    not_after[1:] = t[1:] <= t[:-1]
    negative = t < 0.0
    faulty = off_unit | not_after | negative
    if not faulty.any():
        return
    k = int(np.argmax(faulty))
    lineno, stamp = int(linenos[k]), float(t[k])
    if off_unit[k]:
        norm = float(np.linalg.norm(q[k]))
        raise DataError(f"{path}:{lineno}: quaternion norm {norm:.8f} is off unit beyond 1e-6")
    if not_after[k]:
        raise DataError(
            f"{path}: row {k + 1} (line {lineno}): timestamp {stamp} does not increase "
            f"past row {k}'s {float(t[k - 1])}"
        )
    raise DataError(f"{path}:{lineno}: timestamp must be finite and non-negative, got {stamp}")


def load_trajectory(path) -> TrajectoryLog:
    """Read one trajectory CSV; validate; convert NED inputs to ENU."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc

    lines = text.splitlines()
    metadata, n_cols, header_lineno = _read_preamble(lines, path)
    linenos, values = _read_rows(lines[header_lineno:], header_lineno + 1, n_cols, path)

    agent_name = metadata.pop("agent", "adas")
    try:
        agent = Agent(agent_name)
    except ValueError as exc:
        raise DataError(f"{path}: unknown agent {agent_name!r}") from exc
    convention = metadata.pop("convention", "ENU")
    if convention not in ("NED", "ENU"):
        raise DataError(f"{path}: unknown convention {convention!r}")

    t, p, q = values[:, 0], values[:, 1:4], values[:, 4:8]
    _check_rows(linenos, t, q, path)
    q = normalize_quaternions(q)
    if convention == "NED":
        p, q = ned_to_enu_arrays(p, q)
    return TrajectoryLog(agent, "ENU", t, p, q, metadata)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def write_table(path, comments: Sequence[str], columns: Sequence[str], values) -> None:
    """A CSV of float rows: ``#`` comment lines, the header, each value as ``repr(float)``."""
    values = np.asarray(values, dtype=float).reshape(-1, len(columns))
    lines = [f"#{c}" for c in comments] + [",".join(columns)]
    if len(values):
        row = ",".join(["%r"] * len(columns))
        lines.append("\n".join([row] * len(values)) % tuple(values.ravel().tolist()))
    path = Path(path)
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def export_trajectory(log: TrajectoryLog, path) -> None:
    """Write a log in the canonical CSV format; loading it back is lossless."""
    comments = [f"agent={log.agent.value}", f"convention={log.convention}"]
    comments += [f"{key}={log.metadata[key]}" for key in sorted(log.metadata)]
    write_table(path, comments, HEADER_COLUMNS, np.column_stack([log.t, log.p, log.q]))


def estimate_track(
    t, x, variances, agent: Agent = Agent.ADAS
) -> tuple[TrajectoryLog, np.ndarray]:
    """Filter estimates as a world-frame log plus their 1-sigma on x, y, z and yaw.

    ``t`` (N,) are the stamps, ``x`` (N, k) the states and ``variances``
    (N, k) the covariance diagonals, k >= 6: only the pose block, columns
    0-5, is read.  Returns the log and an (N, 4) 1-sigma array; tiny
    negative rounding on a diagonal gives a 1-sigma of 0.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(variances, dtype=float)[:, [0, 1, 2, 5]]
    log = TrajectoryLog(agent, "ENU", t, x[:, 0:3], euler_to_quaternions(x[:, 3:6]))
    return log, np.sqrt(np.where(d > 0.0, d, 0.0))


def write_estimate_csv(track: TrajectoryLog, sd, path) -> None:
    """An estimate log with its (N, 4) 1-sigma columns, loadable as a trajectory CSV."""
    write_table(
        path,
        [f"agent={track.agent.value}", f"convention={track.convention}"],
        ESTIMATE_COLUMNS,
        np.column_stack([track.t, track.p, track.q, np.reshape(sd, (-1, 4))]),
    )


# ---------------------------------------------------------------------------
# Synchronization
# ---------------------------------------------------------------------------

def _shift_log(log: TrajectoryLog, offset: float) -> TrajectoryLog:
    if offset == 0.0:
        return log
    try:
        return replace(log, t=log.t + offset)
    except DataError as exc:
        raise DataError(f"clock shift by {offset} s produced an invalid timestamp: {exc}") from exc


def synchronize(a: TrajectoryLog, b: TrajectoryLog, spec: SyncSpec) -> tuple[TrajectoryLog, TrajectoryLog]:
    """Apply the constant offset to whichever log is not the reference."""
    if a.agent == b.agent:
        raise DataError("synchronize needs logs from two different agents")
    if spec.reference == a.agent:
        return a, _shift_log(b, spec.offset_seconds)
    return _shift_log(a, spec.offset_seconds), b


def nearest_in_time(ref_ts: np.ndarray, query_ts: np.ndarray) -> np.ndarray:
    """Index of the nearest reference stamp for every query stamp.

    Both arrays must be time-ordered and ``ref_ts`` non-empty.  Of two
    equally near reference stamps the earlier one wins.
    """
    idx = np.searchsorted(ref_ts, query_ts)
    before = np.maximum(idx - 1, 0)
    after = np.minimum(idx, len(ref_ts) - 1)
    take_after = (idx == 0) | (
        (idx < len(ref_ts)) & (np.abs(ref_ts[after] - query_ts) < np.abs(ref_ts[before] - query_ts))
    )
    return np.where(take_after, after, before)


# ---------------------------------------------------------------------------
# Synthetic trajectories
# ---------------------------------------------------------------------------

class _PlanarPath:
    """Arc-length parametrized planar curve with tangent headings."""

    def poses_at(self, s: np.ndarray):  # -> (x[], y[], yaw[])
        raise NotImplementedError


class _StraightPath(_PlanarPath):
    def poses_at(self, s):
        s = np.asarray(s, dtype=float)
        return s.copy(), np.zeros(len(s)), np.zeros(len(s))


class _CirclePath(_PlanarPath):
    def __init__(self, radius: float):
        self.radius = radius

    def poses_at(self, s):
        theta = np.asarray(s, dtype=float) / self.radius
        return self.radius * np.sin(theta), self.radius * (1.0 - np.cos(theta)), theta


class _SampledPath(_PlanarPath):
    """Path defined by dense samples of an underlying parametric curve.

    A cumulative chord-length table inverts arc length to curve parameter;
    headings come from the analytic derivative at that parameter.
    """

    def __init__(self, u, xy, dxy_du, closed: bool):
        self._u = u
        seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
        self._s = np.concatenate([[0.0], np.cumsum(seg)])
        self._xy = xy
        self._dxy = dxy_du
        self.length = float(self._s[-1])
        self._closed = closed

    def poses_at(self, s):
        s = np.asarray(s, dtype=float)
        if self._closed:
            s = np.fmod(s, self.length)
        elif np.any(s > self.length):
            raise ValueError(f"arc length beyond open path length {self.length}")
        x = np.interp(s, self._s, self._xy[:, 0])
        y = np.interp(s, self._s, self._xy[:, 1])
        u = np.interp(s, self._s, self._u)
        dx, dy = self._dxy(u)
        return x, y, np.arctan2(dy, dx)


def _figure_eight_path(total_length: float) -> _SampledPath:
    # Lissajous figure-eight x = A sin u, y = (A/2) sin 2u, scaled so one
    # full circuit has the requested arc length.
    u = np.linspace(0.0, 2.0 * math.pi, 20001)
    unit = np.column_stack([np.sin(u), 0.5 * np.sin(2.0 * u)])
    seg = np.linalg.norm(np.diff(unit, axis=0), axis=1)
    amplitude = total_length / float(seg.sum())
    xy = amplitude * unit

    def dxy_du(uu):
        return amplitude * np.cos(uu), amplitude * np.cos(2.0 * uu)

    return _SampledPath(u, xy, dxy_du, closed=True)


class _PiecewisePolynomial:
    """Piecewise polynomial in scipy's ``PPoly`` layout, evaluated as it does.

    ``c`` is (order + 1, n - 1, 2): ``c[m, k]`` multiplies
    ``(u - x[k]) ** (order - m)`` on ``[x[k], x[k+1])``.  Points outside the
    knot range fall in the first or last interval.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x = x
        self.c = c

    def derivative(self) -> "_PiecewisePolynomial":
        order = len(self.c) - 1
        return _PiecewisePolynomial(self.x, self.c[:-1] * np.arange(order, 0, -1.0)[:, None, None])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        k = np.clip(np.searchsorted(self.x, u, side="right") - 1, 0, len(self.x) - 2)
        s = (u - self.x[k])[:, None]
        c = self.c[:, k]
        # PPoly's power sum: from the constant term up, each power of s
        # built by repeated multiplication
        value = 0.0 + c[-1]
        power = s
        for coeff in c[-2::-1]:
            value = value + coeff * power
            power = power * s
        return value


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> _PiecewisePolynomial:
    """``scipy.interpolate.CubicSpline(x, y, axis=0)`` with its default
    not-a-knot ends, for n >= 4 increasing knots and (n, 2) values.

    Every operation is scipy's, in scipy's order, so the coefficients carry
    the same bits: the tridiagonal system of ``CubicSpline.__init__``, solved
    as LAPACK ``dgtsv`` solves it, then the coefficients of
    ``CubicHermiteSpline``.
    """
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # the three bands of the system, as dgtsv takes them
    dl = np.concatenate([dx[1:], [x[-1] - x[-3]]])
    d = np.concatenate([[dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]])
    du = np.concatenate([[x[2] - x[0]], dx[:-1]])
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    first = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * first) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / first
    last = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * last + dxr[-1]) * dxr[-2] * slope[-1]) / last
    # dgtsv swaps rows i and i+1 only when |d[i]| < |dl[i]|.  Here d[0] and
    # dl[0] are both dx[1], and with the waypoints' unit-step chords every
    # later pivot is 2 or more (tending to 2 + sqrt 3) against a sub-diagonal
    # of 1, or of 2 at the last row: the swap never happens, so its branch
    # is not ported.
    n = len(x)
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        b[i + 1] = b[i + 1] - fact * b[i]
        dl[i] = 0.0  # dgtsv keeps the (zero) fill-in and subtracts it below
    b[-1] = b[-1] / d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    t = (b[:-1] + b[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - b[:-1]) / dxr - t, b[:-1], y[:-1]))
    return _PiecewisePolynomial(x, c)


def _waypoint_chain(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Chord-length knots (10,) and the seeded meandering waypoints (10, 2)."""
    rng = np.random.default_rng(seed)
    n_way = 9
    headings = np.cumsum(np.concatenate([[0.0], rng.uniform(-0.7, 0.7, n_way - 1)]))
    steps = np.column_stack([np.cos(headings), np.sin(headings)])
    waypoints = np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)])
    chord = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(waypoints, axis=0), axis=1))])
    return chord, waypoints


def _waypoint_spline_path(required_length: float, seed: int) -> _SampledPath:
    # A seeded waypoint chain, interpolated with a not-a-knot cubic spline
    # and rescaled so the smooth path is comfortably long enough.
    chord, waypoints = _waypoint_chain(seed)
    spline = _not_a_knot_spline(chord, waypoints)
    deriv = spline.derivative()

    u = np.linspace(0.0, chord[-1], 20001)
    xy = spline(u)
    seg_len = float(np.linalg.norm(np.diff(xy, axis=0), axis=1).sum())
    scale = 1.02 * required_length / seg_len
    xy = xy * scale

    def dxy_du(uu):
        d = deriv(uu)
        return d[..., 0] * scale, d[..., 1] * scale

    return _SampledPath(u, xy, dxy_du, closed=False)


def _build_path(kind: str, follower_length: float, gap: float, seed: int) -> _PlanarPath:
    if kind == "straight":
        return _StraightPath()
    if kind == "circle":
        return _CirclePath(follower_length / (2.0 * math.pi))
    if kind == "figure-eight":
        return _figure_eight_path(follower_length)
    if kind == "waypoint-spline":
        return _waypoint_spline_path(follower_length + gap, seed)
    raise ValueError(f"unknown trajectory kind {kind!r}; choose one of {TRAJECTORY_KINDS}")


def generate_synthetic(
    kind: str,
    duration: float,
    rate: float,
    speed: float,
    seed: int = 0,
    gap: float = 5.0,
) -> tuple[TrajectoryLog, TrajectoryLog]:
    """Two smooth ground-truth logs: the follower trails the leader by ``gap``.

    Both vehicles traverse the same planar path at constant speed with
    tangent headings; the leader runs ``gap`` meters of arc length ahead.
    Closed paths (circle, figure-eight) are sized so the follower completes
    exactly one circuit in ``duration`` seconds.
    """
    if not all(map(math.isfinite, (duration, rate, speed, gap))):
        raise ValueError(
            f"duration, rate, speed and gap must be finite, got {duration}, {rate}, {speed}, {gap}"
        )
    if not (duration > 0.0 and rate > 0.0 and speed > 0.0):
        raise ValueError(f"duration, rate, speed must all be > 0, got {duration}, {rate}, {speed}")
    if gap < 0.0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    n = int(math.floor(duration * rate + 1e-9))
    if n < 2:
        raise ValueError("duration and rate give fewer than 2 samples")
    path = _build_path(kind, duration * speed, gap, seed)

    def make_log(agent: Agent, lead: float) -> TrajectoryLog:
        t = np.arange(n) / rate
        xs, ys, yaws = path.poses_at(speed * t + lead)
        zeros = np.zeros(n)
        # the rotation about z by every heading; the log normalizes the rows
        half = 0.5 * yaws
        q = np.column_stack([zeros, zeros, np.sin(half), np.cos(half)])
        metadata = {
            "kind": kind,
            "rate": repr(float(rate)),
            "speed": repr(float(speed)),
            "duration": repr(float(duration)),
            "gap": repr(float(gap)),
            "seed": repr(int(seed)),
        }
        return TrajectoryLog(agent, "ENU", t, np.column_stack([xs, ys, zeros]), q, metadata)

    return make_log(Agent.SMART, gap), make_log(Agent.ADAS, 0.0)
