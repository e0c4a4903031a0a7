"""15-state extended Kalman filter and the two-node fusion chain.

State layout (index order is load-bearing for every slice below):

====  =========================  ======
0:3   world/local position       m
3:6   orientation roll/pitch/yaw rad
6:9   body-frame linear velocity m/s
9:12  body angular velocity      rad/s
12:15 body linear acceleration   m/s^2
====  =========================  ======

The motion model is the standard rigid-body kinematic one: position
integrates the body velocity rotated into the parent frame, orientation
integrates body rates through the Euler-rate matrix, velocity integrates
acceleration, and the remaining derivatives hold constant between events.

A filter event is a stamp, a frame, a (B, 6) array of one row of six
floats per member of a batch, and the 6x6 covariance of its channel,
shared by the members or one per member.
:meth:`EkfNode.node1_step` fuses raw local-frame follower pose rows
(x, y, z, roll, pitch, yaw) absolutely, acting as a smoother, and returns
its local->body pose rows.  :meth:`EkfNode.node2_step` estimates in the
world frame and fuses perception-derived world pose rows absolutely.  Its
odometry is node 1's rows turned into body-velocity pseudo-measurements:
:func:`twist_measurements` differences a whole block of consecutive rows in
one array pass (differential fusion: a constant transform applied to both
poses of a pair cancels, so node 2 needs no world->local anchor), and each
odometry event carries one twist row per member.

A node runs B members in lockstep: runs whose events share one stamp
schedule (the seeds and noise cells of a sweep) step as one filter.  The
node keeps its members' states as one (B, 15) float64 array.  A
prediction takes each member's row through the scalar motion model, which
packs the propagated row and its Jacobian entries into float64 buffers:
one scatter moves every member's entries into the transposed (B, 15, 15)
Jacobians.  An update corrects every member's row in one array pass, and
the covariances step as one batch.  Member b's numbers are bit for bit
those of the same member run alone.

All filter arithmetic lives in two kernels, :func:`_predict_kernel` and
:func:`_update_kernel`, over a batch of state rows and covariances, and
:class:`EkfNode` is the one API that runs them: a one-member node at a
given state, stepped at that state's stamp, is a single filter update.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.linalg._umath_linalg import solve as _gesv

from .errors import FrameMismatchError, NumericError, OutOfOrderError
from .geometry import (
    LOCAL,
    WORLD,
    Frame,
    conjugate_quaternions,
    euler_to_quaternions,
    multiply_quaternions,
    rotate_vectors,
    rotation_vectors,
)
from .noise import NoiseSpec

STATE_DIM = 15
POS = slice(0, 3)
ANG = slice(3, 6)
VEL = slice(6, 9)
OMEGA = slice(9, 12)
ACC = slice(12, 15)
POSE_BLOCK = slice(0, 6)
TWIST_BLOCK = slice(6, 12)

_MIN_COS_PITCH = 1e-9

# Default continuous-time process noise (variance per second) per state.
# Pose states get moderate values, velocity slightly less, acceleration least;
# these are conventional ground-vehicle settings and are exposed as config.
DEFAULT_PROCESS_NOISE_DIAG = np.array(
    [
        0.05, 0.05, 0.06,       # position
        0.03, 0.03, 0.06,       # roll, pitch, yaw
        0.025, 0.025, 0.04,     # linear velocity
        0.01, 0.01, 0.02,       # angular velocity
        0.01, 0.01, 0.015,      # linear acceleration
    ]
)


def default_process_noise() -> np.ndarray:
    return np.diag(DEFAULT_PROCESS_NOISE_DIAG)


@lru_cache(maxsize=256)
def _diag_r6(s2: float, g2: float, floor: float) -> np.ndarray:
    r6 = np.diag([s2, s2, floor, floor, floor, g2])
    r6.flags.writeable = False
    return r6


def measurement_covariance(spec: NoiseSpec, floor: float = 1e-6) -> np.ndarray:
    """Diagonal 6x6 pose covariance implied by a noise spec.

    x, y and yaw carry the injected variances; z, roll and pitch receive the
    floor since no noise is ever injected there, and the floor also keeps
    zero-noise channels invertible.  The returned array is read-only and may
    be shared between calls with equal parameters.
    """
    if not (math.isfinite(floor) and floor > 0.0):
        raise ValueError(f"floor must be finite and > 0, got {floor}")
    # s * s overflows to inf where ** would raise; the event checks reject inf
    s2 = max(spec.sigma_trans * spec.sigma_trans, floor)
    g2 = max(spec.gamma_yaw_rad * spec.gamma_yaw_rad, floor)
    return _diag_r6(s2, g2, floor)


def _checked_r6(r6, what: str) -> np.ndarray:
    """A validated, read-only float copy of a 6x6 positive-definite pose covariance.

    Positive definiteness makes every innovation covariance P block + r6 of
    a PSD P positive definite, so the update kernel's solve cannot fail on
    a checked r6.
    """
    arr = np.asarray(r6, dtype=float)
    if arr.shape != (6, 6):
        raise ValueError(f"{what} must be 6x6, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} contains non-finite values")
    if np.abs(arr - arr.T).max() > 1e-9:
        raise ValueError(f"{what} must be symmetric")
    if (np.diagonal(arr) < 0.0).any():
        raise ValueError(f"{what} has negative diagonal entries")
    try:
        np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        raise NumericError(f"{what} is singular or indefinite, not positive definite") from None
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# State and model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StateEstimate:
    """Filter state: 15-vector, covariance and time.

    Construction enforces shape and finiteness and symmetrizes P exactly;
    the PSD invariant is cheap to break-check but expensive to verify every
    step, so :meth:`validate` performs the full eigenvalue test on demand.
    """

    x: np.ndarray
    P: np.ndarray
    timestamp: float

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        P = np.asarray(self.P, dtype=float)
        if x.shape != (STATE_DIM,):
            raise ValueError(f"state must have shape ({STATE_DIM},), got {x.shape}")
        if P.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"covariance must be {STATE_DIM}x{STATE_DIM}, got {P.shape}")
        if not np.all(np.isfinite(x)):
            raise NumericError("state vector contains non-finite values")
        if not np.all(np.isfinite(P)):
            raise NumericError("covariance contains non-finite values")
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")
        P = 0.5 * (P + P.T)
        P.flags.writeable = False
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", P)

    @classmethod
    def _from_kernel(cls, x: np.ndarray, P: np.ndarray, timestamp: float) -> "StateEstimate":
        """Wrap arrays a filter kernel returned: already checked, symmetric, read-only."""
        s = object.__new__(cls)
        object.__setattr__(s, "x", x)
        object.__setattr__(s, "P", P)
        object.__setattr__(s, "timestamp", timestamp)
        return s

    def validate(self, atol: float = 1e-9) -> None:
        """Full covariance health check: symmetry and positive semi-definiteness."""
        if not np.allclose(self.P, self.P.T, atol=atol):
            raise NumericError("covariance is not symmetric")
        if np.linalg.eigvalsh(self.P).min() < -atol:
            raise NumericError("covariance has a significantly negative eigenvalue")
        ang = self.x[ANG]
        if np.any(ang > math.pi) or np.any(ang <= -math.pi):
            raise NumericError("orientation angles are not wrapped to (-pi, pi]")


def _check_psd(P: np.ndarray, what: str) -> None:
    """Reject a covariance with an eigenvalue below rounding level of zero."""
    eig = np.linalg.eigvalsh(P)
    if eig[0] < -1e-9 * max(1.0, eig[-1]):
        raise NumericError(f"{what} is indefinite: smallest eigenvalue {eig[0]:.3g}")


def state_from_row(timestamp: float, z, pose_variance: float = 1e-6, derivative_variance: float = 1e3) -> StateEstimate:
    """Initial state anchored at a known pose row (x, y, z, roll, pitch, yaw), zero derivatives.

    Small variance on the pose block (the start is known), large on the
    derivative blocks (velocities must be learned from data).
    """
    x = np.zeros(STATE_DIM)
    x[POSE_BLOCK] = z
    diag = np.full(STATE_DIM, derivative_variance)
    diag[POSE_BLOCK] = pose_variance
    return StateEstimate(x, np.diag(diag), timestamp)


class MeasurementKind(Enum):
    ODOMETRY_DIFFERENTIAL = "odometry_differential"
    PERCEPTION_ABSOLUTE = "perception_absolute"


_ODOMETRY = MeasurementKind.ODOMETRY_DIFFERENTIAL


class MeasurementEvent(namedtuple("MeasurementEvent", "timestamp kind frame z r6")):
    """One timestamped row per member of a batch, heading into a filter node.

    ``z`` is a (B, 6) float64 array, one row for each of B members: the
    pose of the follower's body in ``frame`` (x, y, z, roll, pitch, yaw),
    or on node 2's odometry channel its body twist (vx, vy, vz, wx, wy, wz)
    since the previous odometry row; the chain's first odometry event has
    no twist, and ``z`` and ``r6`` None.  ``r6`` is the rows' 6x6
    covariance, shared by the members, or a (B, 6, 6) stack, one per
    member.  A covariance must be positive definite and is kept read-only.

    The constructor makes a checked one-member event from six floats and a
    6x6 ``r6``; it keeps a read-only (1, 6) copy of the floats.  The
    harness's per-row streams build their events, one or many members, as
    ``tuple.__new__(MeasurementEvent, fields)``, unchecked, from a finite
    stamp, rows of arrays the caller does not change afterwards (a
    non-finite row is left for the update to reject), and covariances that
    passed :func:`_checked_r6` or the twist covariances
    :func:`twist_measurements` derives from them.
    """

    __slots__ = ()

    def __new__(cls, timestamp: float, kind: MeasurementKind, frame: Frame, z, r6) -> "MeasurementEvent":
        if not math.isfinite(timestamp):
            raise ValueError("event timestamp must be finite")
        row = np.array(z, dtype=float)
        if row.shape != (6,) or not np.isfinite(row).all():
            raise ValueError(f"z must be six finite floats, got {z!r}")
        row = row[None]
        row.flags.writeable = False
        return tuple.__new__(cls, (timestamp, kind, frame, row, _checked_r6(r6, "r6")))


@dataclass(frozen=True)
class ProcessModel:
    """Continuous-time process noise Q (variance per second) of the motion model."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        if q.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"Q must be {STATE_DIM}x{STATE_DIM}, got {q.shape}")
        if not np.allclose(q, q.T, atol=1e-9):
            raise ValueError("Q must be symmetric")
        if np.linalg.eigvalsh(q).min() < -1e-9:
            raise ValueError("Q must be positive semi-definite")
        object.__setattr__(self, "q", 0.5 * (q + q.T))


@dataclass(frozen=True)
class FilterNodeConfig:
    """Everything one filter node needs: initial state, process noise, prediction limits.

    The covariances arrive with the events; which frames a node takes
    depends on the step it is fed through, not on its config.
    """

    initial_state: StateEstimate
    q: np.ndarray
    max_predict_dt: float = 1.0
    predict_substep: float = 0.1

    def __post_init__(self) -> None:
        if not (self.max_predict_dt > 0.0 and self.predict_substep > 0.0):
            raise ValueError("prediction step limits must be positive")


# ---------------------------------------------------------------------------
# Transition model
# ---------------------------------------------------------------------------

# Flat indices, in the transposed Jacobian, of the entries that differ from
# the identity, in the order _propagate packs their values.  The prediction
# keeps A^T contiguous: a batched product takes a transposed view of its
# first operand at less cost than of its second.
_JACOBIAN_T_FLAT_INDEX = np.array(
    [c * STATE_DIM + r for r in range(3) for c in (3, 4, 5, 6, 7, 8, 12, 13, 14)]
    + [c * STATE_DIM + r for r, c in (
        (3, 3), (3, 4), (3, 9), (3, 10), (3, 11),
        (4, 3), (4, 10), (4, 11),
        (5, 3), (5, 4), (5, 10), (5, 11),
        (6, 12), (7, 13), (8, 14),
    )]
)
_EYE_STATE = np.eye(STATE_DIM)
_EYE_STATE.flags.writeable = False
# The per-member floats reach numpy packed into float64 buffers: numpy converts
# a list of Python floats one element at a time, which costs a 42-entry
# Jacobian about 1.4 us against 0.35 us for pack_into.
_pack_jacobian = struct.Struct(f"{len(_JACOBIAN_T_FLAT_INDEX)}d").pack_into
_pack_state = struct.Struct(f"{STATE_DIM}d").pack_into
_JACOBIAN_BYTES, _STATE_BYTES = 8 * len(_JACOBIAN_T_FLAT_INDEX), 8 * STATE_DIM
# wrap_angle's scalar path, written out where a call per angle would cost
# more than the arithmetic: -((-a + _PI) % _TWO_PI - _PI)
_PI, _TWO_PI = math.pi, 2.0 * math.pi


def _propagate(x: list[float], dt: float, jacobian=None, state=None, b: int = 0) -> tuple[float, ...] | None:
    """The motion model written out in scalar form.

    Returns the propagated state as a tuple of 15 floats.  Given
    ``jacobian``, a writable buffer of B x 42 float64s, it also packs into
    its row ``b`` the entries of the transposed analytic Jacobian that
    differ from the identity, in ``_JACOBIAN_T_FLAT_INDEX`` order; the
    caller scatters them into A^T.  Given ``state`` as well, a writable
    buffer of B x 15 float64s, it packs the propagated state into its row
    ``b`` and returns None.
    R = Rz(yaw) Ry(pitch) Rx(roll) rotates body into parent coordinates and
    E maps body rates to Euler-angle rates::

        E = [[1, sr tp, cr tp], [0, cr, -sr], [0, sr / cp, cr / cp]]

    Every matrix product is expanded element by element, so no 3x3 arrays
    are built on this per-event path.
    """
    px, py, pz, roll, pitch, yaw, vx, vy, vz, wx, wy, wz, ax, ay, az = x
    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    sy, cy = math.sin(yaw), math.cos(yaw)
    if abs(cp) < _MIN_COS_PITCH:
        raise NumericError(f"pitch {pitch} is at the gimbal singularity")
    tp = math.tan(pitch)
    spsr, spcr = sp * sr, sp * cr
    r00, r01, r02 = cy * cp, cy * spsr - sy * cr, cy * spcr + sy * sr
    r10, r11, r12 = sy * cp, sy * spsr + cy * cr, sy * spcr - cy * sr
    r20, r21, r22 = -sp, cp * sr, cp * cr
    e01, e02, e21, e22 = sr * tp, cr * tp, sr / cp, cr / cp
    half_dt2 = 0.5 * dt * dt
    # body-frame displacement and its rotation into the parent frame
    d0, d1, d2 = vx * dt + half_dt2 * ax, vy * dt + half_dt2 * ay, vz * dt + half_dt2 * az
    m0 = r00 * d0 + r01 * d1 + r02 * d2
    m1 = r10 * d0 + r11 * d1 + r12 * d2
    a0 = roll + (wx + e01 * wy + e02 * wz) * dt
    a1 = pitch + (cr * wy - sr * wz) * dt
    a2 = yaw + (e21 * wy + e22 * wz) * dt
    out = (
        px + m0,
        py + m1,
        pz + (r20 * d0 + r21 * d1 + r22 * d2),
        -((-a0 + _PI) % _TWO_PI - _PI),
        -((-a1 + _PI) % _TWO_PI - _PI),
        -((-a2 + _PI) % _TWO_PI - _PI),
        vx + ax * dt,
        vy + ay * dt,
        vz + az * dt,
        wx, wy, wz, ax, ay, az,
    )
    if jacobian is None:
        return out
    sec2 = 1.0 / (cp * cp)
    # The rotation partials applied to d reuse R's entries: row i of
    # dR/droll d is r_i2 d1 - r_i1 d2, dR/dyaw d = (-m1, m0, 0), and dR/dpitch
    # shares R's cy cp and sy cp factors.
    _pack_jacobian(
        jacobian, _JACOBIAN_BYTES * b,
        # position rows: d/droll, d/dpitch, d/dyaw of R d, then R dt and R dt^2/2
        r02 * d1 - r01 * d2,
        -cy * sp * d0 + r00 * sr * d1 + r00 * cr * d2,
        -m1,
        r00 * dt, r01 * dt, r02 * dt,
        r00 * half_dt2, r01 * half_dt2, r02 * half_dt2,
        r12 * d1 - r11 * d2,
        -sy * sp * d0 + r10 * sr * d1 + r10 * cr * d2,
        m0,
        r10 * dt, r11 * dt, r12 * dt,
        r10 * half_dt2, r11 * half_dt2, r12 * half_dt2,
        r22 * d1 - r21 * d2,
        -cp * d0 - spsr * d1 - spcr * d2,
        0.0,
        r20 * dt, r21 * dt, r22 * dt,
        r20 * half_dt2, r21 * half_dt2, r22 * half_dt2,
        # orientation rows: identity plus the rate terms, then E dt
        1.0 + (e02 * wy - e01 * wz) * dt,
        (sr * sec2 * wy + cr * sec2 * wz) * dt,
        dt, e01 * dt, e02 * dt,
        (-sr * wy - cr * wz) * dt,
        cr * dt, -sr * dt,
        (e22 * wy - e21 * wz) * dt,
        (e01 / cp * wy + e02 / cp * wz) * dt,
        e21 * dt, e22 * dt,
        # velocity integrates acceleration
        dt, dt, dt,
    )
    if state is None:
        return out
    _pack_state(state, _STATE_BYTES * b, *out)


# ---------------------------------------------------------------------------
# Filter kernels
# ---------------------------------------------------------------------------
#
# A kernel takes a batch of B members: their states as a (B, 15) array, their
# covariances as a (B, 15, 15) array, or as one 15x15 matrix for a single
# member, and returns both in the same form.  The prediction takes each
# state row through the scalar motion model; the update corrects every row
# in one array pass, and the covariances go through one batched product or
# solve per operation.  Each computes every member's numbers exactly as the
# same code on that member alone would.
# _finish checks a result and turns its covariances into the exactly
# symmetric, read-only array a node holds; a node chains the predict and
# update kernels of one event and finishes once.

_abs, _matmul, _subtract, _remainder, _negative = np.abs, np.matmul, np.subtract, np.remainder, np.negative
# 0-d operands: a ufunc converts a Python float operand on every call
_PI_0D, _TWO_PI_0D = np.array(_PI), np.array(_TWO_PI)


def _mm(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """a b, or a b c, for one member's 2-D matrices or member by member of stacks.

    Stacks go through np.matmul, and ``b`` may be one matrix for every
    member.  2-D matrices go through ndarray.dot: the gemm np.matmul calls,
    without the gufunc set-up that costs np.matmul about as much again on
    these small operands.
    """
    if a.ndim == 2:
        p = a.dot(b)
        return p if c is None else p.dot(c)
    p = _matmul(a, b)
    return p if c is None else _matmul(p, c)


@lru_cache(maxsize=16)
def _sum_weights(n: int) -> np.ndarray:
    # 2^-20: the weighted sum of fewer than 2^20 finite float64s cannot
    # overflow, and a power of two scales every normal value exactly
    return np.full(n, 2.0 ** -20)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite.

    A NaN or an infinity makes the weighted sum of the entries non-finite,
    and the weights keep a sum of finite entries from overflowing, so one
    dot product settles it at a fraction of the cost of isfinite over every
    entry; only a non-finite sum is checked entry by entry.
    """
    return math.isfinite(a.ravel().dot(_sum_weights(a.size))) or bool(np.isfinite(a).all())


def _finish(x: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Check a kernel result; its covariances symmetrized exactly, read-only."""
    if not (_all_finite(x) and _all_finite(P)):
        raise NumericError("filter produced non-finite state or covariance")
    # P^T + P is P + P^T bit for bit; a ufunc takes a strided 15x15 operand
    # more slowly than a copy of it, here and in the Joseph difference
    P_sym = P.mT.copy()
    P_sym += P
    P_sym *= 0.5
    P_sym.setflags(write=False)
    return P_sym


class _Workspace:
    """A node's kernel buffers: the transition Jacobian, kept transposed, as
    a (B, 15, 15) stack for ``members`` B or one 15x15 matrix for ``members``
    None; the B rows of 42 entries :func:`_propagate` packs, with their
    flat indices in A^T; and the (B, 3) angles of :func:`_wrap`.

    Each buffer is filled and read within one kernel call, so a node and
    its snapshots may share a workspace.
    """

    __slots__ = ("A", "At", "flat", "entries", "index", "angles")

    def __init__(self, members: int | None) -> None:
        self.At = _EYE_STATE.copy() if members is None else np.tile(_EYE_STATE, (members, 1, 1))
        self.A = self.At.mT
        self.flat = self.At.reshape(-1)
        self.entries = np.empty((members or 1) * len(_JACOBIAN_T_FLAT_INDEX))
        self.index = (np.arange(0, self.At.size, STATE_DIM * STATE_DIM)[:, None] + _JACOBIAN_T_FLAT_INDEX).ravel()
        self.angles = np.empty((members or 1, 3))


def _predict_kernel(
    x: np.ndarray, P: np.ndarray, dt: float, q_dt: np.ndarray, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """x <- f(x, dt), P <- A P A^T + Q dt; ``q_dt`` is Q dt, ``work`` the node's buffers."""
    rows, x = x.tolist(), np.empty(x.shape)
    entries = work.entries
    for b, row in enumerate(rows):
        _propagate(row, dt, entries, x, b)
    # every member's Jacobian entries into A^T in one scatter
    work.flat[work.index] = entries
    P = _mm(work.A, P, work.At)
    P += q_dt
    return x, P


def _wrap(a: np.ndarray, w: np.ndarray) -> None:
    """Wrap the angles of the view ``a``, (B, 3), to (-pi, pi] in place.

    The scalar form's steps, -((-a + pi) % 2pi - pi), one ufunc each, for
    its bits: np.remainder is Python's float %, and the last negation gives
    an angle that wraps to zero the scalar form's -0.0, which pi - m would
    give as +0.0.  The steps between the first and the last run in ``w``,
    a contiguous (B, 3) buffer: a ufunc takes a strided 2-D view at several
    times the cost on a few members.
    """
    _subtract(_PI_0D, a, w)
    _remainder(w, _TWO_PI_0D, w)
    _subtract(w, _PI_0D, w)
    _negative(w, a)


def _update_kernel(
    x: np.ndarray, P: np.ndarray, lo: int, z: np.ndarray, r6: np.ndarray, angles: bool, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form EKF update where H selects the 6-state block ``lo:lo+6``.

    ``z`` is (B, 6), one row per member, ``r6`` is (6, 6) or, for a stack
    of B covariances, (B, 6, 6), and ``angles`` says whether the last three
    columns of ``z`` are angles.  The innovations z - x[:, lo:lo+6] are
    wrapped on those angles (+179 deg vs -179 deg disagree by 2 degrees,
    not 358), every row gets its gain times its innovation, and the rows'
    angles are wrapped.  ``work`` is the node's buffers.
    """
    # checked on |z|: in a sum of z itself +inf and -inf would meet as NaN,
    # which numpy warns about
    if not _all_finite(_abs(z)):
        raise NumericError("measurement contains non-finite values")
    P_rows = P[..., lo:lo + 6, :]
    # LU solve of S K^T = P_rows: the LAPACK gesv gufunc np.linalg.solve
    # calls, minus its per-call wrapper (its float64 loop is the one the
    # gufunc picks for float arrays).  S is positive definite (PSD P, r6
    # checked positive definite), so the solve succeeds; a broken P that
    # makes it fail gives NaNs, which _finish rejects.
    Kt = _gesv(P_rows[..., lo:lo + 6] + r6, P_rows)
    K = Kt.mT
    d = z - x[:, lo:lo + 6]
    if angles:
        _wrap(d[:, 3:6], work.angles)
    # one member's gain product is the gemv of ndarray.dot; a stack's
    # np.matmul gives each member those bits
    x = x + (K.dot(d[0]) if K.ndim == 2 else _matmul(K, d[:, :, None])[:, :, 0])
    _wrap(x[:, ANG], work.angles)
    # Joseph form (I-KH) P (I-KH)^T + K R K^T with H a selector matrix:
    # M - M H^T K^T + K R K^T, folded into one product; each difference
    # goes into the product it subtracts.
    M = _mm(K, P_rows)
    _subtract(P, M, out=M)
    D = _mm(K, r6)
    _subtract(M[..., lo:lo + 6].copy(), D, out=D)
    P = _mm(D, Kt)
    return x, _subtract(M, P, out=P)


def _time_steps(stamps: np.ndarray) -> np.ndarray:
    """The steps between consecutive stamps, which must increase strictly."""
    dt = np.diff(stamps)
    if not (dt > 0.0).all():
        raise ValueError(f"differential pairs must be strictly time-ordered, dt={dt.min()}")
    return dt


def body_twists(rows: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Body twists (vx, vy, vz, wx, wy, wz) between consecutive pose rows.

    ``rows`` is (n + 1, ..., 6): pose rows (x, y, z, roll, pitch, yaw) in one
    parent frame, with any member axes after the first; ``dt`` is (n,), the
    time from each row to the next.  Twist i is the delta pose
    invert(row i) o row i+1 over dt[i]: its translation in row i's body
    frame, and its rotation vector.  A constant transform applied to every
    row cancels.  A non-finite twist (an overflowing difference or a
    degenerate step) is returned, not warned about, for the update to reject.
    """
    with np.errstate(all="ignore"):
        q = euler_to_quaternions(rows[..., 3:])
        # the conjugate is the inverse of a unit quaternion
        q_inv = conjugate_quaternions(q[:-1])
        twists = np.concatenate((
            rotate_vectors(q_inv, rows[1:, ..., :3] - rows[:-1, ..., :3]),
            rotation_vectors(multiply_quaternions(q_inv, q[1:])),
        ), axis=-1)
        return twists / dt.reshape(dt.shape + (1,) * (twists.ndim - 1))


def _velocity_covariance(r6: np.ndarray, dt: float) -> np.ndarray:
    """Two pose rows' shared covariance r6 propagated to the velocity: (r6 + r6) / dt^2."""
    dt2 = dt * dt
    # checked before the division, which would otherwise warn on a degenerate dt
    if not (dt2 > 0.0 and math.isfinite(1.0 / dt2)):
        raise NumericError("measurement contains non-finite values")
    return (r6 + r6) / dt2


def twist_measurements(stamps: np.ndarray, rows: np.ndarray, r6: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Node 2's odometry measurements along a chain of pose rows.

    ``stamps`` (n + 1,) must increase strictly, and ``rows`` (n + 1, B, 6)
    holds B members' pose rows, all with covariance ``r6``.  For each of the
    last n rows: the members' twists from the row before
    (:func:`body_twists`) as a (B, 6) array, and their covariance
    (r6 + r6) / dt^2, computed once per distinct step.
    """
    dt = _time_steps(stamps)
    steps = dt.tolist()
    r_vel = {step: _velocity_covariance(r6, step) for step in dict.fromkeys(steps)}
    return list(zip(body_twists(rows, dt), map(r_vel.__getitem__, steps)))


# ---------------------------------------------------------------------------
# Prediction of one state
# ---------------------------------------------------------------------------
#
# No run path calls predict: it stays because perfbench/tracer.py counts
# calls to it (COUNTED) and tests/test_benchmark_hooks.py checks that every
# traced name resolves.  ROADMAP item 1 removes that target.

def predict(s: StateEstimate, model: ProcessModel, dt: float) -> StateEstimate:
    """Propagate state and covariance: x <- f(x, dt), P <- A P A^T + Q dt.

    dt = 0 is an exact no-op (same object); negative dt is a caller bug.
    """
    if not math.isfinite(dt) or dt < 0.0:
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    if dt == 0.0:
        return s
    x, P = _predict_kernel(s.x[None], s.P, dt, model.q * dt, _Workspace(None))
    P = _finish(x, P)
    x.setflags(write=False)
    return StateEstimate._from_kernel(x[0], P, s.timestamp + dt)


# ---------------------------------------------------------------------------
# Filter nodes
# ---------------------------------------------------------------------------

class EkfNode:
    """Sequential, single-owner filter node over ``members`` runs in lockstep.

    Every event carries one row per member; the members share the
    config's initial state, process noise and the events' stamps.  The
    filter clock starts at the initial state's stamp, so a first event
    after it is predicted across the gap.  Events must arrive with
    non-decreasing timestamps; an event older than the clock is rejected
    with :class:`OutOfOrderError`, counted, and leaves the state untouched,
    so callers may continue with newer events.

    The node keeps the members' state rows as a read-only (B, 15) array
    :attr:`x` and their covariances as a read-only (B, 15, 15) array
    :attr:`P` at time :attr:`timestamp`, both replaced at every change; a
    one-member node keeps its 15x15 matrix itself, which the same kernels
    take with 2-D products.  For a one-member node :attr:`state` wraps the
    estimate in a :class:`StateEstimate` only when asked for, and returns
    the same object until the next change; assigning a state sets every
    member to it.  An indefinite initial or assigned covariance raises
    :class:`NumericError`.
    """

    # Time steps with a cached Q dt: the float stamps of a fixed-rate log step
    # by two neighbouring values; more only add memory.
    _CACHED_STEPS = 2

    def __init__(self, config: FilterNodeConfig, members: int = 1) -> None:
        if members < 1:
            raise ValueError(f"a node needs at least one member, got {members}")
        self.config = config
        self.members = members
        # the leading axis of the node's matrices: none for one member
        stack = self._stack = (members,) if members > 1 else ()
        self.model = ProcessModel(config.q)
        self.state = config.initial_state
        self.rejected_count = 0
        self._work = _Workspace(members if stack else None)  # the buffers of every kernel call

        q = self.model.q  # not self: the cache must not keep the node in a reference cycle

        @lru_cache(self._CACHED_STEPS)
        def q_dt(dt: float) -> np.ndarray:
            # one copy per member: an in-place add of a broadcast operand is slower
            return np.tile(q * dt, stack + (1, 1))

        self._q_dt = q_dt

    @property
    def x(self) -> np.ndarray:
        """The members' state rows, a read-only (B, 15) array."""
        return self._x

    @property
    def P(self) -> np.ndarray:
        """The members' covariances, a read-only (B, 15, 15) array."""
        P = self._P
        return P if self._stack else P[None]

    @property
    def state(self) -> StateEstimate:
        if self.members != 1:
            raise ValueError(f"a node of {self.members} members has no single state; read x and P")
        s = self._state
        if s is None:
            s = self._state = StateEstimate._from_kernel(self._x[0], self._P, self.timestamp)
        return s

    @state.setter
    def state(self, s: StateEstimate) -> None:
        _check_psd(s.P, "node covariance")
        x, P = np.tile(s.x, (self.members, 1)), np.tile(s.P, self._stack + (1, 1))
        x.setflags(write=False)
        P.setflags(write=False)
        self._x, self._P, self.timestamp = x, P, s.timestamp
        self._state = s if self.members == 1 else None

    def _commit(self, t: float, x: np.ndarray, P: np.ndarray) -> None:
        self._P = _finish(x, P)
        x.setflags(write=False)
        self._x, self.timestamp = x, t
        self._state = None

    def _admit(self, event: MeasurementEvent, frame: Frame, step: str) -> None:
        """Check an event's frame and row count, then its stamp against the filter clock."""
        if event.frame is not frame and event.frame != frame:
            raise FrameMismatchError(
                f"{step} takes {event.kind.value} poses in {frame}, got one in {event.frame}"
            )
        if event.z is not None and len(event.z) != self.members:
            raise ValueError(f"{step} of {self.members} members got {len(event.z)} rows")
        if event.timestamp < self.timestamp:
            self.rejected_count += 1
            raise OutOfOrderError(
                f"event at t={event.timestamp} is older than filter time t={self.timestamp}"
            )

    def _predicted(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The estimate propagated to time t, not yet committed."""
        x, P = self._x, self._P
        dt = t - self.timestamp
        if dt <= 0.0:
            return x, P
        n = 1
        if dt > self.config.max_predict_dt:
            # A long gap would stretch one linearization too far; split it.
            n = max(1, math.ceil(dt / self.config.predict_substep))
            dt /= n
        q_dt = self._q_dt(dt)
        for _ in range(n):
            x, P = _predict_kernel(x, P, dt, q_dt, self._work)
        return x, P

    def node1_step(self, event: MeasurementEvent) -> np.ndarray:
        """Absolute fusion of raw local-frame pose rows; returns the members'
        local->body pose rows, a read-only (B, 6) view of :attr:`x`."""
        self._admit(event, LOCAL, "node1_step")
        x, P = self._predicted(event.timestamp)
        self._commit(event.timestamp, *_update_kernel(x, P, POSE_BLOCK.start, event.z, event.r6, True, self._work))
        return self._x[:, POSE_BLOCK]

    def node2_step(self, event: MeasurementEvent) -> None:
        """World-frame fusion step into :attr:`x` and :attr:`P`.

        Odometry events carry the members' body twists between consecutive
        node-1 local->body pose rows (:func:`twist_measurements`) and fuse
        them on the twist states, so the local frame's place in the world
        never enters; the first of the chain carries none (``z`` None) and
        only advances the clock.  Perception events carry world poses and
        fuse absolutely.
        """
        odometry = event.kind is _ODOMETRY
        self._admit(event, LOCAL if odometry else WORLD, "node2_step")
        x, P = self._predicted(event.timestamp)
        if event.z is not None:
            lo = TWIST_BLOCK.start if odometry else POSE_BLOCK.start
            x, P = _update_kernel(x, P, lo, event.z, event.r6, not odometry, self._work)
        if P is not self._P:
            self._commit(event.timestamp, x, P)

    def restricted(self, members: list[int]) -> EkfNode:
        """A node of the given members, in that order, each at its state, bit for bit."""
        node = EkfNode(self.config, len(members))
        x, P = self._x[members], self.P[members]
        x.setflags(write=False)
        P.setflags(write=False)
        node._x, node._P, node._state = x, P if node._stack else P[0], None
        node.timestamp, node.rejected_count = self.timestamp, self.rejected_count
        return node
