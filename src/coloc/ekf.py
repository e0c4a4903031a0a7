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
odometry event carries one twist row per member.  A step takes finite
rows: a run checks each block array of rows once (:func:`finite_rows`)
and refuses the event of the first bad row (:meth:`EkfNode.refuse`).

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
:class:`EkfNode` is the one API that runs them.  A filter state exists in
one form, arrays: a node's (B, 15) rows and (B, 15, 15) covariances, and
its :class:`FilterNodeConfig`'s initial stamp, row and covariance, checked
once when the config is built.  A one-member node built from a config at a
given state, stepped at that stamp, is a single filter update.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import NoReturn

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
    # s * s overflows to inf where ** would raise.  Harness events are built
    # unchecked, so a caller checks the result (_checked_r6) before use.
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
# Initial states, events and node configs
# ---------------------------------------------------------------------------

def _check_psd(P: np.ndarray, what: str) -> None:
    """Reject a covariance with an eigenvalue below rounding level of zero."""
    eig = np.linalg.eigvalsh(P)
    if eig[0] < -1e-9 * max(1.0, eig[-1]):
        raise NumericError(f"{what} is indefinite: smallest eigenvalue {eig[0]:.3g}")


def state_from_row(z, pose_variance: float = 1e-6, derivative_variance: float = 1e3) -> tuple[np.ndarray, np.ndarray]:
    """Initial state row and covariance at a known pose row (x, y, z, roll, pitch, yaw), zero derivatives.

    Small variance on the pose block (the start is known), large on the
    derivative blocks (velocities must be learned from data).
    """
    x = np.zeros(STATE_DIM)
    x[POSE_BLOCK] = z
    diag = np.full(STATE_DIM, derivative_variance)
    diag[POSE_BLOCK] = pose_variance
    return x, np.diag(diag)


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
    stamp, rows of arrays the caller does not change afterwards, and
    covariances that passed :func:`_checked_r6` or the twist covariances
    :func:`twist_measurements` derives from them.  The steps do not check
    the rows: the harness checks a block of them at once
    (:func:`finite_rows`) and hands the event of a non-finite row to
    :meth:`EkfNode.refuse`.
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


@dataclass(frozen=True, eq=False)
class FilterNodeConfig:
    """Everything one filter node needs: its initial stamp ``t0``, state row
    ``x0`` and covariance ``P0``, its continuous-time process noise ``q``
    (variance per second) and its prediction limits.

    Construction checks the inputs once: the state's shape and finiteness
    and a finite stamp, the step limits, Q (15x15, symmetric, PSD), and
    that P0 is not indefinite.  It keeps read-only copies of the arrays,
    P0 and Q symmetrized exactly, so a caller's later change to its own
    arrays reaches no node.  Like :class:`~coloc.dataio.TrajectoryLog`, a
    config compares by identity.  The measurement covariances arrive with
    the events; which frames a node takes depends on the step it is fed
    through, not on its config.
    """

    t0: float
    x0: np.ndarray
    P0: np.ndarray
    q: np.ndarray
    max_predict_dt: float = 1.0
    predict_substep: float = 0.1

    def __post_init__(self) -> None:
        x = np.array(self.x0, dtype=float)
        P = np.asarray(self.P0, dtype=float)
        if x.shape != (STATE_DIM,):
            raise ValueError(f"state must have shape ({STATE_DIM},), got {x.shape}")
        if P.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"covariance must be {STATE_DIM}x{STATE_DIM}, got {P.shape}")
        if not np.isfinite(x).all():
            raise NumericError("state vector contains non-finite values")
        if not np.isfinite(P).all():
            raise NumericError("covariance contains non-finite values")
        if not math.isfinite(self.t0):
            raise ValueError("timestamp must be finite")
        if not (self.max_predict_dt > 0.0 and self.predict_substep > 0.0):
            raise ValueError("prediction step limits must be positive")
        q = np.asarray(self.q, dtype=float)
        if q.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"Q must be {STATE_DIM}x{STATE_DIM}, got {q.shape}")
        if not np.allclose(q, q.T, atol=1e-9):
            raise ValueError("Q must be symmetric")
        if np.linalg.eigvalsh(q).min() < -1e-9:
            raise ValueError("Q must be positive semi-definite")
        P = 0.5 * (P + P.T)
        _check_psd(P, "node covariance")
        for name, a in (("x0", x), ("P0", P), ("q", 0.5 * (q + q.T))):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


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
# the three angles of one row, read from and written to its float64 buffer
_ANGLES = struct.Struct("3d")


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
# member, and returns both in the same form, in the node workspace's x and P
# buffers.  The prediction takes each state row through the scalar motion
# model; the update corrects every row in one array pass, and the
# covariances go through one batched product or solve per operation.  Each
# computes every member's numbers exactly as the same code on that member
# alone would.  _finish checks the result in the workspace and copies it
# into the read-only arrays a node holds, its covariances exactly
# symmetric; a node chains the predict and update kernels of one event and
# finishes once.
#
# Every operand and result of a kernel's numpy calls is a workspace buffer or
# a view of one made with the workspace, operands of one ufunc have one shape,
# and outputs are passed positionally: at one member a step pays each call's
# fixed cost, not its arithmetic, and an allocation, a view, a broadcast or a
# keyword argument adds to that cost.

_add, _matmul, _multiply, _subtract, _remainder, _negative = (
    np.add, np.matmul, np.multiply, np.subtract, np.remainder, np.negative
)
# np.dot's C function: np.dot itself is a Python-level __array_function__
# dispatcher, which costs a one-member product about as much again
_dot = np.dot._implementation
# 0-d operands: a ufunc converts a Python float operand on every call
_PI_0D, _TWO_PI_0D, _HALF_0D = np.array(_PI), np.array(_TWO_PI), np.array(0.5)
# The update's 6-state blocks lo:lo+6, by lo
_BLOCKS = {block.start: block for block in (POSE_BLOCK, TWIST_BLOCK)}


class _Workspace:
    """A node's kernel buffers, shaped for ``members`` B, or for one
    member's matrices for ``members`` None.

    - ``x`` (B, 15) and ``P`` (B, 15, 15), or 15x15: every kernel's
      result, side by side in the flat buffer ``xP``, which one weighted
      sum with ``weights`` checks;
    - the prediction's transition Jacobian, kept transposed as ``At`` (its
      view ``A``), the B rows of 42 entries :func:`_propagate` packs, with
      their flat indices in A^T, and the product ``AP``;
    - the update's innovations ``d``, the innovation covariances ``S``,
      the gains ``Kt`` as the solve returns them (and their view ``K``),
      ``Kd`` (K d) and its view ``Kd_rows`` shaped as ``x``, ``M``, the
      copy ``M_block`` of its block columns and ``D``;
    - ``operands``, by block start ``lo``: the views the update reads, made
      once here, of ``x``'s block columns, ``P``'s block rows, ``P``'s
      diagonal block and ``M``'s block columns.

    ``mm`` is the layout's product with a positional output: for one
    member's matrices np.dot's C function, the gemm np.matmul calls
    without the gufunc set-up that costs np.matmul about as much again,
    and without np.dot's dispatcher; np.matmul for stacks.  ``wrap_x`` and
    ``wrap_d`` are its in-place angle wraps of ``x`` and of the pose
    innovations ``d``: for one member's matrices :func:`_row_wrap`'s scalar
    code on the row's bytes, for stacks :func:`_wrap`'s ufuncs on an angle
    view, through a (B, 3) buffer.  An update does not check its rows: the
    caller checks a block of them at once (:func:`finite_rows`).

    A buffer may live from the predict kernel to the update kernel within
    one node step, and no committed or returned array aliases one:
    :func:`_finish` copies a result out.  A node steps one event at a
    time, so a node and its snapshots may share a workspace.
    """

    __slots__ = (
        "mm", "xP", "x", "P", "weights", "At", "A", "flat", "entries", "index", "AP",
        "d", "d_vec", "S", "Kt", "K", "Kd", "Kd_rows", "M", "M_block", "D", "operands",
        "wrap_x", "wrap_d",
    )

    def __init__(self, members: int | None) -> None:
        n = members or 1
        stack = () if members is None else (members,)
        self.mm = _dot if members is None else _matmul
        self.xP = np.empty(n * STATE_DIM * (1 + STATE_DIM))
        self.x = self.xP[:n * STATE_DIM].reshape(n, STATE_DIM)
        self.P = self.xP[n * STATE_DIM:].reshape(stack + (STATE_DIM, STATE_DIM))
        # 2^-20: a weighted sum of fewer than 2^20 finite float64s cannot
        # overflow, and a power of two scales every normal value exactly
        self.weights = np.full(self.xP.size, 2.0 ** -20)
        self.At = _EYE_STATE.copy() if members is None else np.tile(_EYE_STATE, (members, 1, 1))
        self.A = self.At.mT
        self.flat = self.At.reshape(-1)
        self.entries = np.empty(n * len(_JACOBIAN_T_FLAT_INDEX))
        self.index = (np.arange(0, self.At.size, STATE_DIM * STATE_DIM)[:, None] + _JACOBIAN_T_FLAT_INDEX).ravel()
        self.AP = np.empty(self.P.shape)
        self.d = np.empty((n, 6))
        self.S = np.empty(stack + (6, 6))
        self.Kt = np.empty(stack + (6, STATE_DIM))
        self.K = self.Kt.mT
        # one member's gain product is a gemv; a stack's is a matmul of columns
        if members is None:
            self.d_vec = self.d[0]
            self.Kd = np.empty(STATE_DIM)
            self.Kd_rows = self.Kd[None]
        else:
            self.d_vec = self.d[:, :, None]
            self.Kd = np.empty((members, STATE_DIM, 1))
            self.Kd_rows = self.Kd[:, :, 0]
        self.M = np.empty(self.P.shape)
        self.M_block = np.empty(stack + (STATE_DIM, 6))
        self.D = np.empty(stack + (STATE_DIM, 6))
        # an innovation's angles, its last three columns, are at ANG too
        if members is None:
            self.wrap_x, self.wrap_d = _row_wrap(self.x), _row_wrap(self.d)
        else:
            angles = np.empty((members, 3))
            self.wrap_x, self.wrap_d = partial(_wrap, self.x[:, ANG], angles), partial(_wrap, self.d[:, ANG], angles)
        self.operands = {
            lo: (self.x[:, block], self.P[..., block, :], self.P[..., block, block], self.M[..., block])
            for lo, block in _BLOCKS.items()
        }


def _finish(work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The kernel result in ``work``'s x and P, checked: read-only copies,
    the covariances symmetrized exactly, (P^T + P) * 0.5, in a new array
    by two in-place ufuncs."""
    # A NaN or an infinity makes the weighted sum of x and P non-finite, and
    # the weights keep a sum of finite entries from overflowing (below 2^20
    # entries, 4 369 members), so one dot product settles the check at a
    # fraction of the cost of isfinite over every entry; only a non-finite
    # sum is checked entry by entry.
    if not math.isfinite(work.xP.dot(work.weights)) and not np.isfinite(work.xP).all():
        raise NumericError("filter produced non-finite state or covariance")
    x, P = work.x.copy(), work.P
    # P^T + P is P + P^T bit for bit.  A copy of the strided P^T and two
    # in-place ufuncs cost less than P + P.mT, which takes the strided
    # operand itself: 1.8 against 2.2 us at one member and 5.2 against 6.3 us
    # at 12 (timeit minima, 2-vCPU Xeon, numpy 2.4.6).  The margin is
    # thinner at one member, where a call's fixed cost is most of either.
    # The ufuncs take their output positionally and the halving a 0-d 0.5:
    # P_sym *= 0.5 converts the float on every call, 0.59 against 0.35 us.
    P_sym = P.mT.copy()
    _add(P_sym, P, P_sym)
    _multiply(P_sym, _HALF_0D, P_sym)
    x.setflags(write=False)
    P_sym.setflags(write=False)
    return x, P_sym


def _predict_kernel(
    x: np.ndarray, P: np.ndarray, dt: float, q_dt: np.ndarray, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """x <- f(x, dt), P <- A P A^T + Q dt, into ``work``'s x and P, which
    it returns; ``q_dt`` is Q dt."""
    rows, x, entries = x.tolist(), work.x, work.entries
    for b, row in enumerate(rows):
        _propagate(row, dt, entries, x, b)
    # every member's Jacobian entries into A^T in one scatter
    work.flat[work.index] = entries
    work.mm(work.A, P, work.AP)
    P = work.mm(work.AP, work.At, work.P)
    P += q_dt
    return x, P


def _wrap(a: np.ndarray, w: np.ndarray) -> None:
    """Wrap the angles of the view ``a``, (B, 3), to (-pi, pi] in place: a
    stack's wrap.

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


def _row_wrap(row: np.ndarray):
    """One member's wrap: a call that wraps the three float64 angles at
    columns ANG of the C-contiguous one-row array ``row`` to (-pi, pi] in
    place.

    It reads them as Python floats, applies the scalar form itself and
    packs them back, where :func:`_wrap`'s four ufuncs cost about three
    times as much on three floats.  A non-finite angle wraps to NaN, as in
    :func:`_wrap`, but Python's float % raises no RuntimeWarning on an
    infinity.
    """
    unpack, pack, offset = _ANGLES.unpack_from, _ANGLES.pack_into, 8 * ANG.start

    def wrap() -> None:
        a0, a1, a2 = unpack(row, offset)
        pack(
            row, offset,
            -((-a0 + _PI) % _TWO_PI - _PI), -((-a1 + _PI) % _TWO_PI - _PI), -((-a2 + _PI) % _TWO_PI - _PI),
        )
    return wrap


def _update_kernel(
    x: np.ndarray, P: np.ndarray, lo: int, z: np.ndarray, r6: np.ndarray, angles: bool, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form EKF update where H selects the 6-state block ``lo:lo+6``,
    into ``work``'s x and P, which it returns.

    ``lo`` is 0 or 6, ``z`` is (B, 6), one row per member, ``r6`` is (6, 6)
    or, for a stack of B covariances, (B, 6, 6), and ``angles`` says
    whether the last three columns of ``z`` are angles.  The innovations
    z - x[:, lo:lo+6] are wrapped on those angles (+179 deg vs -179 deg
    disagree by 2 degrees, not 358), every row gets its gain times its
    innovation, and the rows' angles are wrapped; ``work`` holds both wraps
    for its layout, so the kernel does not branch on it.  ``z`` must be finite,
    which the caller checks (:func:`finite_rows`): a non-finite row makes x
    non-finite, which :func:`_finish` rejects.

    ``x`` and ``P`` may be ``work``'s own, as after a prediction.  Other
    arrays, such as a node's held state at an unchanged clock, are copied
    into them first, so every operand is one of the views ``work`` made at
    construction: at one member the two copies cost no more than the three
    views of the held arrays they replace.  S is P's diagonal block copied
    to its contiguous buffer, then r6 added in place, which costs less than
    adding the strided block.
    """
    if x is not work.x:
        work.x[...] = x
    if P is not work.P:
        work.P[...] = P
    x, P = work.x, work.P
    x_block, P_rows, P_block, M_columns = work.operands[lo]
    mm, K, S, M, D = work.mm, work.K, work.S, work.M, work.D
    S[...] = P_block
    # LU solve of S K^T = P_rows: the LAPACK gesv gufunc np.linalg.solve
    # calls, minus its per-call wrapper (its float64 loop is the one the
    # gufunc picks for float arrays).  S is positive definite (PSD P, r6
    # checked positive definite), so the solve succeeds; a broken P that
    # makes it fail gives NaNs, which _finish rejects.
    _gesv(_add(S, r6, S), P_rows, work.Kt)
    _subtract(z, x_block, work.d)
    if angles:
        work.wrap_d()
    mm(K, work.d_vec, work.Kd)
    # Kd_rows has x's shape: a broadcast add costs about twice as much
    _add(x, work.Kd_rows, x)
    work.wrap_x()
    # Joseph form (I-KH) P (I-KH)^T + K R K^T with H a selector matrix:
    # M - M H^T K^T + K R K^T, folded into one product; each difference
    # goes into the product it subtracts, and the last product into P's
    # buffer, whose input is spent by then.
    mm(K, P_rows, M)
    _subtract(P, M, M)
    mm(K, r6, D)
    # M's block columns go to a contiguous buffer first: a ufunc takes the
    # strided view more slowly than the copy and the difference together
    M_block = work.M_block
    M_block[...] = M_columns
    _subtract(M_block, D, D)
    mm(D, work.Kt, P)
    return x, _subtract(M, P, P)


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
    degenerate step) is returned, not warned about, for
    :func:`twist_measurements` to stop at.
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
    """Two pose rows' shared covariance r6 propagated to the velocity: (r6 + r6) / dt^2.

    A huge finite r6 or a short step can overflow it, which raises
    NumericError, not a warning.
    """
    dt2 = dt * dt
    # checked before the division, which would otherwise warn on a degenerate dt
    if not (dt2 > 0.0 and math.isfinite(1.0 / dt2)):
        raise NumericError("measurement contains non-finite values")
    with np.errstate(over="ignore"):
        r_vel = (r6 + r6) / dt2
    if not np.isfinite(r_vel).all():
        raise NumericError(f"smoothed odometry velocity covariance overflows at dt={dt}")
    return r_vel


def finite_rows(z: np.ndarray) -> int:
    """The number of leading rows of ``z`` (n, ...) whose entries are all finite.

    A run checks each block array of measurement rows once with it, exactly
    (a huge finite row passes), and steps the events before the first bad
    row; that row's event goes to :meth:`EkfNode.refuse`.
    """
    finite = np.isfinite(z)
    if finite.all():
        return len(z)
    return int(finite.reshape(len(z), -1).all(axis=1).argmin())


def twist_measurements(stamps: np.ndarray, rows: np.ndarray, r6: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Node 2's odometry measurements along a chain of pose rows.

    ``stamps`` (n + 1,) must increase strictly, and ``rows`` (n + 1, B, 6)
    holds B members' pose rows, all with covariance ``r6``.  For each of the
    last n rows: the members' twists from the row before
    (:func:`body_twists`) as a (B, 6) array, and their covariance
    (r6 + r6) / dt^2, computed once per distinct step.  The list ends
    before the first step whose twists are not all finite
    (:func:`finite_rows`), so a list of k < n measurements leaves the event
    at ``stamps[k + 1]`` for the caller to refuse.
    """
    dt = _time_steps(stamps)
    steps = dt.tolist()
    r_vel = {step: _velocity_covariance(r6, step) for step in dict.fromkeys(steps)}
    twists = body_twists(rows, dt)
    return list(zip(twists[:finite_rows(twists)], map(r_vel.__getitem__, steps)))


# ---------------------------------------------------------------------------
# Prediction of one state
# ---------------------------------------------------------------------------
#
# No run path calls predict: it stays because perfbench/tracer.py counts
# calls to it (COUNTED), tests/test_benchmark_hooks.py checks that every
# traced name resolves, and tests use it as the prediction oracle beside a
# node.  ROADMAP item 1 removes that target.

def predict(x: np.ndarray, P: np.ndarray, q: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One member's state row ``x`` (15,) and covariance ``P`` (15, 15) propagated
    over dt: x <- f(x, dt), P <- A P A^T + Q dt, with ``q`` the process noise Q.

    The results are read-only, P exactly symmetric.  dt = 0 is an exact
    no-op (the same arrays); negative dt is a caller bug.
    """
    if not math.isfinite(dt) or dt < 0.0:
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    if dt == 0.0:
        return x, P
    work = _Workspace(None)
    _predict_kernel(x[None], P, dt, q * dt, work)
    x, P = _finish(work)
    return x[0], P


# ---------------------------------------------------------------------------
# Filter nodes
# ---------------------------------------------------------------------------

class EkfNode:
    """Sequential, single-owner filter node over ``members`` runs in lockstep.

    Every event carries one row per member; the members start at the
    config's initial state row and covariance and share its process noise
    and the events' stamps.  The filter clock starts at the config's
    initial stamp, so a first event after it is predicted across the gap.
    Events must arrive with non-decreasing timestamps; an event older than
    the clock is rejected with :class:`OutOfOrderError`, counted, and
    leaves the state untouched, so callers may continue with newer events.

    A node's estimate exists in one form: the members' state rows as a
    read-only (B, 15) array :attr:`x` and their covariances as a read-only
    (B, 15, 15) array :attr:`P` at time :attr:`timestamp`, both replaced at
    every change; a one-member node keeps its 15x15 matrix itself, which
    the same kernels take with 2-D products.  The harness's node-2 pass
    reads the held arrays, ``_x`` and ``_P``, after every odometry step,
    without the view :attr:`P` makes of a one-member node's matrix.  A node
    at a given state is built from a :class:`FilterNodeConfig` holding it.
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
        x, P = np.tile(config.x0, (members, 1)), np.tile(config.P0, stack + (1, 1))
        x.setflags(write=False)
        P.setflags(write=False)
        self._x, self._P, self.timestamp = x, P, config.t0
        self.rejected_count = 0
        self._work = _Workspace(members if stack else None)  # the buffers of every kernel call
        self._max_predict_dt = config.max_predict_dt  # read on every step

        q = config.q  # not self: the cache must not keep the node in a reference cycle

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

    def _commit(self, t: float) -> None:
        """Hold the kernel result in the workspace as the state at time t."""
        self._x, self._P = _finish(self._work)
        self.timestamp = t

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
        if dt <= self._max_predict_dt:
            return _predict_kernel(x, P, dt, self._q_dt(dt), self._work)
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
        _update_kernel(x, P, POSE_BLOCK.start, event.z, event.r6, True, self._work)
        self._commit(event.timestamp)
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
            self._commit(event.timestamp)

    def refuse(self, event: MeasurementEvent) -> NoReturn:
        """Meet an event whose rows are not all finite as a step would up to
        its update, then raise NumericError, the node left as it was.

        The steps do not check their rows.  A run checks a block of rows at
        once (:func:`finite_rows`), steps the events before the first bad
        row and refuses that row's event here.  The event is admitted
        (odometry in the local frame, perception in the world frame) and
        the state predicted to its stamp, so an out-of-order stamp or a
        prediction's error is raised first, as a step would raise it.
        """
        self._admit(event, LOCAL if event.kind is _ODOMETRY else WORLD, "refuse")
        self._predicted(event.timestamp)
        raise NumericError("measurement contains non-finite values")

    def restricted(self, members: list[int]) -> EkfNode:
        """A node of the given members, in that order, each at its state, bit for bit."""
        node = EkfNode(self.config, len(members))
        x, P = self._x[members], self.P[members]
        x.setflags(write=False)
        P.setflags(write=False)
        node._x, node._P = x, P if node._stack else P[0]
        node.timestamp, node.rejected_count = self.timestamp, self.rejected_count
        return node
