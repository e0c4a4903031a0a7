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

A filter event is a pose row: stamp, frame, (x, y, z, roll, pitch, yaw)
and the 6x6 covariance of its channel.  :meth:`EkfNode.node1_step` fuses
raw local-frame follower poses absolutely, acting as a smoother, and
returns its local->body pose row.  :meth:`EkfNode.node2_step` estimates in
the world frame; it takes node 1's rows as ordinary odometry events and
turns consecutive ones into body-velocity pseudo-measurements (differential
fusion: a constant transform applied to both poses cancels, so node 2 needs
no world->local anchor), and fuses perception-derived world poses absolutely.

All filter arithmetic lives in two kernels, :func:`_predict_kernel` and
:func:`_update_kernel`, over a bare state list and covariance array.  The
public :func:`predict`, :func:`update_absolute` and
:func:`update_differential` wrap them in :class:`StateEstimate` values; an
:class:`EkfNode` runs the very same kernels on the arrays it holds, so the
functions the tests check are the code a run executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.linalg._umath_linalg import solve as _gesv

from .errors import FrameMismatchError, NumericError, OutOfOrderError
from .geometry import (
    BODY_ADAS,
    LOCAL,
    WORLD,
    Frame,
    Pose,
    Quaternion,
    q_from_euler,
    q_normalized,
    q_product,
    q_rotate,
    q_rotation_vector,
    wrap_angle,
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
    s2 = max(spec.sigma_trans**2, floor)
    g2 = max(spec.gamma_yaw_rad**2, floor)
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

    def pose(self, parent: Frame, child: Frame = BODY_ADAS) -> Pose:
        if parent == child:
            raise FrameMismatchError(f"pose frames must differ, got {parent} twice")
        return Pose._trusted(
            self.timestamp, self.x[POS].copy(), Quaternion.from_euler(*self.x[ANG].tolist()),
            parent, child,
        )


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


@dataclass(frozen=True, slots=True)
class MeasurementEvent:
    """One timestamped pose row heading into a filter node.

    ``z`` is the pose of the follower's body in ``frame`` as six floats
    (x, y, z, roll, pitch, yaw), and ``r6`` their 6x6 covariance.  It must
    be positive definite; it is checked and kept read-only.
    """

    timestamp: float
    kind: MeasurementKind
    frame: Frame
    z: tuple[float, ...]
    r6: np.ndarray

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError("event timestamp must be finite")
        z = tuple(float(v) for v in self.z)
        if len(z) != 6 or not all(map(math.isfinite, z)):
            raise ValueError(f"z must be six finite floats, got {self.z!r}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "r6", _checked_r6(self.r6, "r6"))

    @classmethod
    def _trusted(
        cls, timestamp: float, kind: MeasurementKind, frame: Frame, z: list[float], r6: np.ndarray
    ) -> "MeasurementEvent":
        """Unchecked construction for the per-event streams, from a finite stamp,
        six finite floats ``z`` the caller does not change afterwards and an
        ``r6`` that passed :func:`_checked_r6`."""
        e = object.__new__(cls)
        _set_timestamp(e, timestamp)
        _set_kind(e, kind)
        _set_frame(e, frame)
        _set_z(e, z)
        _set_r6(e, r6)
        return e


# The slots' own setters fill a frozen event twice as fast as object.__setattr__.
_set_timestamp, _set_kind, _set_frame, _set_z, _set_r6 = (
    MeasurementEvent.__dict__[name].__set__ for name in ("timestamp", "kind", "frame", "z", "r6")
)


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

# Flat indices of the Jacobian entries that differ from the identity, in the
# order _propagate lists their values.
_JACOBIAN_FLAT_INDEX = np.array(
    [r * STATE_DIM + c for r in range(3) for c in (3, 4, 5, 6, 7, 8, 12, 13, 14)]
    + [r * STATE_DIM + c for r, c in (
        (3, 3), (3, 4), (3, 9), (3, 10), (3, 11),
        (4, 3), (4, 10), (4, 11),
        (5, 3), (5, 4), (5, 10), (5, 11),
        (6, 12), (7, 13), (8, 14),
    )]
)
_EYE_STATE = np.eye(STATE_DIM)
_EYE_STATE.flags.writeable = False
_ONES_FLAT = np.ones(STATE_DIM * STATE_DIM)


def _propagate(x: list[float], dt: float, A: np.ndarray | None = None):
    """The motion model written out in scalar form.

    Returns the propagated state as a list of floats and, given a buffer
    ``A`` that is the identity outside ``_JACOBIAN_FLAT_INDEX`` (a copy of
    ``_EYE_STATE``, or one only this function wrote), the analytic Jacobian
    written into it.  R = Rz(yaw) Ry(pitch) Rx(roll) rotates body into
    parent coordinates and E maps body rates to Euler-angle rates::

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
    out = [
        px + m0,
        py + m1,
        pz + (r20 * d0 + r21 * d1 + r22 * d2),
        wrap_angle(roll + (wx + e01 * wy + e02 * wz) * dt),
        wrap_angle(pitch + (cr * wy - sr * wz) * dt),
        wrap_angle(yaw + (e21 * wy + e22 * wz) * dt),
        vx + ax * dt,
        vy + ay * dt,
        vz + az * dt,
        wx, wy, wz, ax, ay, az,
    ]
    if A is None:
        return out, None
    sec2 = 1.0 / (cp * cp)
    # The rotation partials applied to d reuse R's entries: row i of
    # dR/droll d is r_i2 d1 - r_i1 d2, dR/dyaw d = (-m1, m0, 0), and dR/dpitch
    # shares R's cy cp and sy cp factors.
    A.ravel()[_JACOBIAN_FLAT_INDEX] = [
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
    ]
    return out, A


def transition(x: np.ndarray, dt: float) -> np.ndarray:
    """Propagate the 15-state rigid-body model by dt seconds."""
    return np.array(_propagate(np.asarray(x, dtype=float).tolist(), dt)[0])


def transition_jacobian(x: np.ndarray, dt: float) -> np.ndarray:
    """Analytic Jacobian of :func:`transition` at x."""
    return _propagate(np.asarray(x, dtype=float).tolist(), dt, _EYE_STATE.copy())[1]


# ---------------------------------------------------------------------------
# Filter kernels
# ---------------------------------------------------------------------------
#
# A kernel takes the state as a list of floats and the covariance as an
# array and returns both in the same form.  _finish turns a result into the
# checked, exactly symmetric, read-only arrays a StateEstimate holds; a node
# chains the predict and update kernels of one event and finishes once.

def _finish(x: list[float], P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check a kernel result, symmetrize P exactly, freeze both.

    A single NaN or inf anywhere makes a sum non-finite (inf - inf is NaN),
    and well-scaled filter values cannot overflow it, so this is a complete
    finiteness check at a fraction of the cost of isfinite over every entry.
    """
    if not (math.isfinite(sum(x)) and math.isfinite(P.ravel().dot(_ONES_FLAT))):
        raise NumericError("filter produced non-finite state or covariance")
    x = np.array(x)
    P_sym = P + P.T
    P_sym *= 0.5
    x.setflags(write=False)
    P_sym.setflags(write=False)
    return x, P_sym


def _predict_kernel(
    x: list[float], P: np.ndarray, dt: float, q_dt: np.ndarray, A: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """x <- f(x, dt), P <- A P A^T + Q dt; ``q_dt`` is Q dt, ``A`` a Jacobian buffer."""
    x, A = _propagate(x, dt, A)
    P = A.dot(P).dot(A.T)
    P += q_dt
    return x, P


def _update_kernel(
    x: list[float], P: np.ndarray, lo: int, z, r6: np.ndarray, angles: bool
) -> tuple[list[float], np.ndarray]:
    """Joseph-form EKF update where H selects the 6-state block ``lo:lo+6``.

    ``z`` holds six floats; with ``angles`` its last three are angles and
    their innovation is wrapped, so +179 deg vs -179 deg disagree by 2
    degrees, not 358.
    """
    if not all(map(math.isfinite, z)):
        raise NumericError("measurement contains non-finite values")
    hi = lo + 6
    innovation = [zi - xi for zi, xi in zip(z, x[lo:hi])]
    if angles:
        innovation[3:6] = map(wrap_angle, innovation[3:6])
    P_rows = P[lo:hi]
    # LU solve of S K^T = P_rows: the LAPACK gesv gufunc np.linalg.solve
    # calls, minus its per-call wrapper (its float64 loop is the one the
    # gufunc picks for float arrays).  S is positive definite (PSD P, r6
    # checked positive definite), so the solve succeeds; a broken P that
    # makes it fail gives NaNs, which _finish rejects.
    Kt = _gesv(P[lo:hi, lo:hi] + r6, P_rows)
    K = Kt.T
    x = [a + b for a, b in zip(x, K.dot(innovation).tolist())]
    x[3:6] = map(wrap_angle, x[3:6])
    # Joseph form (I-KH) P (I-KH)^T + K R K^T with H a selector matrix:
    # M - M H^T K^T + K R K^T, folded into one product.
    M = P - K.dot(P_rows)
    P = M - (M[:, lo:hi] - K.dot(r6)).dot(Kt)
    return x, P


def _row_quaternion(z) -> tuple[float, float, float, float]:
    """The unit quaternion of a pose row's roll, pitch and yaw."""
    return q_from_euler(z[3], z[4], z[5])


def _velocity_measurement(prev: MeasurementEvent, cur: MeasurementEvent, q_prev, q_cur) -> tuple[list[float], float]:
    """Body-frame velocity z from invert(prev) o cur over dt, and dt; q_* are the rows' quaternions."""
    dt = cur.timestamp - prev.timestamp
    if dt <= 0.0:
        raise ValueError(f"differential pair must be strictly time-ordered, dt={dt}")
    p0, p1 = prev.z, cur.z
    x, y, z, w = q_prev
    # the conjugate is the inverse of a unit quaternion
    d = q_rotate(-x, -y, -z, w, p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
    v = q_rotation_vector(*q_normalized(q_product(-x, -y, -z, w, *q_cur)))
    return [d[0] / dt, d[1] / dt, d[2] / dt, v[0] / dt, v[1] / dt, v[2] / dt], dt


def _velocity_covariance(r_prev: np.ndarray, r_cur: np.ndarray, dt: float) -> np.ndarray:
    """The pair's pose covariances propagated to the velocity: (R0 + R1) / dt^2."""
    dt2 = dt * dt
    # checked before the division, which would otherwise warn on a degenerate dt
    if not (dt2 > 0.0 and math.isfinite(1.0 / dt2)):
        raise NumericError("measurement contains non-finite values")
    return (r_prev + r_cur) / dt2


# ---------------------------------------------------------------------------
# Filter operations
# ---------------------------------------------------------------------------

def predict(s: StateEstimate, model: ProcessModel, dt: float) -> StateEstimate:
    """Propagate state and covariance: x <- f(x, dt), P <- A P A^T + Q dt.

    dt = 0 is an exact no-op (same object); negative dt is a caller bug.
    """
    if not math.isfinite(dt) or dt < 0.0:
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    if dt == 0.0:
        return s
    x, P = _finish(*_predict_kernel(s.x.tolist(), s.P, dt, model.q * dt, _EYE_STATE.copy()))
    return StateEstimate._from_kernel(x, P, s.timestamp + dt)


def update_absolute(s: StateEstimate, m: MeasurementEvent) -> StateEstimate:
    """Fuse a pose measurement directly against the 6 pose states.

    The measurement model is the identity on the pose block; angular
    innovation components are wrapped so +179 deg vs -179 deg disagree by
    2 degrees, not 358.  An indefinite ``s.P`` raises :class:`NumericError`.
    """
    _check_psd(s.P, "covariance")
    x, P = _finish(*_update_kernel(s.x.tolist(), s.P, POSE_BLOCK.start, m.z, m.r6, True))
    return StateEstimate._from_kernel(x, P, s.timestamp)


def differential_velocity(prev: MeasurementEvent, cur: MeasurementEvent) -> np.ndarray:
    """Body-frame velocity pseudo-measurement from two consecutive poses.

    The delta pose invert(prev) o cur divided by dt; any constant offset
    applied to both poses cancels exactly.
    """
    return np.array(_velocity_measurement(prev, cur, _row_quaternion(prev.z), _row_quaternion(cur.z))[0])


def update_differential(
    s: StateEstimate, prev: MeasurementEvent, cur: MeasurementEvent
) -> StateEstimate:
    """Fuse a pose pair as a velocity pseudo-measurement on the twist states.

    The pair's pose covariances propagate to the velocity measurement as
    (R_prev + R_cur) / dt^2.  An indefinite ``s.P`` raises :class:`NumericError`.
    """
    if prev.kind is not MeasurementKind.ODOMETRY_DIFFERENTIAL or cur.kind is not MeasurementKind.ODOMETRY_DIFFERENTIAL:
        raise ValueError("differential fusion requires odometry events")
    _check_psd(s.P, "covariance")
    z, dt = _velocity_measurement(prev, cur, _row_quaternion(prev.z), _row_quaternion(cur.z))
    r_vel = _velocity_covariance(prev.r6, cur.r6, dt)
    x, P = _finish(*_update_kernel(s.x.tolist(), s.P, TWIST_BLOCK.start, z, r_vel, False))
    return StateEstimate._from_kernel(x, P, s.timestamp)


# ---------------------------------------------------------------------------
# Filter nodes
# ---------------------------------------------------------------------------

class EkfNode:
    """Sequential, single-owner filter node.

    Events must arrive with non-decreasing timestamps; an older event is
    rejected with :class:`OutOfOrderError`, counted, and leaves the state
    untouched, so callers may continue with newer events.

    The node keeps its estimate as read-only arrays :attr:`x` and :attr:`P`
    at time :attr:`timestamp`, replaced at every change, and runs the
    module's filter kernels on them; :attr:`state` wraps them in a
    :class:`StateEstimate` only when asked for, and returns the same object
    until the next change.  An indefinite initial or assigned covariance
    raises :class:`NumericError`.
    """

    # Time steps with a cached Q dt and velocity covariance: the float stamps of
    # a fixed-rate log step by two neighbouring values; more only add memory.
    _CACHED_STEPS = 2

    def __init__(self, config: FilterNodeConfig) -> None:
        self.config = config
        self.model = ProcessModel(config.q)
        self.state = config.initial_state
        self.rejected_count = 0
        self._started = False
        self._A = _EYE_STATE.copy()  # the Jacobian buffer of every prediction
        self._q_dt = lru_cache(self._CACHED_STEPS)(self.model.q.__mul__)  # dt -> Q dt
        self._r_vel: dict[float, tuple] = {}  # dt -> (R0, R1, (R0 + R1) / dt^2)
        # the last odometry row of node 2's differential chain and its quaternion
        self._prev: tuple[MeasurementEvent, tuple] | None = None

    @property
    def state(self) -> StateEstimate:
        s = self._state
        if s is None:
            s = self._state = StateEstimate._from_kernel(self.x, self.P, self.timestamp)
        return s

    @state.setter
    def state(self, s: StateEstimate) -> None:
        _check_psd(s.P, "node covariance")
        self.x, self.P, self.timestamp, self._state = s.x, s.P, s.timestamp, s

    def _commit(self, t: float, x: list[float], P: np.ndarray) -> None:
        self.x, self.P = _finish(x, P)
        self.timestamp = t
        self._state = None

    def _admit(self, event: MeasurementEvent) -> None:
        if not self._started:
            # Align the filter clock with the first event ever seen.
            self.timestamp = event.timestamp
            self._state = None
            self._started = True
            return
        if event.timestamp < self.timestamp:
            self.rejected_count += 1
            raise OutOfOrderError(
                f"event at t={event.timestamp} is older than filter time t={self.timestamp}"
            )

    def _predicted(self, t: float) -> tuple[list[float], np.ndarray]:
        """The estimate propagated to time t, not yet committed."""
        x, P = self.x.tolist(), self.P
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
            x, P = _predict_kernel(x, P, dt, q_dt, self._A)
        return x, P

    @staticmethod
    def _check_frame(event: MeasurementEvent, frame: Frame, step: str) -> None:
        if event.frame is not frame and event.frame != frame:
            raise FrameMismatchError(
                f"{step} takes {event.kind.value} poses in {frame}, got one in {event.frame}"
            )

    def _update_pose(self, event: MeasurementEvent) -> list[float]:
        x, P = self._predicted(event.timestamp)
        x, P = _update_kernel(x, P, POSE_BLOCK.start, event.z, event.r6, True)
        self._commit(event.timestamp, x, P)
        return x

    def node1_step(self, event: MeasurementEvent) -> list[float]:
        """Absolute fusion of one raw local-frame pose row; returns the local->body pose row."""
        self._check_frame(event, LOCAL, "node1_step")
        self._admit(event)
        return self._update_pose(event)[:6]

    def node2_step(self, event: MeasurementEvent) -> None:
        """World-frame fusion step into :attr:`x` and :attr:`P`.

        Odometry events carry node 1's local->body pose rows; consecutive ones
        fuse differentially, so the local frame's place in the world never
        enters.  Perception events carry world poses and fuse absolutely.
        """
        odometry = event.kind is MeasurementKind.ODOMETRY_DIFFERENTIAL
        self._check_frame(event, LOCAL if odometry else WORLD, "node2_step")
        self._admit(event)
        if not odometry:
            self._update_pose(event)
            return
        x, P = self._predicted(event.timestamp)
        q = _row_quaternion(event.z)
        if self._prev is not None:
            prev, q_prev = self._prev
            z, dt = _velocity_measurement(prev, event, q_prev, q)
            r_prev, r_cur = prev.r6, event.r6
            cached = self._r_vel.get(dt)
            if cached is None or cached[0] is not r_prev or cached[1] is not r_cur:
                if len(self._r_vel) >= self._CACHED_STEPS:
                    self._r_vel.clear()
                cached = self._r_vel[dt] = (r_prev, r_cur, _velocity_covariance(r_prev, r_cur, dt))
            x, P = _update_kernel(x, P, TWIST_BLOCK.start, z, cached[2], False)
        if P is not self.P:
            self._commit(event.timestamp, x, P)
        self._prev = event, q
