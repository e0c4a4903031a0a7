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

Node 1 runs in the local (start) frame and fuses raw follower poses
absolutely, acting as a smoother that outputs the local->body transform.
Node 2 runs in the world frame; it turns consecutive smoothed odometry poses
into body-velocity pseudo-measurements (differential fusion, immune to any
constant offset) and fuses perception-derived world poses absolutely.

All filter arithmetic lives in two kernels, :func:`_predict_kernel` and
:func:`_update_kernel`, over a bare state list and covariance array.  The
public :func:`predict`, :func:`update_absolute` and
:func:`update_differential` wrap them in :class:`StateEstimate` values; an
:class:`EkfNode` runs the very same kernels on the arrays it holds, so the
functions the tests check are the code a run executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgesv

from .errors import FrameMismatchError, NumericError, OutOfOrderError
from .geometry import (
    BODY_ADAS,
    LOCAL,
    WORLD,
    Frame,
    Pose,
    Quaternion,
    compose_values,
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
    """A validated, read-only float copy of a 6x6 pose covariance."""
    arr = np.asarray(r6, dtype=float)
    if arr.shape != (6, 6):
        raise ValueError(f"{what} must be 6x6, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} contains non-finite values")
    if np.abs(arr - arr.T).max() > 1e-9:
        raise ValueError(f"{what} must be symmetric")
    if (np.diagonal(arr) < 0.0).any():
        raise ValueError(f"{what} has negative diagonal entries")
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
        return _state_pose(self.x, self.timestamp, parent, child)


def _state_pose(x: np.ndarray, timestamp: float, parent: Frame, child: Frame) -> Pose:
    return Pose._trusted(
        timestamp, x[POS].copy(), Quaternion.from_euler(*x[ANG].tolist()), parent, child
    )


def state_from_pose(
    pose: Pose,
    pose_variance: float = 1e-6,
    derivative_variance: float = 1e3,
) -> StateEstimate:
    """Initial state anchored at a known pose with zero derivatives.

    Small variance on the pose block (the start is known), large on the
    derivative blocks (velocities must be learned from data).
    """
    x = np.zeros(STATE_DIM)
    x[POS] = pose.translation
    x[ANG] = pose.rotation.to_euler()
    diag = np.full(STATE_DIM, derivative_variance)
    diag[POSE_BLOCK] = pose_variance
    return StateEstimate(x, np.diag(diag), pose.timestamp)


class MeasurementKind(Enum):
    ODOMETRY_DIFFERENTIAL = "odometry_differential"
    PERCEPTION_ABSOLUTE = "perception_absolute"


@dataclass(frozen=True, slots=True)
class MeasurementEvent:
    """One timestamped pose measurement heading into a filter node.

    ``r6`` is the 6x6 covariance of (x, y, z, roll, pitch, yaw); when None,
    the node substitutes its configured per-channel default.
    """

    timestamp: float
    kind: MeasurementKind
    pose: Pose
    r6: np.ndarray | None = None
    source: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError("event timestamp must be finite")
        r6 = self.r6
        if r6 is not None:
            # Read-only float arrays only come out of the package's own
            # covariance constructors, which already validated them; this
            # runs once per event on a hot path.
            if (
                isinstance(r6, np.ndarray)
                and r6.dtype == np.float64
                and not r6.flags.writeable
            ):
                if r6.shape != (6, 6):
                    raise ValueError(f"r6 must be 6x6, got {r6.shape}")
                return
            object.__setattr__(self, "r6", _checked_r6(r6, "r6"))


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


class NodeId(Enum):
    NODE1 = "node1"
    NODE2 = "node2"


@dataclass(frozen=True)
class FilterNodeConfig:
    """Everything one filter node needs: init, process noise, channel noise.

    Node 1 estimates in the local frame and ignores ``world_to_local``;
    node 2 estimates in the world frame and requires it.
    """

    node_id: NodeId
    initial_state: StateEstimate
    q: np.ndarray
    default_r6: Mapping[MeasurementKind, np.ndarray] = field(default_factory=dict)
    world_to_local: Pose | None = None
    max_predict_dt: float = 1.0
    predict_substep: float = 0.1

    def __post_init__(self) -> None:
        if self.node_id is NodeId.NODE2:
            if self.world_to_local is None:
                raise ValueError("node 2 requires world_to_local")
            w2l = self.world_to_local
            if w2l.parent_frame != WORLD or w2l.child_frame != LOCAL:
                raise FrameMismatchError(
                    f"world_to_local must map local into world, got {w2l.parent_frame}<-{w2l.child_frame}"
                )
        if not (self.max_predict_dt > 0.0 and self.predict_substep > 0.0):
            raise ValueError("prediction step limits must be positive")
        # validated once here so per-event resolution can trust the entries
        checked = {
            kind: _checked_r6(r6, f"default r6 for {kind}") for kind, r6 in self.default_r6.items()
        }
        object.__setattr__(self, "default_r6", checked)

    @property
    def estimation_frame(self) -> Frame:
        return LOCAL if self.node_id is NodeId.NODE1 else WORLD


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


def _propagate(x: list[float], dt: float, with_jacobian: bool):
    """The motion model written out in scalar form.

    Returns the propagated state as a list of floats and, if asked, the
    analytic Jacobian.  R = Rz(yaw) Ry(pitch) Rx(roll) rotates body into
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
    if not with_jacobian:
        return out, None
    sec2 = 1.0 / (cp * cp)
    A = _EYE_STATE.copy()
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
    return np.array(_propagate(np.asarray(x, dtype=float).tolist(), dt, False)[0])


def transition_jacobian(x: np.ndarray, dt: float) -> np.ndarray:
    """Analytic Jacobian of :func:`transition` at x."""
    return _propagate(np.asarray(x, dtype=float).tolist(), dt, True)[1]


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
    P_sym = P.T.copy()  # (P + P.T) / 2, without a second temporary
    P_sym += P
    P_sym *= 0.5
    x.setflags(write=False)
    P_sym.setflags(write=False)
    return x, P_sym


def _predict_kernel(
    x: list[float], P: np.ndarray, q: np.ndarray, dt: float
) -> tuple[list[float], np.ndarray]:
    """x <- f(x, dt), P <- A P A^T + Q dt."""
    x, A = _propagate(x, dt, True)
    P = A.dot(P).dot(A.T)
    P += q * dt
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
    # LU solve of S K^T = P_rows, the same LAPACK routine np.linalg.solve
    # calls, minus its per-call wrapper cost
    _, _, Kt, info = dgesv(P[lo:hi, lo:hi] + r6, P_rows)
    if info != 0:
        raise NumericError(f"singular innovation covariance (LAPACK dgesv info={info})")
    K = Kt.T
    x = [a + b for a, b in zip(x, K.dot(innovation).tolist())]
    x[3:6] = map(wrap_angle, x[3:6])
    # Joseph form: (I-KH) P (I-KH)^T + K R K^T with H a selector matrix.
    M = P - K.dot(P_rows)
    P = M - M[:, lo:hi].dot(Kt) + K.dot(r6).dot(Kt)
    return x, P


def _pose_vector(pose: Pose) -> list[float]:
    return [*pose.translation.tolist(), *pose.rotation.to_euler()]


class _OdometryPose(NamedTuple):
    """One odometry pose of a differential pair, as bare values."""

    timestamp: float
    translation: list[float]
    rotation: tuple[float, float, float, float]  # scalar-last unit quaternion
    r6: np.ndarray | None
    source: str


def _odometry_pose(event: MeasurementEvent) -> _OdometryPose:
    r = event.pose.rotation
    return _OdometryPose(
        event.timestamp, event.pose.translation.tolist(), (r.x, r.y, r.z, r.w), event.r6, event.source
    )


def _velocity_measurement(prev: _OdometryPose, cur: _OdometryPose) -> tuple[list[float], float]:
    """Body-frame velocity z from invert(prev) o cur over dt, and dt."""
    t0, p0, (x, y, z, w), _, source0 = prev
    t1, p1, q1, _, source1 = cur
    dt = t1 - t0
    if dt <= 0.0:
        raise ValueError(f"differential pair must be strictly time-ordered, dt={dt}")
    if source0 != source1:
        raise ValueError(f"differential pair from mixed sources: {source0!r} vs {source1!r}")
    # the conjugate is the inverse of a unit quaternion
    d = q_rotate(-x, -y, -z, w, p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
    v = q_rotation_vector(*q_normalized(q_product(-x, -y, -z, w, *q1)))
    return [d[0] / dt, d[1] / dt, d[2] / dt, v[0] / dt, v[1] / dt, v[2] / dt], dt


def _differential_kernel(
    x: list[float], P: np.ndarray, prev: _OdometryPose, cur: _OdometryPose
) -> tuple[list[float], np.ndarray]:
    """Velocity pseudo-measurement update; pose covariances propagate as (R0 + R1) / dt^2."""
    z, dt = _velocity_measurement(prev, cur)
    dt2 = dt * dt
    # checked before the division, which would otherwise warn on a degenerate dt
    if not (all(map(math.isfinite, z)) and dt2 > 0.0 and math.isfinite(1.0 / dt2)):
        raise NumericError("measurement contains non-finite values")
    r_vel = (prev.r6 + cur.r6) / dt2
    return _update_kernel(x, P, TWIST_BLOCK.start, z, r_vel, False)


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
    x, P = _finish(*_predict_kernel(s.x.tolist(), s.P, model.q, dt))
    return StateEstimate._from_kernel(x, P, s.timestamp + dt)


def update_absolute(s: StateEstimate, m: MeasurementEvent) -> StateEstimate:
    """Fuse a pose measurement directly against the 6 pose states.

    The measurement model is the identity on the pose block; angular
    innovation components are wrapped so +179 deg vs -179 deg disagree by
    2 degrees, not 358.
    """
    if m.r6 is None:
        raise ValueError("event carries no covariance and no default was applied")
    x, P = _finish(
        *_update_kernel(s.x.tolist(), s.P, POSE_BLOCK.start, _pose_vector(m.pose), m.r6, True)
    )
    return StateEstimate._from_kernel(x, P, s.timestamp)


def differential_velocity(prev: MeasurementEvent, cur: MeasurementEvent) -> np.ndarray:
    """Body-frame velocity pseudo-measurement from two consecutive poses.

    The delta pose invert(prev) o cur divided by dt; any constant offset
    applied to both poses cancels exactly.
    """
    return np.array(_velocity_measurement(_odometry_pose(prev), _odometry_pose(cur))[0])


def update_differential(
    s: StateEstimate, prev: MeasurementEvent, cur: MeasurementEvent
) -> StateEstimate:
    """Fuse a pose pair as a velocity pseudo-measurement on the twist states.

    The pair's pose covariances propagate to the velocity measurement as
    (R_prev + R_cur) / dt^2.
    """
    if prev.kind is not MeasurementKind.ODOMETRY_DIFFERENTIAL or cur.kind is not MeasurementKind.ODOMETRY_DIFFERENTIAL:
        raise ValueError("differential fusion requires odometry events")
    if prev.r6 is None or cur.r6 is None:
        raise ValueError("differential fusion requires covariances on both events")
    x, P = _finish(*_differential_kernel(s.x.tolist(), s.P, _odometry_pose(prev), _odometry_pose(cur)))
    return StateEstimate._from_kernel(x, P, s.timestamp)


# ---------------------------------------------------------------------------
# Filter nodes
# ---------------------------------------------------------------------------

class EkfNode:
    """Sequential, single-owner filter node.

    Events must arrive with non-decreasing timestamps; an older event is
    rejected with :class:`OutOfOrderError`, counted, and leaves the state
    untouched, so callers may continue with newer events.

    The node keeps its estimate as bare arrays and runs the module's filter
    kernels on them; :attr:`state` wraps them in a :class:`StateEstimate`
    only when asked for, and returns the same object until the next change.
    """

    def __init__(self, config: FilterNodeConfig) -> None:
        self.config = config
        self.model = ProcessModel(config.q)
        self.state = config.initial_state
        self.rejected_count = 0
        self._frame = config.estimation_frame
        self._started = False
        # the last odometry pose in world coordinates
        self._prev: _OdometryPose | None = None

    @property
    def state(self) -> StateEstimate:
        s = self._state
        if s is None:
            s = self._state = StateEstimate._from_kernel(self._x, self._P, self._t)
        return s

    @state.setter
    def state(self, s: StateEstimate) -> None:
        self._x, self._P, self._t, self._state = s.x, s.P, s.timestamp, s

    def _commit(self, t: float, x: list[float], P: np.ndarray) -> None:
        self._x, self._P = _finish(x, P)
        self._t = t
        self._state = None

    def _admit(self, event: MeasurementEvent) -> None:
        if not self._started:
            # Align the filter clock with the first event ever seen.
            self._t = event.timestamp
            self._state = None
            self._started = True
            return
        if event.timestamp < self._t:
            self.rejected_count += 1
            raise OutOfOrderError(
                f"event at t={event.timestamp} is older than filter time t={self._t}"
            )

    def _predicted(self, t: float) -> tuple[list[float], np.ndarray]:
        """The estimate propagated to time t, not yet committed."""
        x, P = self._x.tolist(), self._P
        dt = t - self._t
        if dt <= 0.0:
            return x, P
        q = self.model.q
        if dt <= self.config.max_predict_dt:
            return _predict_kernel(x, P, q, dt)
        # A long gap would stretch one linearization too far; split it.
        n = max(1, math.ceil(dt / self.config.predict_substep))
        step = dt / n
        for _ in range(n):
            x, P = _predict_kernel(x, P, q, step)
        return x, P

    def _resolve_r6(self, event: MeasurementEvent) -> np.ndarray:
        if event.r6 is not None:
            return event.r6
        default = self.config.default_r6.get(event.kind)
        if default is None:
            raise ValueError(f"no covariance on event and no default for {event.kind}")
        return default

    def _check_frame(self, pose: Pose) -> None:
        if pose.parent_frame != self._frame:
            raise FrameMismatchError(
                f"{self.config.node_id.value} estimates in {self._frame}, "
                f"got a measurement in {pose.parent_frame}"
            )

    def _update_pose(self, event: MeasurementEvent) -> None:
        r6 = self._resolve_r6(event)
        x, P = self._predicted(event.timestamp)
        x, P = _update_kernel(x, P, POSE_BLOCK.start, _pose_vector(event.pose), r6, True)
        self._commit(event.timestamp, x, P)

    def _world_odometry(self, event: MeasurementEvent, local_to_body: Pose) -> _OdometryPose:
        """world_to_local o local_to_body as bare values, with the event's covariance."""
        t, q = compose_values(self.config.world_to_local, local_to_body)
        return _OdometryPose(event.timestamp, t, q, self._resolve_r6(event), event.source)

    def pose_estimate(self) -> Pose:
        return _state_pose(self._x, self._t, self._frame, BODY_ADAS)

    def node1_step(self, event: MeasurementEvent) -> Pose:
        """Absolute fusion of one raw local-frame pose; returns local->body."""
        self._check_frame(event.pose)
        self._admit(event)
        self._update_pose(event)
        return self.pose_estimate()

    def node2_step(self, event: MeasurementEvent, local_to_body: Pose | None = None) -> StateEstimate:
        """World-frame fusion step.

        Odometry events require the current local->body transform from node 1;
        the world pose world_to_local o local_to_body joins the differential
        chain.  Perception events carry world poses and fuse absolutely.
        """
        self._admit(event)
        if event.kind is MeasurementKind.ODOMETRY_DIFFERENTIAL:
            if local_to_body is None:
                raise ValueError("odometry events need the node-1 local->body transform")
            cur = self._world_odometry(event, local_to_body)
            x, P = self._predicted(event.timestamp)
            if self._prev is not None:
                x, P = _differential_kernel(x, P, self._prev, cur)
            if P is not self._P:
                self._commit(event.timestamp, x, P)
            self._prev = cur
        else:
            self._check_frame(event.pose)
            self._update_pose(event)
        return self.state


class TwoStageLocalizer:
    """Node 1 and node 2 chained: raw odometry in, world-frame estimate out."""

    def __init__(self, node1_config: FilterNodeConfig, node2_config: FilterNodeConfig) -> None:
        if node1_config.node_id is not NodeId.NODE1 or node2_config.node_id is not NodeId.NODE2:
            raise ValueError("configs must be for node 1 and node 2 respectively")
        self.node1 = EkfNode(node1_config)
        self.node2 = EkfNode(node2_config)

    def process_odometry(self, event: MeasurementEvent) -> StateEstimate:
        """Feed one raw local-frame odometry event through both nodes."""
        local_to_body = self.node1.node1_step(event)
        return self.node2.node2_step(event, local_to_body)

    def process_perception(self, event: MeasurementEvent) -> StateEstimate:
        """Feed one world-frame perception event into node 2."""
        return self.node2.node2_step(event)

    @property
    def state(self) -> StateEstimate:
        return self.node2.state

    def pose_estimate(self) -> Pose:
        return self.node2.pose_estimate()

    @property
    def rejected_count(self) -> int:
        return self.node1.rejected_count + self.node2.rejected_count
