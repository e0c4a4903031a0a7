"""Rigid-body poses, unit quaternions and coordinate-frame bookkeeping.

Conventions used throughout the package:

* Quaternions are stored scalar-last, ``(x, y, z, w)``, and multiply with the
  Hamilton product, so ``(a * b).rotation_matrix() == a.rotation_matrix() @
  b.rotation_matrix()``.
* A :class:`Pose` with parent frame P and child frame C maps coordinates of
  points expressed in C into P; equivalently it is the pose of C as observed
  from P.  Composition therefore chains parent->child->grandchild.
* Angles are radians internally.  Degrees appear only at configuration and
  reporting boundaries.
* Euler angles are roll/pitch/yaw about body x/y/z, composed as
  ``Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import FrameMismatchError

_TWO_PI = 2.0 * math.pi


class Agent(Enum):
    """The two vehicles: the lead vehicle shares its pose, the follower is estimated."""

    SMART = "smart"
    ADAS = "adas"


@dataclass(frozen=True)
class Frame:
    """Coordinate-frame identifier: world, local (start) or a vehicle body frame."""

    kind: str
    agent: Agent | None = None

    _KINDS = ("world", "local", "body")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown frame kind {self.kind!r}")
        if (self.kind == "body") != (self.agent is not None):
            raise ValueError("an agent is required for body frames and only for body frames")

    def __str__(self) -> str:
        return self.kind if self.agent is None else f"{self.kind}({self.agent.value})"


WORLD = Frame("world")
LOCAL = Frame("local")
BODY_SMART = Frame("body", Agent.SMART)
BODY_ADAS = Frame("body", Agent.ADAS)


def body_frame(agent: Agent) -> Frame:
    return BODY_SMART if agent is Agent.SMART else BODY_ADAS


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Unit quaternion, scalar-last storage ``(x, y, z, w)``.

    Normalized on construction; the sign is left untouched so perturbation
    chains stay reproducible.  Use :meth:`canonical` when comparing rotations
    across the double cover.
    """

    x: float
    y: float
    z: float
    w: float

    def __post_init__(self) -> None:
        given = (self.x, self.y, self.z, self.w)
        unit = q_normalized(given)
        if unit is not given:
            for name, value in zip("xyzw", unit):
                object.__setattr__(self, name, value)

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(0.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_array(cls, q) -> "Quaternion":
        x, y, z, w = (float(v) for v in q)
        return cls(x, y, z, w)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.w])

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z + self.w * self.w)

    def canonical(self) -> "Quaternion":
        """Same rotation with w >= 0, for sign-insensitive comparisons."""
        if self.w < 0.0 or (self.w == 0.0 and (self.z < 0.0 or (self.z == 0.0 and (self.y < 0.0 or (self.y == 0.0 and self.x < 0.0))))):
            return Quaternion(-self.x, -self.y, -self.z, -self.w)
        return self

    def conjugate(self) -> "Quaternion":
        return Quaternion(-self.x, -self.y, -self.z, self.w)

    inverse = conjugate  # unit quaternions only

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*q_product(self.x, self.y, self.z, self.w, other.x, other.y, other.z, other.w))

    def rotate(self, vec) -> np.ndarray:
        return np.array(
            q_rotate(self.x, self.y, self.z, self.w, float(vec[0]), float(vec[1]), float(vec[2]))
        )

    def rotation_matrix(self) -> np.ndarray:
        x, y, z, w = self.x, self.y, self.z, self.w
        xx, yy, zz = x * x, y * y, z * z
        xy, xz, yz = x * y, x * z, y * z
        wx, wy, wz = w * x, w * y, w * z
        return np.array(
            [
                [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
                [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
                [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
            ]
        )

    @classmethod
    def from_rotation_matrix(cls, R) -> "Quaternion":
        """Shepperd's method: pick the numerically largest diagonal branch."""
        R = np.asarray(R, dtype=float)
        tr = R[0, 0] + R[1, 1] + R[2, 2]
        if tr > max(R[0, 0], R[1, 1], R[2, 2]):
            w = 0.5 * math.sqrt(1.0 + tr)
            s = 0.25 / w
            return cls((R[2, 1] - R[1, 2]) * s, (R[0, 2] - R[2, 0]) * s, (R[1, 0] - R[0, 1]) * s, w)
        i = int(np.argmax([R[0, 0], R[1, 1], R[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        q = np.empty(4)
        q[i] = 0.5 * math.sqrt(1.0 + R[i, i] - R[j, j] - R[k, k])
        s = 0.25 / q[i]
        q[j] = (R[j, i] + R[i, j]) * s
        q[k] = (R[k, i] + R[i, k]) * s
        q[3] = (R[k, j] - R[j, k]) * s
        return cls(q[0], q[1], q[2], q[3])

    def to_euler(self) -> tuple[float, float, float]:
        """Roll, pitch, yaw in radians (pitch clamped at the +-pi/2 singularity)."""
        x, y, z, w = self.x, self.y, self.z, self.w
        roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
        sp = 2.0 * (w * y - z * x)
        pitch = math.asin(max(-1.0, min(1.0, sp)))
        yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
        return roll, pitch, yaw

    @classmethod
    def from_euler(cls, roll: float, pitch: float, yaw: float) -> "Quaternion":
        # Closed form of quat_yaw(yaw) * quat_pitch(pitch) * quat_roll(roll).
        cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
        cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
        cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
        return cls(
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
            cr * cp * cy + sr * sp * sy,
        )

    def rotation_vector(self) -> np.ndarray:
        """Axis-angle vector (radians), magnitude in [0, pi]."""
        return np.array(q_rotation_vector(self.x, self.y, self.z, self.w))


# ---------------------------------------------------------------------------
# Scalar quaternion kernels
# ---------------------------------------------------------------------------
#
# Quaternion's arithmetic on bare floats, for per-event loops that must not
# build objects; the methods above are thin wrappers around them.

def q_normalized(q: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """The components Quaternion(*q) stores: q itself when it is unit within 1e-12."""
    x, y, z, w = q
    n = math.sqrt(x * x + y * y + z * z + w * w)
    if not math.isfinite(n) or n == 0.0:
        raise ValueError(f"quaternion norm is {n}, cannot normalize")
    if abs(n - 1.0) > 1e-12:
        return x / n, y / n, z / n, w / n
    return q


def q_product(x1, y1, z1, w1, x2, y2, z2, w2) -> tuple[float, float, float, float]:
    """Hamilton product, not yet normalized."""
    return (
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
    )


def q_rotate(x, y, z, w, vx, vy, vz) -> tuple[float, float, float]:
    """Vector (vx, vy, vz) rotated by the unit quaternion (x, y, z, w).

    The sandwich q v q^-1 expanded to scalar math: measurably cheaper than
    building the rotation matrix for a single vector.
    """
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + y * tz - z * ty,
        vy + w * ty + z * tx - x * tz,
        vz + w * tz + x * ty - y * tx,
    )


def q_rotation_vector(x, y, z, w) -> tuple[float, float, float]:
    """Axis-angle vector of a unit quaternion, taken on its w >= 0 cover."""
    if w < 0.0 or (w == 0.0 and (z < 0.0 or (z == 0.0 and (y < 0.0 or (y == 0.0 and x < 0.0))))):
        x, y, z, w = -x, -y, -z, -w
    vn = math.sqrt(x * x + y * y + z * z)
    angle = 2.0 * math.atan2(vn, w)
    if vn < 1e-12:
        return 2.0 * x, 2.0 * y, 2.0 * z
    k = angle / vn
    return k * x, k * y, k * z


def quat_yaw(theta: float) -> Quaternion:
    """Rotation by theta radians about the z axis."""
    if not math.isfinite(theta):
        raise ValueError("yaw angle must be finite")
    h = 0.5 * theta
    return Quaternion(0.0, 0.0, math.sin(h), math.cos(h))


def _quat_pitch(theta: float) -> Quaternion:
    h = 0.5 * theta
    return Quaternion(0.0, math.sin(h), 0.0, math.cos(h))


def _quat_roll(theta: float) -> Quaternion:
    h = 0.5 * theta
    return Quaternion(math.sin(h), 0.0, 0.0, math.cos(h))


def rotation_geodesic(a: Quaternion, b: Quaternion) -> float:
    """Geodesic angle between two rotations, in [0, pi]; sign/double-cover safe."""
    r = a.conjugate() * b
    vn = math.sqrt(r.x * r.x + r.y * r.y + r.z * r.z)
    return 2.0 * math.atan2(vn, abs(r.w))


def wrap_angle(theta):
    """Wrap radians to (-pi, pi]; works on scalars and arrays.

    A Python float takes a scalar path that gives the same bits as the
    array path (``%`` and ``np.mod`` both follow the divisor's sign).
    """
    if type(theta) is float:
        return -((-theta + math.pi) % _TWO_PI - math.pi)
    return -(np.mod(-np.asarray(theta) + math.pi, _TWO_PI) - math.pi)


# ---------------------------------------------------------------------------
# Array forms
# ---------------------------------------------------------------------------
#
# Many-pose counterparts of Quaternion.__mul__, Quaternion.rotate and
# rotation_geodesic over (n, 4) scalar-last quaternion and (n, 3) vector
# arrays; a single row broadcasts against many.  They evaluate the same
# expressions in the same order as the per-object code, so each row is
# bit-identical to the per-object result.

def pose_arrays(poses) -> tuple[np.ndarray, np.ndarray]:
    """Translations (n, 3) and quaternions (n, 4) of a pose sequence."""
    t = np.array([p.translation for p in poses], dtype=float).reshape(-1, 3)
    q = np.array(
        [(p.rotation.x, p.rotation.y, p.rotation.z, p.rotation.w) for p in poses], dtype=float
    ).reshape(-1, 4)
    return t, q


def normalize_quaternions(q: np.ndarray) -> np.ndarray:
    """What Quaternion construction does to its components, row by row."""
    x, y, z, w = np.moveaxis(q, -1, 0)
    n = np.sqrt(x * x + y * y + z * z + w * w)
    if not (np.isfinite(n).all() and n.all()):
        bad = n[~(np.isfinite(n) & (n != 0.0))].flat[0]
        raise ValueError(f"quaternion norm is {bad}, cannot normalize")
    off = np.abs(n - 1.0) > 1e-12
    if off.any():
        q = q.copy()
        q[off] /= n[off, None]
    return q


_CONJUGATE_SIGNS = np.array([-1.0, -1.0, -1.0, 1.0])


def conjugate_quaternions(q: np.ndarray) -> np.ndarray:
    return q * _CONJUGATE_SIGNS


def multiply_quaternions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton products a * b, normalized as Quaternion() would."""
    x1, y1, z1, w1 = np.moveaxis(a, -1, 0)
    x2, y2, z2, w2 = np.moveaxis(b, -1, 0)
    out = np.stack(
        [
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ],
        axis=-1,
    )
    return normalize_quaternions(out)


def rotate_vectors(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectors v rotated by quaternions q, as Quaternion.rotate computes it."""
    x, y, z, w = np.moveaxis(q, -1, 0)
    vx, vy, vz = np.moveaxis(v, -1, 0)
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.stack(
        [
            vx + w * tx + y * tz - z * ty,
            vy + w * ty + z * tx - x * tz,
            vz + w * tz + x * ty - y * tx,
        ],
        axis=-1,
    )


def compose_arrays(
    ta: np.ndarray, qa: np.ndarray, tb: np.ndarray, qb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`compose` of the poses (ta, qa) and (tb, qb), row by row."""
    return ta + rotate_vectors(qa, tb), multiply_quaternions(qa, qb)


def invert_arrays(t: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`invert` of the poses (t, q), row by row."""
    q_inv = conjugate_quaternions(q)
    return -rotate_vectors(q_inv, t), q_inv


def geodesic_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rotation_geodesic for every row pair, in radians."""
    rx, ry, rz, rw = np.moveaxis(multiply_quaternions(conjugate_quaternions(a), b), -1, 0)
    return 2.0 * np.arctan2(np.sqrt(rx * rx + ry * ry + rz * rz), np.abs(rw))


@dataclass(frozen=True, slots=True)
class Pose:
    """Timestamped rigid transform from ``child_frame`` into ``parent_frame``."""

    timestamp: float
    translation: np.ndarray
    rotation: Quaternion
    parent_frame: Frame
    child_frame: Frame

    def __post_init__(self) -> None:
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0.0):
            raise ValueError(f"timestamp must be finite and non-negative, got {self.timestamp}")
        if self.parent_frame == self.child_frame:
            raise FrameMismatchError(f"parent and child frame are both {self.parent_frame}")
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "translation", t)

    @classmethod
    def _trusted(
        cls, timestamp: float, translation: np.ndarray, rotation: Quaternion,
        parent: Frame, child: Frame,
    ) -> "Pose":
        """Construction fast path for internal pose arithmetic.

        The caller guarantees a fresh finite float 3-vector and already-checked
        frames; validation is skipped because the inputs came from validated
        poses and closed arithmetic.
        """
        translation.setflags(write=False)
        p = object.__new__(cls)
        object.__setattr__(p, "timestamp", timestamp)
        object.__setattr__(p, "translation", translation)
        object.__setattr__(p, "rotation", rotation)
        object.__setattr__(p, "parent_frame", parent)
        object.__setattr__(p, "child_frame", child)
        return p

    @classmethod
    def identity(cls, timestamp: float, parent: Frame, child: Frame) -> "Pose":
        return cls(timestamp, np.zeros(3), Quaternion.identity(), parent, child)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous transform."""
        T = np.eye(4)
        T[:3, :3] = self.rotation.rotation_matrix()
        T[:3, 3] = self.translation
        return T


def compose(a: Pose, b: Pose) -> Pose:
    """Chain two poses: the result maps b's child frame into a's parent frame."""
    t, q = compose_values(a, b)
    return Pose._trusted(b.timestamp, np.array(t), Quaternion(*q), a.parent_frame, b.child_frame)


def compose_values(a: Pose, b: Pose) -> tuple[list[float], tuple[float, float, float, float]]:
    """The translation and quaternion components of compose(a, b), as bare floats."""
    if a.child_frame != b.parent_frame:
        raise FrameMismatchError(
            f"cannot compose: left child frame is {a.child_frame}, right parent frame is {b.parent_frame}"
        )
    ra, rb = a.rotation, b.rotation
    d = q_rotate(ra.x, ra.y, ra.z, ra.w, *b.translation.tolist())
    t = a.translation.tolist()
    q = q_normalized(q_product(ra.x, ra.y, ra.z, ra.w, rb.x, rb.y, rb.z, rb.w))
    return [t[0] + d[0], t[1] + d[1], t[2] + d[2]], q


def invert(p: Pose) -> Pose:
    """Inverse transform; parent and child frames swap."""
    q_inv = p.rotation.conjugate()
    return Pose._trusted(
        p.timestamp, -q_inv.rotate(p.translation), q_inv, p.child_frame, p.parent_frame
    )


def relative_pose(world_smart: Pose, world_adas: Pose) -> Pose:
    """Pose of the follower's body frame as seen from the leader's body frame."""
    if world_smart.parent_frame != world_adas.parent_frame:
        raise FrameMismatchError(
            f"relative_pose needs a shared parent frame, got {world_smart.parent_frame} and {world_adas.parent_frame}"
        )
    return compose(invert(world_smart), world_adas)


# World-axis permutation NED -> ENU (n,e,d) -> (e,n,-d): 180 degrees about (1,1,0)/sqrt(2).
_Q_WORLD_NED_TO_ENU = Quaternion(math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0).as_array()
# Body-axis convention swap forward-right-down -> forward-left-up: 180 degrees about x.
_Q_BODY_FRD_TO_FLU = Quaternion(1.0, 0.0, 0.0, 0.0).as_array()
_NED_TO_ENU_AXES = [1, 0, 2]
_NED_TO_ENU_SIGNS = np.array([1.0, 1.0, -1.0])


def ned_to_enu_arrays(t: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ned_to_enu` of the poses (t, q), row by row."""
    return (
        t[..., _NED_TO_ENU_AXES] * _NED_TO_ENU_SIGNS,
        multiply_quaternions(multiply_quaternions(_Q_WORLD_NED_TO_ENU, q), _Q_BODY_FRD_TO_FLU),
    )


def ned_to_enu(p: Pose) -> Pose:
    """Re-express a north-east-down pose in east-north-up axes.

    Both the world axes and the body axes switch convention (forward-right-down
    to forward-left-up), so a vehicle heading north (identity in NED) comes out
    with an ENU yaw of +90 degrees.  The mapping is an involution: applying it
    twice returns the input.
    """
    t, q = ned_to_enu_arrays(p.translation, p.rotation.as_array())
    return replace(p, translation=t, rotation=Quaternion(*q.tolist()))


enu_to_ned = ned_to_enu  # the axis swap is its own inverse
