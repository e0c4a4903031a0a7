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
    def _trusted(cls, x: float, y: float, z: float, w: float) -> "Quaternion":
        """Construction fast path for a row :func:`normalize_quaternions` produced.

        Such a row is unit within the same 1e-12 rule construction applies,
        so normalizing it again would return it unchanged; the check is
        skipped because this runs once per event on a hot path.
        """
        q = object.__new__(cls)
        object.__setattr__(q, "x", x)
        object.__setattr__(q, "y", y)
        object.__setattr__(q, "z", z)
        object.__setattr__(q, "w", w)
        return q

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
        return cls(*q_from_euler(roll, pitch, yaw))

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


def q_from_euler(roll: float, pitch: float, yaw: float) -> tuple[float, float, float, float]:
    """The components ``Quaternion.from_euler(roll, pitch, yaw)`` stores."""
    # Closed form of the product yaw * pitch * roll of the three
    # single-axis rotations (about z, y and x), applied roll first.
    cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
    cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    return q_normalized((
        sr * cp * cy - cr * sp * sy,
        cr * sp * cy + sr * cp * sy,
        cr * cp * sy - sr * sp * cy,
        cr * cp * cy + sr * sp * sy,
    ))


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
# Many-pose counterparts of Quaternion.__mul__, Quaternion.rotate,
# Quaternion.from_euler, Quaternion.to_euler and rotation_geodesic over
# (n, 4) scalar-last quaternion and (n, 3) vector arrays; a single row
# broadcasts against many, and one pose is a one-row call.  They evaluate
# the same expressions in the same order as the per-object code, so each row
# is bit-identical to the per-object result, except that np.arctan2 in
# geodesic_angles may round the last place differently from math.atan2.

def normalize_quaternions(q: np.ndarray) -> np.ndarray:
    """What Quaternion construction does to its components, row by row."""
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
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
    x1, y1, z1, w1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    x2, y2, z2, w2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    out[..., 1] = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    out[..., 2] = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    out[..., 3] = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    return normalize_quaternions(out)


def rotate_vectors(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectors v rotated by quaternions q, as Quaternion.rotate computes it."""
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    out = np.empty(np.broadcast_shapes(q.shape[:-1], v.shape[:-1]) + (3,))
    out[..., 0] = vx + w * tx + y * tz - z * ty
    out[..., 1] = vy + w * ty + z * tx - x * tz
    out[..., 2] = vz + w * tz + x * ty - y * tx
    return out


def compose_arrays(
    ta: np.ndarray, qa: np.ndarray, tb: np.ndarray, qb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`compose` of the poses (ta, qa) and (tb, qb), row by row."""
    return ta + rotate_vectors(qa, tb), multiply_quaternions(qa, qb)


def invert_arrays(t: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`invert` of the poses (t, q), row by row."""
    q_inv = conjugate_quaternions(q)
    return -rotate_vectors(q_inv, t), q_inv


def euler_to_quaternions(angles: np.ndarray) -> np.ndarray:
    """:meth:`Quaternion.from_euler` of every (roll, pitch, yaw) row of (n, 3) ``angles``."""
    half = 0.5 * np.asarray(angles, dtype=float)
    c, s = np.cos(half), np.sin(half)
    cr, cp, cy = c[..., 0], c[..., 1], c[..., 2]
    sr, sp, sy = s[..., 0], s[..., 1], s[..., 2]
    out = np.empty(half.shape[:-1] + (4,))
    out[..., 0] = sr * cp * cy - cr * sp * sy
    out[..., 1] = cr * sp * cy + sr * cp * sy
    out[..., 2] = cr * cp * sy - sr * sp * cy
    out[..., 3] = cr * cp * cy + sr * sp * sy
    return normalize_quaternions(out)


def quaternions_to_euler(q: np.ndarray) -> np.ndarray:
    """:meth:`Quaternion.to_euler` of every row of (n, 4) ``q``, as (n, 3) roll, pitch, yaw.

    The angles' arguments are array arithmetic; the angles themselves come
    from math.atan2 and math.asin mapped over them, because np.arctan2 and
    np.arcsin may round the last place differently.
    """
    x, y, z, w = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((len(q), 3))
    out[:, 0] = list(map(math.atan2, (2.0 * (w * x + y * z)).tolist(), (1.0 - 2.0 * (x * x + y * y)).tolist()))
    out[:, 1] = list(map(math.asin, np.clip(2.0 * (w * y - z * x), -1.0, 1.0).tolist()))
    out[:, 2] = list(map(math.atan2, (2.0 * (w * z + x * y)).tolist(), (1.0 - 2.0 * (y * y + z * z)).tolist()))
    return out


def geodesic_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rotation_geodesic for every row pair, in radians."""
    r = multiply_quaternions(conjugate_quaternions(a), b)
    rx, ry, rz, rw = r[..., 0], r[..., 1], r[..., 2], r[..., 3]
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
    if a.child_frame != b.parent_frame:
        raise FrameMismatchError(
            f"cannot compose: left child frame is {a.child_frame}, right parent frame is {b.parent_frame}"
        )
    ra, rb = a.rotation, b.rotation
    d = q_rotate(ra.x, ra.y, ra.z, ra.w, *b.translation.tolist())
    t = a.translation.tolist()
    q = q_normalized(q_product(ra.x, ra.y, ra.z, ra.w, rb.x, rb.y, rb.z, rb.w))
    return Pose._trusted(
        b.timestamp, np.array([t[0] + d[0], t[1] + d[1], t[2] + d[2]]), Quaternion(*q),
        a.parent_frame, b.child_frame,
    )


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
