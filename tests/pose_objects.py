"""Pose and quaternion objects: the per-pose reference for the array geometry.

The package computes every pose as rows of (n, 3) translation and (n, 4)
scalar-last quaternion arrays (``coloc.geometry``), and node 2's twists as
one array pass per filter block (``coloc.ekf.body_twists``).  These objects
and the scalar ``q_*`` kernels compute one pose at a time on bare floats,
and the tests pin the array forms to them, bit for bit where the array form
promises it.

Conventions, shared with the array forms:

* Quaternions are stored scalar-last, ``(x, y, z, w)``, and multiply with the
  Hamilton product, so ``(a * b).rotation_matrix() == a.rotation_matrix() @
  b.rotation_matrix()``.
* A :class:`Pose` with parent frame P and child frame C maps coordinates of
  points expressed in C into P; equivalently it is the pose of C as observed
  from P.  Composition therefore chains parent->child->grandchild.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from coloc.errors import FrameMismatchError
from coloc.geometry import WORLD, Frame, body_frame, ned_to_enu_arrays, q_normalized


# ---------------------------------------------------------------------------
# Scalar quaternion kernels
# ---------------------------------------------------------------------------

def q_from_euler(roll: float, pitch: float, yaw: float) -> tuple[float, float, float, float]:
    """Unit quaternion of the Euler angles (roll, pitch, yaw)."""
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
    """Vector (vx, vy, vz) rotated by the unit quaternion (x, y, z, w): q v q^-1 expanded."""
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


def velocity_measurement(p0, p1, dt: float) -> list[float]:
    """Body twist of the pose rows p0 then p1 (x, y, z, roll, pitch, yaw): invert(p0) o p1 over dt."""
    x, y, z, w = q_from_euler(*p0[3:6])
    # the conjugate is the inverse of a unit quaternion
    d = q_rotate(-x, -y, -z, w, p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
    v = q_rotation_vector(*q_normalized(q_product(-x, -y, -z, w, *q_from_euler(*p1[3:6]))))
    return [d[0] / dt, d[1] / dt, d[2] / dt, v[0] / dt, v[1] / dt, v[2] / dt]


# ---------------------------------------------------------------------------
# Pose objects
# ---------------------------------------------------------------------------


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
        return cls(*q_from_euler(roll, pitch, yaw))

    def rotation_vector(self) -> np.ndarray:
        """Axis-angle vector (radians), magnitude in [0, pi]."""
        return np.array(q_rotation_vector(self.x, self.y, self.z, self.w))


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
    def identity(cls, timestamp: float, parent: Frame, child: Frame) -> "Pose":
        return cls(timestamp, np.zeros(3), Quaternion.identity(), parent, child)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous transform."""
        T = np.eye(4)
        T[:3, :3] = self.rotation.rotation_matrix()
        T[:3, 3] = self.translation
        return T


def _derived(timestamp, translation, rotation, parent, child) -> Pose:
    """A pose computed from checked poses, built without construction's checks.

    compose(p, invert(p)) is the self-transform of p's parent frame, which
    construction rejects for a pose a test spells out.
    """
    translation.setflags(write=False)
    p = object.__new__(Pose)
    for name, value in zip(Pose.__slots__, (timestamp, translation, rotation, parent, child)):
        object.__setattr__(p, name, value)
    return p


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
    return _derived(
        b.timestamp, np.array([t[0] + d[0], t[1] + d[1], t[2] + d[2]]), Quaternion(*q),
        a.parent_frame, b.child_frame,
    )


def invert(p: Pose) -> Pose:
    """Inverse transform; parent and child frames swap."""
    q_inv = p.rotation.conjugate()
    return _derived(p.timestamp, -q_inv.rotate(p.translation), q_inv, p.child_frame, p.parent_frame)


def relative_pose(world_smart: Pose, world_adas: Pose) -> Pose:
    """Pose of the follower's body frame as seen from the leader's body frame."""
    if world_smart.parent_frame != world_adas.parent_frame:
        raise FrameMismatchError(
            f"relative_pose needs a shared parent frame, got {world_smart.parent_frame} and {world_adas.parent_frame}"
        )
    return compose(invert(world_smart), world_adas)


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


def poses(log) -> tuple[Pose, ...]:
    """The world->body poses of a ``TrajectoryLog``, one per row."""
    child = body_frame(log.agent)
    return tuple(
        Pose(t, p, Quaternion(*q), WORLD, child)
        for t, p, q in zip(log.t.tolist(), log.p, log.q.tolist())
    )
