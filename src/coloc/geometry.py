"""Coordinate frames, and rigid-body pose arithmetic on arrays.

Poses are (n, 3) translation and (n, 4) unit quaternion arrays.

Conventions used throughout the package:

* Quaternions are stored scalar-last, ``(x, y, z, w)``, and multiply with the
  Hamilton product, so the rotation matrix of ``multiply_quaternions(a, b)``
  is the rotation matrix of ``a`` times that of ``b``.
* A pose ``(t, q)`` with parent frame P and child frame C maps coordinates of
  points expressed in C into P (``p -> rotate(q, p) + t``); equivalently it is
  the pose of C as observed from P.  Composition therefore chains
  parent->child->grandchild.
* Angles are radians internally.  Degrees appear only at configuration and
  reporting boundaries.
* Euler angles are roll/pitch/yaw about body x/y/z, composed as
  ``Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def q_normalized(q: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """q as a unit quaternion: q itself when it is unit within 1e-12, else q over its norm."""
    x, y, z, w = q
    n = math.sqrt(x * x + y * y + z * z + w * w)
    if not math.isfinite(n) or n == 0.0:
        raise ValueError(f"quaternion norm is {n}, cannot normalize")
    if abs(n - 1.0) > 1e-12:
        return x / n, y / n, z / n, w / n
    return q


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
# Pose arithmetic over (n, 4) scalar-last quaternion and (n, 3) vector
# arrays; a single row broadcasts against many, and one pose is a one-row
# call.  They evaluate the same expressions in the same order as the
# per-pose reference in tests/pose_objects.py, so each row is bit-identical
# to the per-pose result, except that np.arctan2 in geodesic_angles may round
# the last place differently from math.atan2.

def normalize_quaternions(q: np.ndarray) -> np.ndarray:
    """:func:`q_normalized` of every row."""
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
    """Hamilton products a * b, normalized row by row."""
    x1, y1, z1, w1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    x2, y2, z2, w2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    out[..., 1] = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    out[..., 2] = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    out[..., 3] = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    return normalize_quaternions(out)


def rotate_vectors(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectors v rotated by unit quaternions q: the sandwich q v q^-1 expanded."""
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
    """Chain the poses (ta, qa) and (tb, qb) row by row: b's child frame into a's parent frame."""
    return ta + rotate_vectors(qa, tb), multiply_quaternions(qa, qb)


def invert_arrays(t: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse transforms of the poses (t, q), row by row; parent and child frames swap."""
    q_inv = conjugate_quaternions(q)
    return -rotate_vectors(q_inv, t), q_inv


def euler_to_quaternions(angles: np.ndarray) -> np.ndarray:
    """Unit quaternion of every (roll, pitch, yaw) row of (n, 3) ``angles``.

    The closed form of the product yaw * pitch * roll of the three
    single-axis rotations (about z, y and x), applied roll first.
    """
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
    """Roll, pitch, yaw (n, 3) of every row of (n, 4) ``q``; pitch clamped at +-pi/2.

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


def rotation_vectors(q: np.ndarray) -> np.ndarray:
    """Axis-angle vector (n, 3) of every unit quaternion row of (n, 4) ``q``.

    Each row is taken on its w >= 0 cover (for w == 0, the first nonzero of
    z, y, x positive), so the angle lies in [0, pi].  Below a vector part of
    1e-12 the vector is twice that part.  The angles come from math.atan2
    mapped over the rows, as in :func:`quaternions_to_euler`.
    """
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    flip = (w < 0.0) | ((w == 0.0) & ((z < 0.0) | ((z == 0.0) & ((y < 0.0) | ((y == 0.0) & (x < 0.0))))))
    q = np.where(flip[..., None], -q, q)
    v, w = q[..., :3], q[..., 3]
    vn = np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])
    k = np.full(vn.shape, 2.0)
    big = ~(vn < 1e-12)
    angle = 2.0 * np.array(list(map(math.atan2, vn[big].tolist(), w[big].tolist())))
    k[big] = angle / vn[big]
    return v * k[..., None]


def rotation_matrix_to_quaternion(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (4,) of a 3x3 rotation matrix, by Shepperd's method.

    The branch is the largest of the trace and the diagonal entries, so the
    square root is taken of the largest quaternion component.
    """
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    q = np.empty(4)
    if tr > max(R[0, 0], R[1, 1], R[2, 2]):
        q[3] = 0.5 * math.sqrt(1.0 + tr)
        s = 0.25 / q[3]
        q[0], q[1], q[2] = (R[2, 1] - R[1, 2]) * s, (R[0, 2] - R[2, 0]) * s, (R[1, 0] - R[0, 1]) * s
    else:
        i = int(np.argmax([R[0, 0], R[1, 1], R[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        q[i] = 0.5 * math.sqrt(1.0 + R[i, i] - R[j, j] - R[k, k])
        s = 0.25 / q[i]
        q[j] = (R[j, i] + R[i, j]) * s
        q[k] = (R[k, i] + R[i, k]) * s
        q[3] = (R[k, j] - R[j, k]) * s
    return np.array(q_normalized(tuple(q.tolist())))


def geodesic_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic angle between the rotations of every row pair, in [0, pi]; double-cover safe."""
    r = multiply_quaternions(conjugate_quaternions(a), b)
    rx, ry, rz, rw = r[..., 0], r[..., 1], r[..., 2], r[..., 3]
    return 2.0 * np.arctan2(np.sqrt(rx * rx + ry * ry + rz * rz), np.abs(rw))


# World-axis permutation NED -> ENU (n,e,d) -> (e,n,-d): 180 degrees about (1,1,0)/sqrt(2).
_Q_WORLD_NED_TO_ENU = np.array([math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0])
# Body-axis convention swap forward-right-down -> forward-left-up: 180 degrees about x.
_Q_BODY_FRD_TO_FLU = np.array([1.0, 0.0, 0.0, 0.0])
_NED_TO_ENU_AXES = [1, 0, 2]
_NED_TO_ENU_SIGNS = np.array([1.0, 1.0, -1.0])


def ned_to_enu_arrays(t: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re-express north-east-down poses (t, q) in east-north-up axes, row by row.

    Both the world axes and the body axes switch convention (forward-right-down
    to forward-left-up), so a vehicle heading north (identity in NED) comes out
    with an ENU yaw of +90 degrees.  The mapping is an involution: applying it
    twice returns the input.
    """
    return (
        t[..., _NED_TO_ENU_AXES] * _NED_TO_ENU_SIGNS,
        multiply_quaternions(multiply_quaternions(_Q_WORLD_NED_TO_ENU, q), _Q_BODY_FRD_TO_FLU),
    )
