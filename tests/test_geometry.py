"""Geometry tests: the package's frames and array forms, and the per-pose
reference objects of ``pose_objects.py`` that the array forms are pinned to.

Every expected value here is produced by an independent oracle: scipy's
Rotation class for quaternion algebra and 4x4 homogeneous matrices for pose
composition/inversion.  The code under test never touches scipy's
Rotation, so agreement is meaningful.
"""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from coloc.errors import FrameMismatchError
from coloc.geometry import (
    BODY_ADAS,
    BODY_SMART,
    LOCAL,
    WORLD,
    Agent,
    Frame,
    body_frame,
    wrap_angle,
)
from pose_objects import (
    Pose,
    Quaternion,
    compose,
    enu_to_ned,
    invert,
    ned_to_enu,
    quat_yaw,
    relative_pose,
    rotation_geodesic,
)
from pose_rows import arrays_of

RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_matrix(t, q_xyzw) -> np.ndarray:
    """Homogeneous 4x4 transform built with scipy only."""
    T = np.eye(4)
    T[:3, :3] = Rotation.from_quat(q_xyzw).as_matrix()
    T[:3, 3] = t
    return T


def pose_matrix(p: Pose) -> np.ndarray:
    return oracle_matrix(p.translation, p.rotation.as_array())


def assert_pose_matches_matrix(p: Pose, T: np.ndarray, tol=1e-9):
    np.testing.assert_allclose(p.translation, T[:3, 3], atol=tol)
    np.testing.assert_allclose(p.rotation.rotation_matrix(), T[:3, :3], atol=tol)


def random_quat() -> Quaternion:
    return Quaternion.from_array(Rotation.random(rng=RNG).as_quat())


def random_pose(parent=WORLD, child=BODY_ADAS, t=1.0) -> Pose:
    return Pose(t, RNG.normal(size=3), random_quat(), parent, child)


# ---------------------------------------------------------------------------
# Quaternion algebra against scipy
# ---------------------------------------------------------------------------

class TestQuaternion:
    def test_identity(self):
        q = Quaternion.identity()
        np.testing.assert_allclose(q.rotation_matrix(), np.eye(3), atol=1e-15)

    def test_normalizes_on_construction(self):
        q = Quaternion(0.0, 0.0, 2.0, 0.0)
        assert math.isclose(q.norm(), 1.0, abs_tol=1e-12)
        assert math.isclose(q.z, 1.0, abs_tol=1e-12)

    def test_rejects_zero_and_nonfinite(self):
        with pytest.raises(ValueError):
            Quaternion(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Quaternion(math.nan, 0.0, 0.0, 1.0)

    def test_hamilton_product_matches_matrix_product(self):
        for _ in range(50):
            a, b = random_quat(), random_quat()
            expect = a.rotation_matrix() @ b.rotation_matrix()
            np.testing.assert_allclose((a * b).rotation_matrix(), expect, atol=1e-12)

    def test_product_matches_scipy(self):
        for _ in range(50):
            a, b = random_quat(), random_quat()
            expect = (Rotation.from_quat(a.as_array()) * Rotation.from_quat(b.as_array())).as_quat()
            got = (a * b).canonical().as_array()
            if expect[3] < 0:
                expect = -expect
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_conjugate_is_inverse(self):
        for _ in range(20):
            q = random_quat()
            r = (q * q.conjugate()).canonical()
            np.testing.assert_allclose(r.as_array(), [0, 0, 0, 1], atol=1e-12)

    def test_rotation_matrix_matches_scipy(self):
        for _ in range(50):
            q = random_quat()
            np.testing.assert_allclose(
                q.rotation_matrix(), Rotation.from_quat(q.as_array()).as_matrix(), atol=1e-12
            )

    def test_from_rotation_matrix_round_trip(self):
        for _ in range(200):
            q = random_quat().canonical()
            back = Quaternion.from_rotation_matrix(q.rotation_matrix()).canonical()
            np.testing.assert_allclose(back.as_array(), q.as_array(), atol=1e-9)

    def test_from_rotation_matrix_branch_coverage(self):
        # 180-degree rotations exercise every branch of Shepperd's method.
        for axis in (np.eye(3)):
            R = Rotation.from_rotvec(math.pi * axis).as_matrix()
            q = Quaternion.from_rotation_matrix(R)
            np.testing.assert_allclose(q.rotation_matrix(), R, atol=1e-12)

    def test_euler_round_trip_matches_scipy(self):
        for _ in range(100):
            rpy = RNG.uniform([-math.pi, -math.pi / 2 + 0.05, -math.pi], [math.pi, math.pi / 2 - 0.05, math.pi])
            q = Quaternion.from_euler(*rpy)
            expect = Rotation.from_euler("xyz", rpy).as_matrix()
            np.testing.assert_allclose(q.rotation_matrix(), expect, atol=1e-12)
            np.testing.assert_allclose(q.to_euler(), rpy, atol=1e-9)

    def test_rotation_vector_matches_scipy(self):
        for _ in range(100):
            q = random_quat()
            expect = Rotation.from_quat(q.as_array()).as_rotvec()
            got = q.rotation_vector()
            # Double cover: scipy may return the same axis-angle or its 2*pi complement.
            if np.dot(expect, got) < 0 and np.linalg.norm(expect) > 1e-6:
                expect = expect * (1 - 2 * math.pi / np.linalg.norm(expect))
            np.testing.assert_allclose(got, expect, atol=1e-9)

    def test_rotation_vector_near_identity(self):
        q = Quaternion(1e-9, -2e-9, 3e-9, 1.0)
        v = q.rotation_vector()
        np.testing.assert_allclose(v, [2e-9, -4e-9, 6e-9], rtol=1e-6)

    def test_canonical_nonnegative_scalar(self):
        q = Quaternion(0.1, 0.2, 0.3, -0.5)
        c = q.canonical()
        assert c.w > 0
        np.testing.assert_allclose(c.rotation_matrix(), q.rotation_matrix(), atol=1e-12)


class TestQuatYaw:
    def test_quarter_turn_components(self):
        q = quat_yaw(math.pi / 2)
        np.testing.assert_allclose(q.as_array(), [0, 0, math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)

    def test_zero_is_identity(self):
        np.testing.assert_allclose(quat_yaw(0.0).as_array(), [0, 0, 0, 1], atol=1e-15)

    def test_matches_scipy_z_rotation(self):
        for theta in RNG.uniform(-math.pi, math.pi, size=25):
            np.testing.assert_allclose(
                quat_yaw(theta).rotation_matrix(),
                Rotation.from_euler("z", theta).as_matrix(),
                atol=1e-12,
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            quat_yaw(math.inf)


class TestGeodesic:
    def test_yaw_offset(self):
        assert math.isclose(rotation_geodesic(Quaternion.identity(), quat_yaw(0.3)), 0.3, abs_tol=1e-12)

    def test_sign_insensitive(self):
        a = random_quat()
        b = Quaternion.from_array(-a.as_array())
        assert rotation_geodesic(a, b) < 1e-12

    def test_matches_scipy_magnitude(self):
        for _ in range(50):
            a, b = random_quat(), random_quat()
            ra, rb = Rotation.from_quat(a.as_array()), Rotation.from_quat(b.as_array())
            expect = (ra.inv() * rb).magnitude()
            assert math.isclose(rotation_geodesic(a, b), expect, abs_tol=1e-9)

    def test_symmetry(self):
        a, b = random_quat(), random_quat()
        assert math.isclose(rotation_geodesic(a, b), rotation_geodesic(b, a), abs_tol=1e-12)


class TestWrapAngle:
    def test_interval_is_half_open(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_arrays_and_scalars(self):
        vals = np.array([0.0, 2 * math.pi, -2 * math.pi, math.pi + 0.1, -math.pi - 0.1])
        expect = np.array([0.0, 0.0, 0.0, -math.pi + 0.1, math.pi - 0.1])
        np.testing.assert_allclose(wrap_angle(vals), expect, atol=1e-12)

    def test_idempotent(self):
        x = RNG.uniform(-20, 20, size=100)
        np.testing.assert_allclose(wrap_angle(wrap_angle(x)), wrap_angle(x), atol=1e-12)


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

class TestFrame:
    def test_body_frames_per_agent(self):
        assert body_frame(Agent.SMART) == BODY_SMART
        assert body_frame(Agent.ADAS) == BODY_ADAS
        assert BODY_SMART != BODY_ADAS

    def test_world_and_local_distinct(self):
        assert WORLD != LOCAL

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Frame("galactic")

    def test_agent_only_for_body(self):
        with pytest.raises(ValueError):
            Frame("world", Agent.SMART)
        with pytest.raises(ValueError):
            Frame("body")


# ---------------------------------------------------------------------------
# Pose construction and invariants
# ---------------------------------------------------------------------------

class TestPose:
    def test_rejects_equal_frames(self):
        with pytest.raises(FrameMismatchError):
            Pose(0.0, np.zeros(3), Quaternion.identity(), WORLD, WORLD)

    def test_rejects_negative_and_nonfinite_time(self):
        with pytest.raises(ValueError):
            Pose(-1.0, np.zeros(3), Quaternion.identity(), WORLD, BODY_ADAS)
        with pytest.raises(ValueError):
            Pose(math.nan, np.zeros(3), Quaternion.identity(), WORLD, BODY_ADAS)

    def test_rejects_bad_translation(self):
        with pytest.raises(ValueError):
            Pose(0.0, np.zeros(2), Quaternion.identity(), WORLD, BODY_ADAS)
        with pytest.raises(ValueError):
            Pose(0.0, np.array([1.0, math.inf, 0.0]), Quaternion.identity(), WORLD, BODY_ADAS)

    def test_translation_is_read_only_copy(self):
        src = np.array([1.0, 2.0, 3.0])
        p = Pose(0.0, src, Quaternion.identity(), WORLD, BODY_ADAS)
        src[0] = 99.0
        assert p.translation[0] == 1.0
        with pytest.raises(ValueError):
            p.translation[0] = 5.0

    def test_matrix_matches_oracle(self):
        p = random_pose()
        np.testing.assert_allclose(p.matrix(), pose_matrix(p), atol=1e-12)


# ---------------------------------------------------------------------------
# Compose / invert / relative against the matrix oracle
# ---------------------------------------------------------------------------

class TestCompose:
    def test_quarter_turn_then_step(self):
        # Walking one unit along x after a 90 degree yaw lands on +y.
        a = Pose(0.0, np.zeros(3), quat_yaw(math.pi / 2), WORLD, BODY_SMART)
        b = Pose(1.0, np.array([1.0, 0.0, 0.0]), Quaternion.identity(), BODY_SMART, BODY_ADAS)
        c = compose(a, b)
        np.testing.assert_allclose(c.translation, [0.0, 1.0, 0.0], atol=1e-12)
        assert c.parent_frame == WORLD and c.child_frame == BODY_ADAS
        assert c.timestamp == b.timestamp

    def test_matches_matrix_product(self):
        for _ in range(50):
            a = random_pose(WORLD, LOCAL)
            b = random_pose(LOCAL, BODY_ADAS)
            assert_pose_matches_matrix(compose(a, b), pose_matrix(a) @ pose_matrix(b))

    def test_associative(self):
        a = random_pose(WORLD, LOCAL)
        b = random_pose(LOCAL, BODY_SMART)
        c = random_pose(BODY_SMART, BODY_ADAS)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.translation, right.translation, atol=1e-9)
        assert rotation_geodesic(left.rotation, right.rotation) < 1e-9

    def test_identity_laws(self):
        p = random_pose(WORLD, BODY_ADAS)
        ident_left = Pose(p.timestamp, np.zeros(3), Quaternion.identity(), LOCAL, WORLD)
        ident_right = Pose(p.timestamp, np.zeros(3), Quaternion.identity(), BODY_ADAS, LOCAL)
        out = compose(ident_left, p)
        np.testing.assert_allclose(out.translation, p.translation, atol=1e-12)
        np.testing.assert_allclose(out.rotation.canonical().as_array(), p.rotation.canonical().as_array(), atol=1e-12)
        out2 = compose(p, ident_right)
        np.testing.assert_allclose(out2.translation, p.translation, atol=1e-12)
        np.testing.assert_allclose(out2.rotation.canonical().as_array(), p.rotation.canonical().as_array(), atol=1e-12)

    def test_frame_mismatch_raises(self):
        a = random_pose(WORLD, LOCAL)
        b = random_pose(BODY_SMART, BODY_ADAS)
        with pytest.raises(FrameMismatchError):
            compose(a, b)


class TestInvert:
    def test_known_case_against_matrix_inverse(self):
        p = Pose(2.0, np.array([1.0, 0.0, 0.0]), quat_yaw(math.radians(30)), WORLD, BODY_SMART)
        T_inv = np.linalg.inv(pose_matrix(p))
        got = invert(p)
        assert_pose_matches_matrix(got, T_inv)
        assert got.parent_frame == BODY_SMART and got.child_frame == WORLD

    def test_random_against_matrix_inverse(self):
        for _ in range(50):
            p = random_pose()
            assert_pose_matches_matrix(invert(p), np.linalg.inv(pose_matrix(p)))

    def test_round_trip_is_identity(self):
        # compose(p, invert(p)) would be a self-transform, which Pose forbids
        # by construction, so check the cancellation on matrices.
        p = random_pose()
        np.testing.assert_allclose(p.matrix() @ invert(p).matrix(), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(invert(p).matrix() @ p.matrix(), np.eye(4), atol=1e-12)

    def test_double_inversion_restores_pose(self):
        p = random_pose()
        back = invert(invert(p))
        np.testing.assert_allclose(back.translation, p.translation, atol=1e-12)
        assert rotation_geodesic(back.rotation, p.rotation) < 1e-12
        assert back.parent_frame == p.parent_frame and back.child_frame == p.child_frame


class TestRelativePose:
    def test_leader_ahead_on_straight_road(self):
        # Leader 5 m ahead of the follower, both heading the same way:
        # seen from the leader the follower sits 5 m behind.
        smart = Pose(1.0, np.array([15.0, 2.0, 0.0]), quat_yaw(0.4), WORLD, BODY_SMART)
        adas_t = smart.translation - smart.rotation.rotate([5.0, 0.0, 0.0])
        adas = Pose(1.0, adas_t, quat_yaw(0.4), WORLD, BODY_ADAS)
        rel = relative_pose(smart, adas)
        np.testing.assert_allclose(rel.translation, [-5.0, 0.0, 0.0], atol=1e-12)
        assert rotation_geodesic(rel.rotation, Quaternion.identity()) < 1e-12
        assert rel.parent_frame == BODY_SMART and rel.child_frame == BODY_ADAS

    def test_matches_matrix_oracle(self):
        for _ in range(50):
            smart = random_pose(WORLD, BODY_SMART)
            adas = random_pose(WORLD, BODY_ADAS)
            expect = np.linalg.inv(pose_matrix(smart)) @ pose_matrix(adas)
            assert_pose_matches_matrix(relative_pose(smart, adas), expect)

    def test_recomposition_round_trip(self):
        # Rebuilding the follower pose from leader pose + relative pose is exact.
        smart = random_pose(WORLD, BODY_SMART)
        adas = random_pose(WORLD, BODY_ADAS)
        rebuilt = compose(smart, relative_pose(smart, adas))
        np.testing.assert_allclose(rebuilt.translation, adas.translation, atol=1e-9)
        assert rotation_geodesic(rebuilt.rotation, adas.rotation) < 1e-9

    def test_mismatched_parents_raise(self):
        smart = random_pose(WORLD, BODY_SMART)
        adas = random_pose(LOCAL, BODY_ADAS)
        with pytest.raises(FrameMismatchError):
            relative_pose(smart, adas)


# ---------------------------------------------------------------------------
# NED <-> ENU
# ---------------------------------------------------------------------------

class TestNedEnu:
    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])  # world axis swap
    D = np.diag([1.0, -1.0, -1.0])  # body convention swap (FRD -> FLU)

    def test_heading_north_becomes_yaw_90(self):
        p = Pose(0.0, np.array([10.0, 4.0, -2.0]), Quaternion.identity(), WORLD, BODY_ADAS)
        out = ned_to_enu(p)
        np.testing.assert_allclose(out.translation, [4.0, 10.0, 2.0], atol=1e-12)
        _, _, yaw = out.rotation.to_euler()
        assert math.isclose(yaw, math.pi / 2, abs_tol=1e-12)

    def test_heading_east_becomes_identity(self):
        p = Pose(0.0, np.zeros(3), quat_yaw(math.pi / 2), WORLD, BODY_ADAS)
        out = ned_to_enu(p)
        assert rotation_geodesic(out.rotation, Quaternion.identity()) < 1e-12

    def test_matches_matrix_oracle(self):
        for _ in range(50):
            p = random_pose()
            out = ned_to_enu(p)
            np.testing.assert_allclose(out.translation, self.C @ p.translation, atol=1e-12)
            expect = self.C @ p.rotation.rotation_matrix() @ self.D
            np.testing.assert_allclose(out.rotation.rotation_matrix(), expect, atol=1e-12)

    def test_involution(self):
        p = random_pose()
        back = enu_to_ned(ned_to_enu(p))
        np.testing.assert_allclose(back.translation, p.translation, atol=1e-12)
        assert rotation_geodesic(back.rotation, p.rotation) < 1e-12

    def test_preserves_frames_and_time(self):
        p = random_pose(WORLD, BODY_SMART, t=3.5)
        out = ned_to_enu(p)
        assert out.parent_frame == p.parent_frame
        assert out.child_frame == p.child_frame
        assert out.timestamp == p.timestamp

    def test_ground_motion_stays_on_ground(self):
        # A planar NED trajectory (d=0, roll=pitch=0) maps to a planar ENU one.
        for theta in RNG.uniform(-math.pi, math.pi, size=10):
            p = Pose(0.0, np.array([RNG.normal(), RNG.normal(), 0.0]), quat_yaw(theta), WORLD, BODY_ADAS)
            out = ned_to_enu(p)
            assert abs(out.translation[2]) < 1e-12
            roll, pitch, yaw = out.rotation.to_euler()
            assert abs(roll) < 1e-9 and abs(pitch) < 1e-9
            assert math.isclose(wrap_angle(yaw - (math.pi / 2 - theta)), 0.0, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Array forms against the per-object methods
# ---------------------------------------------------------------------------

class TestArrayForms:
    """The many-pose array functions reproduce the per-object results bit for bit."""

    def make(self, n=200):
        rng = np.random.default_rng(88)
        poses = [
            Pose(float(k), rng.normal(size=3) * 20, Quaternion.from_array(Rotation.random(rng=rng).as_quat()), WORLD, BODY_ADAS)
            for k in range(n)
        ]
        t, q = arrays_of(poses)
        return poses, t, q

    def test_product_rotation_and_conjugate(self):
        from coloc.geometry import conjugate_quaternions, multiply_quaternions, rotate_vectors

        poses, t, q = self.make()
        b = np.roll(q, 1, axis=0)
        products = multiply_quaternions(q, b)
        rotated = rotate_vectors(q, t)
        conjugates = conjugate_quaternions(q)
        for k, p in enumerate(poses):
            other = Quaternion.from_array(b[k])
            assert products[k].tolist() == (p.rotation * other).as_array().tolist()
            assert rotated[k].tolist() == p.rotation.rotate(p.translation).tolist()
            assert conjugates[k].tolist() == p.rotation.conjugate().as_array().tolist()
        # one quaternion against many rows
        single = poses[0].rotation
        assert rotate_vectors(single.as_array(), t).tolist() == [single.rotate(v).tolist() for v in t]

    def test_compose_and_invert(self):
        from coloc.geometry import compose_arrays, invert_arrays

        poses, t, q = self.make()
        others = [Pose(p.timestamp, p.translation[::-1].copy(), p.rotation.conjugate(), BODY_ADAS, BODY_SMART) for p in poses]
        t_b, q_b = np.array([o.translation for o in others]), np.array([o.rotation.as_array() for o in others])
        t_c, q_c = compose_arrays(t, q, t_b, q_b)
        t_i, q_i = invert_arrays(t, q)
        for k, (p, o) in enumerate(zip(poses, others)):
            c, i = compose(p, o), invert(p)
            assert (t_c[k].tolist(), q_c[k].tolist()) == (c.translation.tolist(), c.rotation.as_array().tolist())
            assert (t_i[k].tolist(), q_i[k].tolist()) == (i.translation.tolist(), i.rotation.as_array().tolist())

    def test_geodesic_angles(self):
        from coloc.geometry import geodesic_angles

        poses, _, q = self.make()
        b = np.roll(q, 1, axis=0)
        expect = [rotation_geodesic(p.rotation, Quaternion.from_array(b[k])) for k, p in enumerate(poses)]
        np.testing.assert_allclose(geodesic_angles(q, b), expect, rtol=1e-15, atol=1e-15)

    def test_normalization_matches_constructor(self):
        from coloc.geometry import normalize_quaternions

        raw = np.array([[0.1, 0.2, 0.3, 0.9], [0.0, 0.0, 0.0, 1.0 + 5e-13], [0.0, 0.0, 0.0, 2.0]])
        assert normalize_quaternions(raw).tolist() == [Quaternion(*row).as_array().tolist() for row in raw.tolist()]
        with pytest.raises(ValueError):
            normalize_quaternions(np.array([[0.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            normalize_quaternions(np.array([[math.nan, 0.0, 0.0, 1.0]]))


def test_package_ships_array_geometry_only():
    # The per-pose objects live in pose_objects.py as the tests' reference;
    # no module of the package defines, imports or exports them.
    import importlib
    import pkgutil

    import coloc

    names = {"Pose", "Quaternion", "compose", "invert", "relative_pose", "ned_to_enu", "enu_to_ned",
             "quat_yaw", "rotation_geodesic"}
    assert names.isdisjoint(coloc.__all__)
    for info in pkgutil.iter_modules(coloc.__path__):
        assert names.isdisjoint(vars(importlib.import_module(f"coloc.{info.name}"))), info.name
