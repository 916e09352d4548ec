import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_pose, random_rotation
from refcal.errors import NonPositiveDepth
from refcal.geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    Pose,
    apply,
    compose,
    identity,
    invert,
    log_so3,
    matrix_to_quaternion,
    orthonormalize,
    pose_from_quaternion,
    pose_quaternion,
    project,
    quaternion_to_matrix,
    rotation_about_axis,
    rotation_error,
    translation_error,
    unproject,
)

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
X, Y, Z = np.eye(3)


def test_compose_identity():
    i = identity()
    out = compose(i, i)
    assert_allclose(out.rotation, np.eye(3), atol=1e-15)
    assert_allclose(out.translation, 0.0, atol=1e-15)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_pose(rng)
        out = compose(p, invert(p))
        assert_allclose(out.rotation, np.eye(3), atol=1e-9)
        assert_allclose(out.translation, 0.0, atol=1e-9)


def test_compose_hand_computed():
    # Rz(90) at t=(1,0,0) after Rz(90) at t=0: 4x4 product gives Rz(180), t=(1,0,0).
    a = Pose(rotation_about_axis(Z, math.pi / 2), (1.0, 0.0, 0.0))
    b = Pose(rotation_about_axis(Z, math.pi / 2), (0.0, 0.0, 0.0))
    out = compose(a, b)
    assert_allclose(out.rotation, rotation_about_axis(Z, math.pi), atol=1e-15)
    assert_allclose(out.translation, (1.0, 0.0, 0.0), atol=1e-15)


def test_compose_associative():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a, b, c = (random_pose(rng) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert_allclose(lhs.rotation, rhs.rotation, atol=1e-9)
        assert_allclose(lhs.translation, rhs.translation, atol=1e-9)


def test_double_invert_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = random_pose(rng)
        q = invert(invert(p))
        assert_allclose(q.rotation, p.rotation, atol=1e-9)
        assert_allclose(q.translation, p.translation, atol=1e-9)


def test_long_composition_stays_orthonormal():
    rng = np.random.default_rng(17)
    p = identity()
    for _ in range(500):
        p = compose(p, random_pose(rng))
    assert np.max(np.abs(p.rotation.T @ p.rotation - np.eye(3))) < 1e-9
    assert abs(np.linalg.det(p.rotation) - 1.0) < 1e-9


def test_orthonormalize_projects_drifted_matrix():
    rng = np.random.default_rng(19)
    r = random_rotation(rng) + rng.normal(0, 1e-4, (3, 3))
    fixed = orthonormalize(r)
    assert np.max(np.abs(fixed.T @ fixed - np.eye(3))) < 1e-12
    assert np.linalg.det(fixed) > 0


@pytest.mark.parametrize("angle", [1e-12, 1e-7, 1.0, math.pi - 1e-7, math.pi])
def test_log_so3_inverts_rotation_about_axis(angle):
    axis = np.array([2.0, -3.0, 6.0]) / 7.0
    r = rotation_about_axis(axis, angle)
    v = log_so3(r)
    assert np.linalg.norm(v) == pytest.approx(angle, rel=1e-12)
    assert_allclose(v, angle * axis if angle < math.pi else math.copysign(angle, v @ axis) * axis,
                    rtol=1e-9, atol=1e-15)
    assert_allclose(rotation_about_axis(v / np.linalg.norm(v), np.linalg.norm(v)), r, atol=1e-15)


def test_equal_poses_hold_equal_bits_whatever_the_input_memory_order():
    rng = np.random.default_rng(23)
    points = rng.standard_normal((50, 3))
    for _ in range(20):
        p = random_pose(rng)
        f = Pose(np.asfortranarray(p.rotation), p.translation)
        assert f.rotation.flags.c_contiguous
        assert np.array_equal(apply(f, points), apply(p, points))
        assert np.array_equal(apply(invert(f), points), apply(invert(p), points))


def test_project_principal_point():
    assert_allclose(project(K, (0.0, 0.0, 2.0)), (320.0, 240.0), atol=1e-12)


def test_project_unit_offset():
    assert_allclose(project(K, (1.0, 0.0, 1.0)), (820.0, 240.0), atol=1e-12)


def test_project_at_60deg_fov():
    # fx = 960/tan(30 deg) for a 1920x1080 sensor; oracle value computed by hand.
    k = CameraIntrinsics.from_horizontal_fov(60.0, 1920, 1080)
    assert k.fx == pytest.approx(1662.7687752661222, abs=1e-9)
    uv = project(k, (0.5, 0.0, 2.0))
    assert uv[0] == pytest.approx(1375.6921938165306, abs=1e-9)
    assert uv[1] == pytest.approx(540.0, abs=1e-12)


def test_project_rejects_nonpositive_depth():
    with pytest.raises(NonPositiveDepth):
        project(K, (0.0, 0.0, 0.0))
    with pytest.raises(NonPositiveDepth):
        project(K, (0.0, 0.0, -1.0))
    with pytest.raises(NonPositiveDepth):
        project(K, [[0.0, 0.0, 1.0], [0.0, 0.0, 1e-12]])
    for depth in (MIN_DEPTH, 0.0, -1.0):
        with pytest.raises(NonPositiveDepth):
            unproject(K, (960.0, 540.0), depth)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unproject_rejects_non_finite_input():
    # A NaN depth passed the depth test and gave a NaN point, an infinite one
    # at the principal point warned of 0 * inf, and a NaN pixel gave NaN.
    for depth in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonPositiveDepth):
            unproject(K, (960.0, 540.0), depth)
    for pixel in ((math.nan, 540.0), (960.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="pixel must be finite"):
            unproject(K, pixel, 2.0)


def test_pose_rejects_a_flat_rotation():
    with pytest.raises(ValueError, match=r"rotation must have shape \(3, 3\), got \(9,\)"):
        Pose(np.eye(3).ravel(), np.zeros(3))


def test_project_unproject_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(100):
        uv = rng.uniform((0, 0), (K.width, K.height))
        depth = rng.uniform(0.1, 10.0)
        back = project(K, unproject(K, uv, depth))
        assert_allclose(back, uv, atol=1e-9)


def test_rotation_error_zero_and_quarter_turn():
    assert rotation_error(identity(), identity()) == 0.0
    a = Pose(rotation_about_axis(Z, math.pi / 2), np.zeros(3))
    assert rotation_error(a, identity()) == pytest.approx(math.pi / 2, abs=1e-12)


def test_rotation_error_matches_axis_angle_oracle():
    # Rx(10 deg) @ Ry(5 deg) vs identity; oracle is the quaternion half-angle
    # magnitude 2*atan2(|q_vec|, q_w) computed independently.
    rotation = rotation_about_axis(X, math.radians(10)) @ rotation_about_axis(Y, math.radians(5))
    a = Pose(rotation, np.zeros(3))
    assert rotation_error(a, identity()) == pytest.approx(0.19508417050559299, abs=1e-12)


def test_rotation_error_resolves_small_and_near_half_turn_angles():
    rng = np.random.default_rng(31)
    for angle in (1e-12, 1e-9, 1e-7, math.pi - 1e-6):
        axis = rng.standard_normal(3)
        base = Pose(random_rotation(rng), np.zeros(3))
        turned = Pose(rotation_about_axis(axis / np.linalg.norm(axis), angle) @ base.rotation,
                      np.zeros(3))
        assert rotation_error(turned, base) == pytest.approx(angle, abs=1e-15)
        assert rotation_error(base, turned) == pytest.approx(angle, abs=1e-15)


def test_rotation_error_symmetric_and_reflexive():
    rng = np.random.default_rng(29)
    for _ in range(30):
        a, b = random_pose(rng), random_pose(rng)
        assert rotation_error(a, b) == pytest.approx(rotation_error(b, a), abs=1e-12)
        assert rotation_error(a, a) < 1e-7


def test_translation_error_cases():
    a = Pose(np.eye(3), (1.0, 2.0, 3.0))
    b = Pose(np.eye(3), (1.1, 1.8, 3.0))
    assert_allclose(translation_error(a, a), (0, 0, 0), atol=0)
    assert_allclose(translation_error(a, b), (0.1, 0.2, 0.0), atol=1e-15)
    rng = np.random.default_rng(31)
    for _ in range(20):
        p, q = random_pose(rng), random_pose(rng)
        assert_allclose(translation_error(p, q), np.abs(p.translation - q.translation))


def test_quaternion_matrix_roundtrip():
    rng = np.random.default_rng(37)
    for _ in range(100):
        r = random_rotation(rng)
        q = matrix_to_quaternion(r)
        assert q[0] >= 0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert_allclose(quaternion_to_matrix(q), r, atol=1e-12)


def test_pose_from_quaternion_caches_exact_value():
    q = np.array([0.7071067811865475, 0.0, 0.7071067811865476, 0.0])
    p = pose_from_quaternion((0.1, 0.2, 0.3), q)
    assert np.array_equal(pose_quaternion(p), q)


@pytest.mark.parametrize("t", [(0.0, math.nan, 0.0), (math.inf, 0.0, 0.0)])
def test_pose_from_quaternion_rejects_a_non_finite_translation(t):
    with pytest.raises(ValueError, match="translation must be finite"):
        pose_from_quaternion(t, (1.0, 0.0, 0.0, 0.0))


def test_pose_matrix_roundtrip():
    rng = np.random.default_rng(41)
    p = random_pose(rng)
    m = p.matrix()
    q = Pose(m[:3, :3], m[:3, 3])
    assert_allclose(q.rotation, p.rotation, atol=0)
    assert_allclose(q.translation, p.translation, atol=0)
    assert np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0])
    x = rng.standard_normal(3)
    assert_allclose((m @ np.append(x, 1.0))[:3], apply(p, x), rtol=0, atol=1e-15)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=500.0, fy=500.0, cx=700.0, cy=240.0, width=640, height=480)


@pytest.mark.parametrize("size", [1920.5, True, "1920", None])
@pytest.mark.parametrize("name", ["width", "height"])
def test_intrinsics_image_size_must_be_an_integer(name, size):
    sizes = {"width": 1920, "height": 1080, name: size}
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {size!r}"):
        CameraIntrinsics(1000.0, 1000.0, 0.5, 0.5, **sizes)


def test_intrinsics_take_a_numpy_integer_image_size():
    k = CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0, np.int64(1920), np.int32(1080))
    assert (k.width, k.height) == (1920, 1080)


def test_apply_batch_matches_single():
    rng = np.random.default_rng(43)
    p = random_pose(rng)
    pts = rng.normal(size=(10, 3))
    batch = apply(p, pts)
    for i in range(10):
        assert_allclose(batch[i], apply(p, pts[i]), atol=1e-15)
