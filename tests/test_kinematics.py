import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import drifted_chains
from refcal.calibration import Mode, object_points
from refcal.errors import DimensionMismatch, JointLimitWarning
from refcal.fileio import builtin_chain_path, parse_chain_file
from refcal.geometry import (
    ORTHONORMAL_TOL,
    Pose,
    apply,
    compose,
    identity,
    invert,
    orthonormalize,
    rotation_about_axis,
    skew,
)
from refcal.kinematics import (
    Joint,
    JointLog,
    KinematicChain,
    ReferencePoint,
    base_point_in_ee_frame,
    end_effector_pose,
    forward_kinematics,
    reference_point_in_base,
)


Z = (0.0, 0.0, 1.0)


def _revolute(name, origin=None, axis=(0, 0, 1), limits=None):
    return Joint(
        name=name, kind="revolute", origin=origin or identity(), axis=axis, limits=limits
    )


def _fixed(name, t):
    return Joint(name=name, kind="fixed", origin=Pose(np.eye(3), t))


SINGLE = KinematicChain(
    name="one-rev", joints=(_revolute("j1"), _fixed("tool", (1.0, 0.0, 0.0)))
)


def test_fk_single_joint_at_zero():
    poses = forward_kinematics(SINGLE, [0.0])
    assert len(poses) == 3  # base + 2 links
    assert_allclose(poses[-1].translation, (1.0, 0.0, 0.0), atol=1e-15)
    assert_allclose(poses[-1].rotation, np.eye(3), atol=1e-15)


def test_fk_single_joint_quarter_turn():
    end = end_effector_pose(SINGLE, [math.pi / 2])
    assert_allclose(end.translation, (0.0, 1.0, 0.0), atol=1e-15)
    assert_allclose(end.rotation, rotation_about_axis(Z, math.pi / 2), atol=1e-15)


def test_fk_two_link_planar():
    # Lengths 1 and 1, both joints at 90 deg: elbow at (0,1), tip at (-1,1).
    chain = KinematicChain(
        name="planar-2r",
        joints=(
            _revolute("j1"),
            Joint(name="j2", kind="revolute", origin=Pose(np.eye(3), (1.0, 0.0, 0.0))),
            _fixed("tip", (1.0, 0.0, 0.0)),
        ),
    )
    end = end_effector_pose(chain, [math.pi / 2, math.pi / 2])
    assert_allclose(end.translation, (-1.0, 1.0, 0.0), atol=1e-15)


def test_fk_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        forward_kinematics(SINGLE, [0.0, 0.0])


def test_fk_deterministic(panda):
    chain, _ = panda
    q = np.array([0.3, -0.4, 0.5, -1.6, 0.2, 1.9, -0.7])
    a = forward_kinematics(chain, q)
    b = forward_kinematics(chain, q)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.rotation, pb.rotation)
        assert np.array_equal(pa.translation, pb.translation)


def _mdh_matrix(alpha, a, d, theta):
    """Independent modified-DH link matrix (Craig convention)."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [ct, -st, 0.0, a],
            [st * ca, ct * ca, -sa, -d * sa],
            [st * sa, ct * sa, ca, d * ca],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


PANDA_MDH = [
    (0.0, 0.0, 0.333),
    (-math.pi / 2, 0.0, 0.0),
    (math.pi / 2, 0.0, 0.316),
    (math.pi / 2, 0.0825, 0.0),
    (-math.pi / 2, -0.0825, 0.384),
    (math.pi / 2, 0.0, 0.0),
    (math.pi / 2, 0.088, 0.0),
]


def test_fk_matches_independent_matrix_chain(panda):
    # Oracle: straight 4x4 modified-DH matrix products, a separate code path
    # from the origin/axis composition used by the library.
    chain, ref = panda
    rng = np.random.default_rng(5)
    limits = [j.limits for j in chain.joints if j.actuated]
    for _ in range(20):
        q = np.array([rng.uniform(lo, hi) for lo, hi in limits])
        m = np.eye(4)
        for (alpha, a, d), theta in zip(PANDA_MDH, q):
            m = m @ _mdh_matrix(alpha, a, d, theta)
        m = m @ np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.107], [0, 0, 0, 1.0]])
        end = end_effector_pose(chain, q)
        assert_allclose(end.rotation, m[:3, :3], atol=1e-9)
        assert_allclose(end.translation, m[:3, 3], atol=1e-9)
        p_ref = reference_point_in_base(chain, ref, q)
        assert_allclose(p_ref, m[:3, 3], atol=1e-9)  # flange-centered offset


def test_reference_point_on_base_is_constant(panda):
    chain, _ = panda
    ref = ReferencePoint(link_index=0, offset=(0.155, 0.0, 0.0))
    rng = np.random.default_rng(9)
    limits = [j.limits for j in chain.joints if j.actuated]
    for _ in range(5):
        q = np.array([rng.uniform(lo, hi) for lo, hi in limits])
        assert_allclose(
            reference_point_in_base(chain, ref, q), (0.155, 0.0, 0.0), atol=0
        )


def test_reference_point_rotating_link():
    chain = KinematicChain(name="one-rev", joints=(_revolute("j1"),))
    ref = ReferencePoint(link_index=1, offset=(1.0, 0.0, 0.0))
    assert_allclose(reference_point_in_base(chain, ref, [math.pi]), (-1.0, 0.0, 0.0), atol=1e-12)


def test_reference_point_bad_link_index():
    chain = KinematicChain(name="one-rev", joints=(_revolute("j1"),))
    with pytest.raises(ValueError):
        reference_point_in_base(chain, ReferencePoint(link_index=5, offset=(0, 0, 0)), [0.0])


@pytest.mark.parametrize("offset", [(0.0, math.nan, 0.0), (math.inf, 0.0, 0.0)])
def test_reference_point_rejects_a_non_finite_offset(offset):
    with pytest.raises(ValueError, match="reference point offset must be finite"):
        ReferencePoint(link_index=1, offset=offset)


def test_base_point_in_ee_frame_pure_translation():
    chain = KinematicChain(name="slide", joints=(_fixed("off", (1.0, 0.0, 0.0)),))
    out = base_point_in_ee_frame(chain, [], (0.155, 0.0, 0.0))
    assert_allclose(out, (-0.845, 0.0, 0.0), atol=1e-15)


def test_base_point_in_ee_frame_rotation():
    # T(base<-EE) = Rz(90), t=0; base point (1,0,0) lands at (0,-1,0) in EE coords.
    chain = KinematicChain(name="one-rev", joints=(_revolute("j1"),))
    out = base_point_in_ee_frame(chain, [math.pi / 2], (1.0, 0.0, 0.0))
    assert_allclose(out, (0.0, -1.0, 0.0), atol=1e-12)


def test_base_point_roundtrip(panda):
    chain, _ = panda
    rng = np.random.default_rng(15)
    limits = [j.limits for j in chain.joints if j.actuated]
    p_base = np.array([0.155, 0.0, 0.0])
    for _ in range(10):
        q = np.array([rng.uniform(lo, hi) for lo, hi in limits])
        p_ee = base_point_in_ee_frame(chain, q, p_base)
        back = apply(end_effector_pose(chain, q), p_ee)
        assert_allclose(back, p_base, atol=1e-9)


def test_ee_base_duality_identity(panda):
    from refcal.geometry import invert

    chain, _ = panda
    rng = np.random.default_rng(21)
    limits = [j.limits for j in chain.joints if j.actuated]
    for _ in range(10):
        q = np.array([rng.uniform(lo, hi) for lo, hi in limits])
        t_be = end_effector_pose(chain, q)
        prod = compose(invert(t_be), t_be)
        assert_allclose(prod.rotation, np.eye(3), atol=1e-9)
        assert_allclose(prod.translation, 0.0, atol=1e-9)


def test_joint_perturbation_lipschitz(panda):
    # Moving one joint by delta shifts the flange by at most delta * total reach.
    chain, ref = panda
    reach = sum(float(np.linalg.norm(j.origin.translation)) for j in chain.joints)
    rng = np.random.default_rng(27)
    limits = [j.limits for j in chain.joints if j.actuated]
    delta = 1e-3
    for _ in range(10):
        q = np.array([rng.uniform(lo, hi) for lo, hi in limits])
        p0 = reference_point_in_base(chain, ref, q)
        j = rng.integers(0, len(q))
        q2 = q.copy()
        q2[j] += delta
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", JointLimitWarning)
            p1 = reference_point_in_base(chain, ref, q2)
        assert np.linalg.norm(p1 - p0) <= delta * reach + 1e-12


def test_limits_warn_but_do_not_fail():
    chain = KinematicChain(
        name="lim", joints=(_revolute("j1", limits=(-1.0, 1.0)),)
    )
    with pytest.warns(JointLimitWarning):
        poses = forward_kinematics(chain, [2.0])
    assert len(poses) == 2


def test_limit_warning_names_the_joint_its_reading_and_limits():
    chain = KinematicChain(name="lim", joints=(_revolute("j1", limits=(-1.0, 1.0)),))
    with pytest.warns(JointLimitWarning, match=r"^joint 'j1' reading 2 outside \[-1, 1\]$"):
        forward_kinematics(chain, [2.0])


def test_chain_limits_arrays_and_unlimited_joints():
    # A fixed joint contributes no entry; a joint without limits reads +-inf.
    chain = KinematicChain(
        name="mixed",
        joints=(
            _revolute("j1", limits=(-1.0, 1.0)),
            Joint(name="f", kind="fixed", origin=identity()),
            _revolute("j2"),
        ),
    )
    lo, hi = chain.limits
    assert lo.shape == hi.shape == (2,)
    assert np.array_equal(lo, [-1.0, -np.inf]) and np.array_equal(hi, [1.0, np.inf])
    # A NaN reading on the joint without limits is not warned about.
    with warnings.catch_warnings():
        warnings.simplefilter("error", JointLimitWarning)
        forward_kinematics(chain, [0.5, math.nan])
        forward_kinematics(chain, [[0.5, math.nan]])


def test_joint_validation():
    with pytest.raises(ValueError):
        Joint(name="bad", kind="helical", origin=identity())
    with pytest.raises(ValueError):
        Joint(name="bad", kind="revolute", origin=identity(), axis=(0, 0, 2))
    with pytest.raises(ValueError):
        Joint(name="bad", kind="revolute", origin=identity(), limits=(1.0, -1.0))


def test_chain_rejects_duplicate_names():
    with pytest.raises(ValueError):
        KinematicChain(name="dup", joints=(_revolute("a"), _revolute("a")))


def test_prismatic_joint():
    chain = KinematicChain(
        name="slider",
        joints=(Joint(name="s1", kind="prismatic", origin=identity(), axis=(1.0, 0.0, 0.0)),),
    )
    end = end_effector_pose(chain, [0.25])
    assert_allclose(end.translation, (0.25, 0.0, 0.0), atol=1e-15)
    assert_allclose(end.rotation, np.eye(3), atol=1e-15)


def test_joint_log_validation():
    with pytest.raises(ValueError):
        JointLog(frame_index=[0, 0], timestamps=[0.0, 0.1], positions=[[0.0], [0.1]])
    with pytest.raises(ValueError):
        JointLog(frame_index=[0, 1], timestamps=[0.0], positions=[[0.0], [0.1]])
    log = JointLog(frame_index=[0, 2], timestamps=[0.0, 0.2], positions=[[0.0], [0.1]])
    assert log.n_frames == 2
    assert log.n_joints == 1


# ------------------------------------------------------------ batched FK ---


def _per_frame_fk(chain, q):
    """Oracle: one frame at a time, geometry.compose along the chain with a
    Rodrigues rotation written out here."""
    poses = [identity()]
    values = iter(q)
    for joint in chain.joints:
        value = float(next(values)) if joint.actuated else 0.0
        if joint.kind == "revolute":
            k = skew(joint.axis)
            rot = np.eye(3) + math.sin(value) * k + (1.0 - math.cos(value)) * (k @ k)
            motion = Pose(rot, np.zeros(3))
        elif joint.kind == "prismatic":
            motion = Pose(np.eye(3), joint.axis * value)
        else:
            motion = identity()
        poses.append(compose(poses[-1], compose(joint.origin, motion)))
    return poses


def _mid_limits(chain):
    return np.array([sum(j.limits) / 2.0 for j in chain.joints if j.actuated])


@pytest.mark.parametrize("name", ["panda", "panda_base_ref"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_fk_matches_per_frame_compose(name, data):
    chain, ref = parse_chain_file(builtin_chain_path(name))
    bounds = [st.floats(lo, hi) for lo, hi in (j.limits for j in chain.joints if j.actuated)]
    q = np.array(data.draw(st.lists(st.tuples(*bounds), min_size=1, max_size=12)))

    rotations, translations = forward_kinematics(chain, q)
    assert rotations.shape == (len(q), chain.n_links, 3, 3)
    assert translations.shape == (len(q), chain.n_links, 3)
    points = reference_point_in_base(chain, ref, q)
    in_ee = base_point_in_ee_frame(chain, q, ref.offset)
    assert points.shape == in_ee.shape == (len(q), 3)

    for i, qi in enumerate(q):
        oracle = _per_frame_fk(chain, qi)
        for k, pose in enumerate(oracle):
            assert_allclose(rotations[i, k], pose.rotation, rtol=0, atol=1e-12)
            assert_allclose(translations[i, k], pose.translation, rtol=0, atol=1e-12)
        expected_point = apply(oracle[ref.link_index], ref.offset)
        expected_in_ee = apply(invert(oracle[-1]), ref.offset)
        assert_allclose(points[i], expected_point, rtol=0, atol=1e-12)
        assert_allclose(in_ee[i], expected_in_ee, rtol=0, atol=1e-12)

        # One-row views of the same core.
        for view, pose in zip(forward_kinematics(chain, qi), oracle):
            assert_allclose(view.rotation, pose.rotation, rtol=0, atol=1e-12)
            assert_allclose(view.translation, pose.translation, rtol=0, atol=1e-12)
        end = end_effector_pose(chain, qi)
        assert_allclose(end.rotation, oracle[-1].rotation, rtol=0, atol=1e-12)
        assert_allclose(end.translation, oracle[-1].translation, rtol=0, atol=1e-12)
        assert_allclose(reference_point_in_base(chain, ref, qi), expected_point,
                        rtol=0, atol=1e-12)
        assert_allclose(base_point_in_ee_frame(chain, qi, ref.offset), expected_in_ee,
                        rtol=0, atol=1e-12)


def test_batched_fk_limit_checks_per_reading(panda):
    chain, ref = panda
    q = np.tile(_mid_limits(chain), (4, 1))
    q[1, 2] = 5.0
    q[3, 0] = -5.0
    q[3, 6] = 9.0
    with pytest.warns(JointLimitWarning) as record:
        points = reference_point_in_base(chain, ref, q)
    messages = [str(w.message) for w in record if issubclass(w.category, JointLimitWarning)]
    assert len(messages) == 3
    assert [m.split("'")[1] for m in messages] == ["joint3", "joint1", "joint7"]
    assert points.shape == (4, 3)


def test_batched_fk_dimension_mismatch(panda):
    chain, ref = panda
    with pytest.raises(DimensionMismatch):
        forward_kinematics(chain, np.zeros((5, 6)))
    with pytest.raises(DimensionMismatch):
        reference_point_in_base(chain, ref, np.zeros((5, 8)))


# An origin rotation off SO(3) by 1e-6 makes every product drift past
# ORTHONORMAL_TOL; each frame and link must be re-projected as compose does.
_BUMP = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_DRIFTED = Pose(rotation_about_axis(Z, 0.3) + 1e-6 * _BUMP, (0.1, 0.0, 0.2))
DRIFT = KinematicChain(
    name="drift",
    joints=(
        _revolute("j1", origin=_DRIFTED, axis=(1.0, 0.0, 0.0)),
        _revolute("j2", origin=_DRIFTED),
        _fixed("tool", (0.0, 0.0, 0.1)),
    ),
)
DRIFT_Q = np.array([[0.0, 0.0], [0.4, -1.1], [2.0, 0.7]])

# An origin stretched along x by 8e-10 has R^T R - I = diag(1.6e-9, 0, 0),
# past ORTHONORMAL_TOL.  After a z rotation by theta the largest entry is
# 1.6e-9 max(c^2, s^2, |c s|): only 0.8e-9 at odd multiples of pi/4, so a
# frame-by-frame check would keep the drift of those frames.
DRIFT_ONE = KinematicChain(
    name="drift-one",
    joints=(
        _revolute("j1", origin=Pose(np.diag([1.0 + 8e-10, 1.0, 1.0]), (0.1, 0.0, 0.2))),
        _fixed("tool", (0.0, 0.0, 0.1)),
    ),
)
DRIFT_ONE_Q = np.array([[math.pi / 4], [-math.pi / 4], [0.0], [3 * math.pi / 4]])
# Stretched by 4e-10 instead, the origin is within ORTHONORMAL_TOL of SO(3).
SLIGHT = KinematicChain(
    name="slight",
    joints=(
        _revolute("j1", origin=Pose(np.diag([1.0 + 4e-10, 1.0, 1.0]), (0.1, 0.0, 0.2))),
        _fixed("tool", (0.0, 0.0, 0.1)),
    ),
)


def test_batched_fk_reprojects_drifted_rotations():
    chain, q = DRIFT, DRIFT_Q
    rotations, translations = forward_kinematics(chain, q)
    drift = np.abs(np.swapaxes(rotations, -1, -2) @ rotations - np.eye(3)).max(axis=(-2, -1))
    assert drift.max() < 1e-12
    for i, qi in enumerate(q):
        for k, pose in enumerate(_per_frame_fk(chain, qi)):
            assert_allclose(rotations[i, k], pose.rotation, rtol=0, atol=1e-12)
            assert_allclose(translations[i, k], pose.translation, rtol=0, atol=1e-12)


def _so3_drift(rotations):
    return np.abs(np.swapaxes(rotations, -1, -2) @ rotations - np.eye(3)).max(axis=(-2, -1))


@pytest.mark.parametrize("chain", [DRIFT_ONE, SLIGHT], ids=["drift-one", "slight"])
def test_a_drifted_origin_is_repaired_once_and_a_slight_one_used_as_given(chain):
    # DRIFT_ONE's origin is re-projected once, for every frame alike: FK and
    # both point carries follow the per-frame oracle on the re-projected
    # origin.  SLIGHT's origin is used as it is given, in every frame.
    origin = chain.joints[0].origin
    drifted = _so3_drift(origin.rotation) > ORTHONORMAL_TOL
    if drifted:
        origin = Pose(orthonormalize(origin.rotation), origin.translation)
    oracle_chain = KinematicChain(
        chain.name, (replace(chain.joints[0], origin=origin), *chain.joints[1:])
    )
    q = DRIFT_ONE_Q
    rotations, translations = forward_kinematics(chain, q)
    drift = _so3_drift(rotations)
    if drifted:
        assert drift.max() < 1e-12
    else:
        assert drift[:, 1:].min() > 1e-10
        assert np.array_equal(rotations[q[:, 0] == 0.0, 1], origin.rotation[None])
    offset = np.array([0.05, -0.02, 0.07])
    points = reference_point_in_base(chain, ReferencePoint(1, offset), q)
    in_ee = base_point_in_ee_frame(chain, q, offset)
    for i, qi in enumerate(q):
        oracle = _per_frame_fk(oracle_chain, qi)
        for k, pose in enumerate(oracle):
            assert_allclose(rotations[i, k], pose.rotation, rtol=0, atol=1e-12)
            assert_allclose(translations[i, k], pose.translation, rtol=0, atol=1e-12)
        assert_allclose(points[i], apply(oracle[1], offset), rtol=0, atol=1e-12)
        assert_allclose(in_ee[i], apply(invert(oracle[-1]), offset), rtol=0, atol=1e-12)


# A revolute joint about y, a prismatic joint along a tilted axis under a
# rotated origin, a rotated fixed bracket and a revolute joint about an x
# axis 9e-10 longer than unit: its rotation drifts past ORTHONORMAL_TOL near
# a half turn, by (1 - cos theta)^2 (|axis|^2 - 1).
SLIDE = KinematicChain(
    name="slide",
    joints=(
        _revolute("j1", Pose(rotation_about_axis(Z, 0.4), (0.0, 0.0, 0.3)), (0.0, 1.0, 0.0)),
        Joint(
            "slide", "prismatic", Pose(rotation_about_axis(Z, -0.9), (0.2, 0.0, 0.0)),
            axis=(0.6, 0.0, 0.8),
        ),
        Joint("bracket", "fixed", Pose(rotation_about_axis(Z, 1.1), (0.0, 0.1, 0.05))),
        _revolute("j2", origin=Pose(np.eye(3), (0.0, 0.0, 0.1)), axis=(1.0 + 9e-10, 0.0, 0.0)),
    ),
)
SLIDE_Q = np.array([[0.0, 0.0, 0.0], [0.7, -0.3, 1.2], [-2.1, 0.45, 3.0]])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drifted_chains())
def test_fk_and_the_carries_stay_on_so3_for_slightly_drifted_chains(chain_and_q):
    # Every local rotation is a rotation to rounding once _Links has repaired
    # the chain's constants, so every link's product is too, and the carried
    # points agree with applying the FK poses.
    chain, q = chain_and_q
    rotations, translations = forward_kinematics(chain, q)
    assert _so3_drift(rotations).max() < 1e-12
    assert (np.linalg.det(rotations) > 0).all()
    offset = np.array([0.05, -0.02, 0.07])
    for link in range(chain.n_links):
        points = reference_point_in_base(chain, ReferencePoint(link, offset), q)
        expected = rotations[:, link] @ offset + translations[:, link]
        assert_allclose(points, expected, rtol=0, atol=1e-12)
    r_ee, t_ee = rotations[:, -1], translations[:, -1]
    expected = np.einsum("nji,nj->ni", r_ee, offset - t_ee)
    assert_allclose(base_point_in_ee_frame(chain, q, offset), expected, rtol=0, atol=1e-12)


def _fresh(points):
    return points.dtype == np.float64 and points.flags.writeable and points.flags.owndata


@pytest.mark.parametrize(
    "chain, q", [(DRIFT, DRIFT_Q), (DRIFT_ONE, DRIFT_ONE_Q), (SLIDE, SLIDE_Q)],
    ids=["drift", "drift-one", "slide"],
)  # fmt: skip
def test_carried_points_match_the_fk_poses(chain, q):
    # The point functions carry the point through each joint's transform
    # instead of forming the link poses; they must agree with applying the
    # forward_kinematics poses, on every link (link 0 too) and for readings
    # of shape (J,), (N, J) and (0, J), each in a fresh writable array.
    offset = np.array([0.05, -0.02, 0.07])
    rotations, translations = forward_kinematics(chain, q)
    poses = [[Pose(r, t) for r, t in zip(rs, ts)] for rs, ts in zip(rotations, translations)]
    empty = np.zeros((0, chain.n_actuated))
    for link in range(chain.n_links):
        ref = ReferencePoint(link, offset)
        expected = np.array([apply(frame[link], offset) for frame in poses])
        points = reference_point_in_base(chain, ref, q)
        assert _fresh(points)
        assert_allclose(points, expected, rtol=0, atol=1e-12)
        for qi, point in zip(q, expected):
            one = reference_point_in_base(chain, ref, qi)
            assert one.shape == (3,) and _fresh(one)
            assert_allclose(one, point, rtol=0, atol=1e-12)
        none = reference_point_in_base(chain, ref, empty)
        assert none.shape == (0, 3) and _fresh(none)
    expected = np.array([apply(invert(frame[-1]), offset) for frame in poses])
    in_ee = base_point_in_ee_frame(chain, q, offset)
    assert _fresh(in_ee)
    assert_allclose(in_ee, expected, rtol=0, atol=1e-12)
    for qi, point in zip(q, expected):
        one = base_point_in_ee_frame(chain, qi, offset)
        assert one.shape == (3,) and _fresh(one)
        assert_allclose(one, point, rtol=0, atol=1e-12)
    none = base_point_in_ee_frame(chain, empty, offset)
    assert none.shape == (0, 3) and _fresh(none)


def test_batched_fk_on_zero_readings(panda, panda_base):
    chain, ref = panda
    q = np.zeros((0, chain.n_actuated))
    rotations, translations = forward_kinematics(chain, q)
    assert rotations.shape == (0, chain.n_links, 3, 3)
    assert translations.shape == (0, chain.n_links, 3)
    assert reference_point_in_base(chain, ref, q).shape == (0, 3)
    assert object_points(Mode.EYE_ON_BASE, chain, ref, q).shape == (0, 3)
    chain, ref = panda_base
    assert object_points(Mode.EYE_IN_HAND, chain, ref, q).shape == (0, 3)
