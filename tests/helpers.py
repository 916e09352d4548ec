"""Shared test utilities: random poses, synthetic PnP scenes, slightly
drifted kinematic chains and JSON leaf replacement for fuzzing the file
parsers."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from refcal.geometry import CameraIntrinsics, Pose, apply, invert, project, rotation_about_axis
from refcal.kinematics import FIXED, JOINT_KINDS, PRISMATIC, Joint, KinematicChain


def random_rotation(rng: np.random.Generator, max_angle: float = np.pi) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return rotation_about_axis(axis, rng.uniform(0.0, max_angle))


def random_pose(rng: np.random.Generator, t_scale: float = 1.0) -> Pose:
    return Pose(random_rotation(rng), rng.uniform(-t_scale, t_scale, 3))


def synth_scene(
    rng: np.random.Generator,
    n: int,
    k: CameraIntrinsics,
    depth=(1.5, 3.5),
    spread: float = 0.35,
    planar: bool = False,
):
    """Random ground-truth pose, (n, 3) object points and their (n, 2) pixels,
    with all points in view.

    Points are drawn inside the camera frustum, then mapped into the object
    frame through the inverse ground-truth pose, so projecting them with
    the ground truth reproduces the pixels exactly.
    """
    z = rng.uniform(depth[0], depth[1], n)
    if planar:
        z[:] = z[0]
    x = z * spread * rng.uniform(-1.0, 1.0, n)
    y = z * spread * rng.uniform(-1.0, 1.0, n)
    p_cam = np.column_stack([x, y, z])
    t_gt = random_pose(rng)
    p_obj = apply(invert(t_gt), p_cam)
    pix = project(k, p_cam)
    return t_gt, p_obj, pix


@st.composite
def drifted_chains(draw):
    """A serial chain of 1 to 7 joints of each kind in a drawn order, plus
    1 to 5 readings (N, J) of it.  Its constants are as slightly off as a
    chain may be: each axis is a random unit axis stretched by up to 9e-10
    either way (Joint admits 1e-9), and some origin rotations are stretched
    along a random direction by 1e-8 to 1e-6, which puts each of them past
    ORTHONORMAL_TOL (R^T R - I = 2 eps u u^T to first order, and some
    u_i^2 >= 1/3)."""
    counts = [draw(st.integers(1, 7)) for _ in JOINT_KINDS]
    kinds = draw(st.permutations([k for k, n in zip(JOINT_KINDS, counts) for _ in range(n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joints = []
    for i, kind in enumerate(kinds):
        rotation = random_rotation(rng)
        if draw(st.booleans()):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            rotation = rotation @ (np.eye(3) + draw(st.floats(1e-8, 1e-6)) * np.outer(u, u))
        axis = rng.standard_normal(3)
        axis *= (1.0 + draw(st.floats(-9e-10, 9e-10))) / np.linalg.norm(axis)
        origin = Pose(rotation, rng.uniform(-0.2, 0.2, 3))
        joints.append(Joint(f"j{i}", kind, origin, (0.0, 0.0, 1.0) if kind == FIXED else axis))
    chain = KinematicChain("drifted", tuple(joints))
    n = draw(st.integers(1, 5))
    q = np.column_stack(
        [rng.uniform(-0.3, 0.3, n) if k == PRISMATIC else rng.uniform(-np.pi, np.pi, n)
         for k in kinds if k != FIXED]
    )  # fmt: skip
    return chain, q


def reprojection_rms(pose: Pose, pts3, pix, k: CameraIntrinsics) -> float:
    errs = [np.linalg.norm(project(k, apply(pose, p3)) - px) for p3, px in zip(pts3, pix)]
    return float(np.sqrt(np.mean(np.square(errs))))


# Leaves of a valid JSON document are replaced by these in the JSON fuzz tests.
JSON_LEAVES = st.sampled_from(
    [1e200, -1e200, 5e-324, 10**400, -(10**400), True, False, None, "", "x", "1", "nan", "inf",
     [], [1.0, 2.0], [[0, 0, 0]], {}, {"w": 1}]
)  # fmt: skip


def leaf_paths(doc, path=()) -> list[tuple]:
    """The key path of every scalar in a JSON document."""
    if isinstance(doc, (dict, list)):
        keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
        return [leaf for k in keys for leaf in leaf_paths(doc[k], (*path, k))]
    return [path]


def replaced(doc, path, value):
    """A copy of doc with the value at key path replaced; doc is unchanged."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy
