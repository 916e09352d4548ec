"""Shared test utilities: random poses and synthetic PnP scenes."""

from __future__ import annotations

import numpy as np

from refcal.geometry import CameraIntrinsics, Pose, apply, invert, project, rotation_about_axis


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


def reprojection_rms(pose: Pose, pts3, pix, k: CameraIntrinsics) -> float:
    errs = [np.linalg.norm(project(k, apply(pose, p3)) - px) for p3, px in zip(pts3, pix)]
    return float(np.sqrt(np.mean(np.square(errs))))
