"""Pose algebra and pinhole projection: the building blocks.

Run: python demos/01_poses_and_projection.py
"""

import math

import numpy as np

from refcal import CameraIntrinsics, Pose, apply, compose, invert, project, unproject
from refcal.geometry import rotation_about_axis, rotation_error, translation_error

Z = (0.0, 0.0, 1.0)

print("== rigid transforms ==")
a = Pose(rotation_about_axis(Z, math.pi / 2), (1.0, 0.0, 0.0))
b = Pose(rotation_about_axis(Z, math.pi / 2), (0.0, 0.0, 0.0))
ab = compose(a, b)
print("compose(Rz90@(1,0,0), Rz90) -> translation", ab.translation)
print("a . a^-1 translation:", compose(a, invert(a)).translation)

p = np.array([0.2, 0.1, 0.0])
print("apply(a, p) =", apply(a, p))

print("\n== pinhole camera (1920x1080, 60 deg horizontal FOV) ==")
k = CameraIntrinsics.from_horizontal_fov(60.0, 1920, 1080)
print(f"fx = fy = {k.fx:.2f} px, principal point = ({k.cx}, {k.cy})")
point = np.array([0.5, 0.0, 2.0])
uv = project(k, point)
print(f"project({point}) = {uv}")
print("unproject back:", unproject(k, uv, depth=2.0))

print("\n== error metrics ==")
gt = Pose(np.eye(3), (0.5, -0.2, 1.0))
est = Pose(rotation_about_axis(Z, 0.01), gt.translation + (0.003, 0.0045, 0.006))
print("per-axis translation error (m):", translation_error(est, gt))
print(f"geodesic rotation error: {rotation_error(est, gt):.4f} rad")
