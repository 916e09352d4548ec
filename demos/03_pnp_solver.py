"""The PnP core: degeneracy diagnosis, linear (SQPnP) search, refinement.

Run: python demos/03_pnp_solver.py
"""

import numpy as np

from refcal import CameraIntrinsics, check_degeneracy, solve_pnp
from refcal.errors import DegenerateConfiguration
from refcal.geometry import apply, invert, project, rotation_error
from refcal.pnp import solve_pnp_linear

from refcal.geometry import Pose, rotation_about_axis


def random_pose(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return Pose(rotation_about_axis(axis, rng.uniform(0, np.pi)), rng.uniform(-1, 1, 3))


rng = np.random.default_rng(2)
k = CameraIntrinsics.from_horizontal_fov(60.0, 1920, 1080)

# Synthesize a desk-scale scene: 40 points in the frustum, random pose.
n = 40
z = rng.uniform(1.5, 3.0, n)
p_cam = np.column_stack([z * rng.uniform(-0.3, 0.3, n), z * rng.uniform(-0.3, 0.3, n), z])
t_gt = random_pose(rng)
p_obj = apply(invert(t_gt), p_cam)
pixels = project(k, p_cam)

print("== degeneracy report ==")
report = check_degeneracy(p_obj)
sv = report.spread_singular_values
print(f"n={report.n_points}, classification={report.classification}, "
      f"spread ratios ({sv[1] / sv[0]:.2f}, {sv[2] / sv[0]:.2f})")

print("\n== noiseless solve ==")
linear = solve_pnp_linear(p_obj, pixels, k)
print(f"linear:      |dt| = {np.max(np.abs(linear.translation - t_gt.translation)):.2e} m")
sol = solve_pnp(p_obj, pixels, k)
print(f"refined:     |dt| = {np.max(np.abs(sol.pose.translation - t_gt.translation)):.2e} m, "
      f"rot = {rotation_error(sol.pose, t_gt):.2e} rad, rms = {sol.rms_reprojection_error:.2e} px")

print("\n== with 5 px pixel noise ==")
noisy = pixels + rng.normal(0, 5.0, pixels.shape)
sol = solve_pnp(p_obj, noisy, k)
print(f"|dt| = {np.linalg.norm(sol.pose.translation - t_gt.translation) * 100:.3f} cm, "
      f"rms = {sol.rms_reprojection_error:.2f} px")

print("\n== collinear points are refused ==")
line = np.column_stack([np.linspace(0, 1, 12), np.zeros(12), np.zeros(12)])
line_px = project(k, line + (0, 0, 2.0))
try:
    solve_pnp(line, line_px, k)
except DegenerateConfiguration as exc:
    print("DegenerateConfiguration:", exc)
