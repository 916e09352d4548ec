"""Eye-in-hand calibration, its duality with eye-on-base, and AX=XB.

Mounting the camera on the arm turns the problem inside out: the tracked
point sits on the robot base and the chain is reversed algebraically.
The two settings are linked by composition with forward kinematics, and a
classical AX=XB solve is included as the marker-based baseline.

Run: python demos/05_eye_in_hand_and_duality.py
"""

import numpy as np

from refcal import (
    CalibrationOptions,
    CalibrationRequest,
    Mode,
    ScenarioConfig,
    calibrate,
    evaluate,
    generate_scene,
    solve_axxb,
)
from refcal.fileio import builtin_chain_path, parse_chain_file
from refcal.geometry import compose, invert, rotation_error
from refcal.kinematics import end_effector_pose
from refcal.simulation import generate_dual_view_scenes

chain, flange_ref = parse_chain_file(builtin_chain_path("panda"))
_, base_ref = parse_chain_file(builtin_chain_path("panda_base_ref"))

print("== eye-in-hand calibration ==")
cfg = ScenarioConfig(seed=21, mode=Mode.EYE_IN_HAND)
scene = generate_scene(cfg, chain, base_ref)
result = calibrate(
    CalibrationRequest(
        mode=Mode.EYE_IN_HAND, chain=chain, ref=base_ref, intrinsics=cfg.camera,
        track=scene.clean_track, joints=scene.joint_log,
        options=CalibrationOptions(min_pairs=4),
    )
)
err = evaluate(result.pose, scene.t_gt)
print(f"pairs used {result.n_pairs_used}; camera-to-EE error "
      f"{err.e_trans_cm:.2e} cm, {err.e_r_rad:.2e} rad")

print("\n== duality: camera-to-EE = camera-to-base . FK ==")
cfg = ScenarioConfig(seed=22, mode=Mode.EYE_ON_BASE)
eob_scene, eih_scenes = generate_dual_view_scenes(
    cfg, chain, flange_ref, base_ref, anchor_fractions=(0.2, 0.8)
)
opts = CalibrationOptions(min_pairs=4)
t_cb = calibrate(
    CalibrationRequest(Mode.EYE_ON_BASE, chain, flange_ref, cfg.camera,
                       eob_scene.clean_track, eob_scene.joint_log, opts)
).pose
for anchor, eih_scene in eih_scenes:
    t_ce = calibrate(
        CalibrationRequest(Mode.EYE_IN_HAND, chain, base_ref, cfg.camera,
                           eih_scene.clean_track, eih_scene.joint_log, opts)
    ).pose
    t_be = end_effector_pose(chain, eob_scene.joint_log.positions[anchor])
    composed = compose(t_cb, t_be)
    gap = np.max(np.abs(composed.translation - t_ce.translation))
    print(f"anchor frame {anchor:3d}: |compose(T_cb, T_be) - T_ce| = {gap:.2e} m")

print("\n== classical AX=XB baseline (simulated marker poses) ==")
rng = np.random.default_rng(5)


def rand_pose():
    from refcal.geometry import Pose, rotation_about_axis

    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return Pose(rotation_about_axis(axis, rng.uniform(0.3, 2.0)), rng.uniform(-0.5, 0.5, 3))


x_gt = rand_pose()
b_motions = [rand_pose() for _ in range(6)]
a_motions = [compose(compose(x_gt, b), invert(x_gt)) for b in b_motions]
x = solve_axxb(a_motions, b_motions)
print(f"recovered X: rotation gap {rotation_error(x, x_gt):.2e} rad, "
      f"translation gap {np.max(np.abs(x.translation - x_gt.translation)):.2e} m")
