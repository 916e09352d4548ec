"""End-to-end eye-on-base calibration on a simulated capture.

A fixed camera watches a point riding on the arm's flange.  The simulator
produces exactly the files a real capture would (joint log + 2D track),
and the calibration recovers the camera-to-base transform.

Run: python demos/04_eye_on_base_calibration.py
"""

import tempfile
from pathlib import Path

import numpy as np

from refcal import (
    CalibrationOptions,
    CalibrationRequest,
    Mode,
    NoiseModel,
    ScenarioConfig,
    calibrate,
    corrupt_track,
    evaluate,
    export_scene,
    generate_scene,
)
from refcal.fileio import builtin_chain_path, parse_chain_file

chain, ref = parse_chain_file(builtin_chain_path("panda"))
cfg = ScenarioConfig(seed=11, mode=Mode.EYE_ON_BASE)
scene = generate_scene(cfg, chain, ref)
print(f"scene: {scene.clean_track.n_frames} frames, "
      f"{int(scene.clean_track.visible.sum())} with the point in view")

print("\n== noiseless capture ==")
req = CalibrationRequest(
    mode=Mode.EYE_ON_BASE, chain=chain, ref=ref, intrinsics=cfg.camera,
    track=scene.clean_track, joints=scene.joint_log,
    options=CalibrationOptions(min_pairs=4),
)
result = calibrate(req)
err = evaluate(result.pose, scene.t_gt)
print(f"pairs used {result.n_pairs_used}, dropped {len(result.dropped)}, "
      f"rms {result.solution.rms_reprojection_error:.2e} px")
print(f"error vs ground truth: ({err.e_x_cm:.2e}, {err.e_y_cm:.2e}, {err.e_z_cm:.2e}) cm, "
      f"{err.e_r_rad:.2e} rad")

print("\n== with 2 px tracking noise ==")
noisy = corrupt_track(scene.clean_track, NoiseModel(sigma=2.0), seed=11)
result = calibrate(
    CalibrationRequest(
        mode=Mode.EYE_ON_BASE, chain=chain, ref=ref, intrinsics=cfg.camera,
        track=noisy, joints=scene.joint_log, options=CalibrationOptions(min_pairs=4),
    )
)
err = evaluate(result.pose, scene.t_gt)
print(f"error: ({err.e_x_cm:.3f}, {err.e_y_cm:.3f}, {err.e_z_cm:.3f}) cm, "
      f"{err.e_r_rad:.5f} rad, rms {result.solution.rms_reprojection_error:.2f} px")

print("\n== same thing through files (what the CLI does) ==")
with tempfile.TemporaryDirectory() as tmp:
    paths = export_scene(scene, cfg.camera, Path(tmp) / "capture", track=noisy)
    from refcal.fileio import parse_joint_log_csv, parse_track_csv

    track2 = parse_track_csv(paths["track"])
    joints2 = parse_joint_log_csv(paths["joints"])
    result2 = calibrate(
        CalibrationRequest(
            mode=Mode.EYE_ON_BASE, chain=chain, ref=ref, intrinsics=cfg.camera,
            track=track2, joints=joints2, options=CalibrationOptions(min_pairs=4),
        )
    )
    drift = np.max(np.abs(result2.pose.translation - result.pose.translation))
    print(f"file-based result matches in-process result to {drift:.2e} m")
