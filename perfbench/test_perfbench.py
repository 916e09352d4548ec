"""Tests of the benchmark itself: its reference FK agrees with refcal's, and
every output check rejects a pose moved by 1 cm or rotated by 0.01 rad.

Run from the repository root: python3 -m pytest perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import refcal  # noqa: E402
import refcal.cli  # noqa: E402
from refcal.fileio import builtin_chain_path, parse_chain_file  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

# A pose change the checks must see: 1 cm along, or 0.01 rad about, each
# camera axis.
PERTURBATIONS = [dict(shift_m=0.01 * np.eye(3)[i]) for i in range(3)] + [
    dict(angle_rad=0.01, axis=np.eye(3)[i]) for i in range(3)
]


@pytest.mark.parametrize("name", ["panda", "panda_base_ref"])
def test_reference_fk_matches_refcal(name):
    path = builtin_chain_path(name)
    chain = ref.load_chain(path)
    rc_chain, rc_ref = parse_chain_file(path)
    rng = np.random.default_rng(7)
    q = np.array([[rng.uniform(lo, hi) for lo, hi in chain.limits] for _ in range(50)])
    links = ref.link_transforms(chain, q)
    points = ref.reference_points(chain, q)
    in_ee = ref.base_point_in_ee(chain, q, chain.ref_offset)
    for i, qi in enumerate(q):
        expected = np.array([p.matrix() for p in refcal.forward_kinematics(rc_chain, qi)])
        np.testing.assert_allclose(links[i], expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            points[i], refcal.reference_point_in_base(rc_chain, rc_ref, qi), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            in_ee[i], refcal.base_point_in_ee_frame(rc_chain, qi, rc_ref.offset),
            rtol=0, atol=1e-12)


def _solve(cap, frames):
    """refcal's estimate on the given capture frames, as the benchmark sees it."""
    rc_chain, rc_ref = parse_chain_file(builtin_chain_path("panda"))
    result = refcal.calibrate(refcal.CalibrationRequest(
        mode=refcal.Mode.EYE_ON_BASE, chain=rc_chain, ref=rc_ref,
        intrinsics=refcal.CameraIntrinsics(**ref.CAMERA.as_json()),
        track=refcal.Track2D(frames, cap.uv[frames], cap.visible[frames], cap.sync[frames]),
        joints=refcal.JointLog(np.arange(len(cap.joints)), cap.timestamps, cap.joints),
        options=refcal.CalibrationOptions(min_pairs=4),
    ))
    return result.pose.matrix(), result.solution.rms_reprojection_error


@pytest.mark.parametrize("n_frames", [6, 12, None])
def test_pose_checks_reject_perturbed_pose(n_frames):
    chain = ref.load_chain(builtin_chain_path("panda"))
    for seed in (workloads.CAPTURE_SEEDS[0], workloads.FEW_FRAME_SEEDS[0]):
        cap = ref.make_capture(chain, seed, workloads.CAPTURE_SIGMA_PX)
        usable = cap.usable
        frames = usable if n_frames is None else usable[(np.arange(n_frames) * len(usable)) // n_frames]
        est, rms = _solve(cap, frames)
        pts, pix = cap.points[frames], cap.uv[frames]
        checks.check_least_squares(ref.CAMERA, est, cap.t_gt, pts, pix)
        checks.check_reported_rms(ref.CAMERA, est, pts, pix, rms)
        for change in PERTURBATIONS:
            moved = ref.perturbed(est, **change)
            with pytest.raises(checks.CheckFailed):
                checks.check_least_squares(ref.CAMERA, moved, cap.t_gt, pts, pix)
            with pytest.raises(checks.CheckFailed):
                checks.check_reported_rms(ref.CAMERA, moved, pts, pix, rms)


def test_drop_check_rejects_wrong_drops():
    chain = ref.load_chain(builtin_chain_path("panda"))
    cap = ref.make_capture(chain, 1, 2.0)
    expected = list(cap.dropped)
    checks.check_drops(expected, cap.dropped)
    with pytest.raises(checks.CheckFailed):
        checks.check_drops(expected[1:], cap.dropped)
    frame, reason = expected[0]
    other = ref.NOT_SYNCED if reason == ref.NOT_VISIBLE else ref.NOT_VISIBLE
    with pytest.raises(checks.CheckFailed):
        checks.check_drops([(frame, other)] + expected[1:], cap.dropped)


def _sweep_rows(zero_trans_cm=2e-14, zero_rot_rad=1e-8, n_fail=0):
    sigmas = workloads.SWEEP_SIGMAS
    rows = [{"param": float(s), "mean_e_trans_cm": 0.05 * s, "mean_e_r_rad": 7e-4 * s,
             "n_fail": float(n_fail)} for s in sigmas]
    rows[0].update(mean_e_trans_cm=zero_trans_cm, mean_e_r_rad=zero_rot_rad)
    return {"n_repeats": str(workloads.SWEEP_REPEATS)}, rows


def test_sweep_check_accepts_exact_noiseless_cell():
    checks.check_noise_sweep(*_sweep_rows(), workloads.SWEEP_SIGMAS, workloads.SWEEP_REPEATS)


@pytest.mark.parametrize("change", [
    dict(zero_trans_cm=1.0), dict(zero_rot_rad=0.01), dict(n_fail=1),
])
def test_sweep_check_rejects(change):
    with pytest.raises(checks.CheckFailed):
        checks.check_noise_sweep(*_sweep_rows(**change), workloads.SWEEP_SIGMAS,
                                 workloads.SWEEP_REPEATS)


def test_sweep_check_rejects_error_not_rising():
    meta, rows = _sweep_rows()
    rows[3]["mean_e_trans_cm"] = rows[2]["mean_e_trans_cm"]
    with pytest.raises(checks.CheckFailed):
        checks.check_noise_sweep(meta, rows, workloads.SWEEP_SIGMAS, workloads.SWEEP_REPEATS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_operation_passes_its_checks(name, tmp_path):
    op = workloads.WORKLOADS[name](HERE.parent, tmp_path)[0]
    solved, e_trans_cm, e_rot_rad = op.check(op.run())
    assert solved >= 1 and e_trans_cm > 0 and e_rot_rad > 0
