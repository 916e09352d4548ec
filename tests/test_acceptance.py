"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see the report (the suite asserts the same conditions it prints).
"""

import math
import time

import numpy as np
import pytest

from helpers import synth_scene
from refcal.calibration import (
    CalibrationOptions,
    CalibrationRequest,
    Mode,
    calibrate,
    solve_axxb,
)
from refcal.errors import DegenerateConfiguration, InsufficientMotion
from refcal.fileio import (
    ResultDocument,
    parse_chain_file,
    parse_joint_log_csv,
    parse_pose_file,
    parse_result_file,
    parse_track_csv,
    write_chain_file,
    write_joint_log_csv,
    write_pose_file,
    write_result,
    write_track_csv,
)
from refcal.geometry import (
    CameraIntrinsics,
    Pose,
    apply,
    compose,
    invert,
    project,
    rotation_about_axis,
    rotation_error,
)
from refcal.pnp import linearize_reprojection, retract, solve_pnp
from refcal.simulation import (
    NoiseModel,
    ScenarioConfig,
    corrupt_track,
    generate_dual_view_scenes,
    generate_scene,
    run_frames_sweep,
    run_noise_sweep,
)

K = CameraIntrinsics.from_horizontal_fov(60.0, 1920, 1080)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _calibrate_scene(scene, mode, track=None):
    req = CalibrationRequest(
        mode=mode,
        chain=scene.chain,
        ref=scene.ref,
        intrinsics=K,
        track=scene.clean_track if track is None else track,
        joints=scene.joint_log,
        options=CalibrationOptions(min_pairs=4),
    )
    return calibrate(req)


def test_criterion_1_noiseless_roundtrip(panda, panda_base):
    chain, arm_ref = panda
    _, base_ref = panda_base
    start = time.perf_counter()
    worst_t, worst_r = 0.0, 0.0
    for seed in range(10):
        scene = generate_scene(
            ScenarioConfig(seed=1000 + seed, mode=Mode.EYE_ON_BASE), chain, arm_ref
        )
        result = _calibrate_scene(scene, Mode.EYE_ON_BASE)
        worst_t = max(worst_t, float(np.max(np.abs(result.pose.translation - scene.t_gt.translation))))
        worst_r = max(worst_r, rotation_error(result.pose, scene.t_gt))
    for seed in range(10):
        scene = generate_scene(
            ScenarioConfig(seed=2000 + seed, mode=Mode.EYE_IN_HAND), chain, base_ref
        )
        result = _calibrate_scene(scene, Mode.EYE_IN_HAND)
        worst_t = max(worst_t, float(np.max(np.abs(result.pose.translation - scene.t_gt.translation))))
        worst_r = max(worst_r, rotation_error(result.pose, scene.t_gt))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (noiseless round-trip, 10 EoB + 10 EiH)",
        worst_t < 1e-5 and worst_r < 1e-6 and elapsed < 10.0,
        f"worst |dt| {worst_t:.2e} m (<1e-5), worst rot {worst_r:.2e} rad (<1e-6), "
        f"runtime {elapsed:.1f} s (<10)",
    )


@pytest.fixture(scope="module")
def noise_sweep(panda):
    chain, ref = panda
    cfg = ScenarioConfig(seed=77, mode=Mode.EYE_ON_BASE)
    return run_noise_sweep(cfg, chain, ref, sigma_values=[2, 4, 6, 8, 10, 12, 14, 16],
                           n_repeats=10)


def test_criterion_2_noise_envelope(noise_sweep):
    per_axis_ok = True
    details = []
    for cell in noise_sweep.cells:
        if cell.param <= 10.0:
            worst_axis = max(cell.mean("e_x_cm"), cell.mean("e_y_cm"), cell.mean("e_z_cm"))
            details.append(f"s={cell.param:g}: {worst_axis:.3f} cm")
            per_axis_ok &= worst_axis < 1.0 and cell.n_fail == 0
    monotone_ok = True
    for a, b in zip(noise_sweep.cells, noise_sweep.cells[1:]):
        slack = 2.0 * math.sqrt(a.stderr_e_trans_cm**2 + b.stderr_e_trans_cm**2)
        if b.mean("e_trans_cm") < a.mean("e_trans_cm") - slack:
            monotone_ok = False
    _report(
        "criterion 2 (noise envelope, sigma<=10 under 1 cm; monotone to 16)",
        per_axis_ok and monotone_ok,
        "; ".join(details) + f"; monotone={monotone_ok}",
    )


def test_criterion_3_frame_count_convergence(panda):
    chain, ref = panda
    cfg = ScenarioConfig(seed=123, mode=Mode.EYE_ON_BASE, noise=NoiseModel(sigma=2.0))
    sweep = run_frames_sweep(cfg, chain, ref, n_values=[4, 10, 50, 100], n_repeats=10)
    by_n = {int(c.param): c for c in sweep.cells}
    at10 = by_n[10]
    small_ok = at10.mean("e_trans_cm") < 0.3 and math.degrees(at10.mean("e_r_rad")) < 3.0
    shrink_ok = (
        by_n[50].mean("e_trans_cm") < by_n[4].mean("e_trans_cm")
        and by_n[100].mean("e_trans_cm") < by_n[4].mean("e_trans_cm")
    )
    # Weak monotonicity: more sync frames never hurt beyond statistical noise.
    weak_ok = by_n[100].mean("e_trans_cm") <= at10.mean("e_trans_cm") + 2 * at10.stderr_e_trans_cm
    _report(
        "criterion 3 (frame-count convergence at n=10, sigma=2)",
        small_ok and shrink_ok and weak_ok,
        f"n=10: {at10.mean('e_trans_cm'):.3f} cm (<0.3), "
        f"{math.degrees(at10.mean('e_r_rad')):.3f} deg (<3); "
        f"n=4 {by_n[4].mean('e_trans_cm'):.3f} cm > n=50 {by_n[50].mean('e_trans_cm'):.3f} cm; "
        f"n=100 {by_n[100].mean('e_trans_cm'):.3f} <= n=10 + 2se",
    )


def test_criterion_4_reference_accuracy_envelope(panda, panda_base):
    chain, arm_ref = panda
    _, base_ref = panda_base
    bounds = {
        Mode.EYE_ON_BASE: (np.array([0.30, 0.45, 0.60]) * 3, 0.01 * 3, arm_ref, 4100),
        Mode.EYE_IN_HAND: (np.array([0.48, 0.52, 0.77]) * 3, 0.07 * 3, base_ref, 4200),
    }
    ok = True
    details = []
    for mode, (t_bound, r_bound, ref, base_seed) in bounds.items():
        errs_t, errs_r = [], []
        for seed in range(10):
            cfg = ScenarioConfig(seed=base_seed + seed, mode=mode)
            scene = generate_scene(cfg, chain, ref)
            noisy = corrupt_track(scene.clean_track, NoiseModel(sigma=2.0), seed=base_seed + seed)
            result = _calibrate_scene(scene, mode, track=noisy)
            errs_t.append(np.abs(result.pose.translation - scene.t_gt.translation) * 100)
            errs_r.append(rotation_error(result.pose, scene.t_gt))
        mean_t = np.mean(errs_t, axis=0)
        mean_r = float(np.mean(errs_r))
        ok &= bool(np.all(mean_t < t_bound) and mean_r < r_bound)
        details.append(
            f"{mode.value}: ({mean_t[0]:.2f},{mean_t[1]:.2f},{mean_t[2]:.2f}) cm "
            f"vs ({t_bound[0]:.2f},{t_bound[1]:.2f},{t_bound[2]:.2f}), "
            f"{mean_r:.4f} vs {r_bound:.2f} rad"
        )
    _report("criterion 4 (simulation accuracy envelope, sigma=2)", ok, "; ".join(details))


def test_criterion_5_minimum_pairs():
    rng = np.random.default_rng(55)
    _, pts3, pix3 = synth_scene(rng, 3, K)
    raised = False
    try:
        solve_pnp(pts3, pix3, K)
    except DegenerateConfiguration:
        raised = True
    pts = np.array([[-0.3, -0.2, 0.0], [0.3, -0.2, 0.1], [0.0, 0.35, -0.1], [0.05, 0.0, 0.4]])
    t_gt = Pose(rotation_about_axis((0.2, 1.0, 0.1) / np.linalg.norm((0.2, 1.0, 0.1)), 0.4),
                (0.1, -0.05, 2.0))
    pix = project(K, apply(t_gt, pts))
    sol = solve_pnp(pts, pix, K)
    err4 = float(np.max(np.abs(sol.pose.translation - t_gt.translation)))
    _report(
        "criterion 5 (n=3 degenerate, n=4 solvable)",
        raised and err4 < 1e-4,
        f"n=3 raised={raised}, n=4 |dt| {err4:.2e} m (<1e-4)",
    )


def test_criterion_6_pnp_unit_oracle():
    rng = np.random.default_rng(66)
    worst_t, worst_r = 0.0, 0.0
    for _ in range(1000):
        t_gt, pts, pix = synth_scene(rng, 20, K)
        sol = solve_pnp(pts, pix, K)
        worst_t = max(worst_t, float(np.max(np.abs(sol.pose.translation - t_gt.translation))))
        worst_r = max(worst_r, rotation_error(sol.pose, t_gt))
    solve_ok = worst_t < 1e-6 and worst_r < 1e-7

    h = 1e-6
    worst_rel = 0.0
    checked = 0
    while checked < 100:
        t_gt, pts3, pix = synth_scene(rng, 10, K)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        pose = Pose(rotation_about_axis(axis, rng.uniform(0, 0.3)) @ t_gt.rotation,
                    t_gt.translation + rng.normal(0, 0.05, 3))
        _, jac, z = linearize_reprojection(pose, pts3, pix, K)
        if np.any(z <= 0):
            continue
        fd = np.zeros_like(jac)
        for a in range(6):
            d = np.zeros(6)
            d[a] = h
            rp, _, _ = linearize_reprojection(retract(pose, d), pts3, pix, K)
            rm, _, _ = linearize_reprojection(retract(pose, -d), pts3, pix, K)
            fd[:, :, a] = (rp - rm) / (2 * h)
        scale = float(np.maximum(np.abs(fd), np.abs(jac)).max())
        worst_rel = max(worst_rel, float(np.max(np.abs(fd - jac)) / scale))
        checked += 1
    jac_ok = worst_rel < 1e-4
    _report(
        "criterion 6 (PnP oracle: 1000 solves; Jacobian vs finite differences)",
        solve_ok and jac_ok,
        f"worst |dt| {worst_t:.2e} m (<1e-6), worst rot {worst_r:.2e} rad (<1e-7), "
        f"worst Jacobian rel err {worst_rel:.2e} (<1e-4)",
    )


def test_criterion_7_axxb_oracle():
    from helpers import random_pose

    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(50):
        x_gt = random_pose(rng)
        bs = [random_pose(rng) for _ in range(3)]
        as_ = [compose(compose(x_gt, b), invert(x_gt)) for b in bs]
        x = solve_axxb(as_, bs)
        worst = max(
            worst,
            float(np.max(np.abs(x.rotation - x_gt.rotation))),
            float(np.max(np.abs(x.translation - x_gt.translation))),
        )
    parallel_raised = False
    a1 = Pose(rotation_about_axis((0, 0, 1.0), 0.5), (0.1, 0.0, 0.0))
    a2 = Pose(rotation_about_axis((0, 0, 1.0), -0.7), (0.0, 0.2, 0.0))
    try:
        solve_axxb([a1, a2], [a1, a2])
    except InsufficientMotion:
        parallel_raised = True
    _report(
        "criterion 7 (AX=XB oracle, 50 trials)",
        worst < 1e-9 and parallel_raised,
        f"worst recovery error {worst:.2e} (<1e-9), parallel axes raised={parallel_raised}",
    )


def test_criterion_8_duality_identity(panda, panda_base):
    chain, arm_ref = panda
    _, base_ref = panda_base
    cfg = ScenarioConfig(seed=99, mode=Mode.EYE_ON_BASE)
    eob_scene, eih_scenes = generate_dual_view_scenes(cfg, chain, arm_ref, base_ref)
    t_cb_est = _calibrate_scene(eob_scene, Mode.EYE_ON_BASE).pose
    from refcal.kinematics import end_effector_pose

    worst_t, worst_r = 0.0, 0.0
    for anchor, eih_scene in eih_scenes:
        t_ce_est = _calibrate_scene(eih_scene, Mode.EYE_IN_HAND).pose
        t_be = end_effector_pose(chain, eob_scene.joint_log.positions[anchor])
        composed = compose(t_cb_est, t_be)
        worst_t = max(worst_t, float(np.max(np.abs(composed.translation - t_ce_est.translation))))
        worst_r = max(worst_r, rotation_error(composed, t_ce_est))
    # Sum of the two pipelines' noiseless bounds (criterion 1).
    _report(
        "criterion 8 (camera-to-EE equals camera-to-base composed with FK)",
        worst_t < 2e-5 and worst_r < 2e-6 and len(eih_scenes) == 5,
        f"worst |dt| {worst_t:.2e} m (<2e-5), worst rot {worst_r:.2e} rad (<2e-6) "
        f"at {len(eih_scenes)} anchors",
    )


def test_criterion_9_format_roundtrips(panda, panda_base, tmp_path):
    chain, arm_ref = panda
    _, base_ref = panda_base
    rng = np.random.default_rng(68)

    fixtures = []

    def roundtrip(writer, parser, stem, *payload):
        f1 = tmp_path / f"{stem}.1"
        f2 = tmp_path / f"{stem}.2"
        writer(*payload, f1)
        parsed = parser(f1)
        writer(*(parsed if isinstance(parsed, tuple) else (parsed,)), f2)
        fixtures.append(f1.read_bytes() == f2.read_bytes())

    # Two chains plus a prismatic one.
    roundtrip(write_chain_file, parse_chain_file, "chain_arm", chain, arm_ref)
    roundtrip(write_chain_file, parse_chain_file, "chain_base", chain, base_ref)
    from refcal.geometry import identity
    from refcal.kinematics import Joint, KinematicChain, ReferencePoint

    rail = KinematicChain(
        "rail", (Joint("s", "prismatic", identity(), axis=(1.0, 0, 0), limits=(-0.5, 0.5)),)
    )
    roundtrip(write_chain_file, parse_chain_file, "chain_rail", rail, ReferencePoint(1, (0, 0, 0)))

    # Scenes provide logs, tracks, poses and results for both modes.
    for mode, ref, seed in (
        (Mode.EYE_ON_BASE, arm_ref, 310),
        (Mode.EYE_IN_HAND, base_ref, 311),
    ):
        scene = generate_scene(ScenarioConfig(seed=seed, mode=mode), chain, ref)
        noisy = corrupt_track(scene.clean_track, NoiseModel(sigma=1.0), seed=seed)
        roundtrip(write_joint_log_csv, parse_joint_log_csv, f"log_{mode.value}", scene.joint_log)
        roundtrip(write_track_csv, parse_track_csv, f"track_{mode.value}", noisy)
        roundtrip(write_pose_file, parse_pose_file, f"gt_{mode.value}", scene.t_gt)
        result = _calibrate_scene(scene, mode, track=noisy)
        doc = ResultDocument.from_calibration(mode, result, {"track": "sha256:x"})
        roundtrip(write_result, parse_result_file, f"result_{mode.value}", doc)

    ok = all(fixtures) and len(fixtures) >= 10
    _report(
        "criterion 9 (parse-serialize-parse bit-exact)",
        ok,
        f"{sum(fixtures)}/{len(fixtures)} files byte-identical after re-serialization",
    )
