import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_pose, reprojection_rms, synth_scene
from refcal import pnp
from refcal.calibration import Mode, object_points
from refcal.errors import (
    CalibrationError,
    DegenerateConfiguration,
    DivergedBehindCamera,
    EmptyInput,
    NumericalFailure,
)
from refcal.geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    Pose,
    apply,
    compose,
    invert,
    project,
    rotation_about_axis,
    rotation_error,
)
from refcal.kinematics import reference_point_in_base
from refcal.pnp import (
    DEGENERATE,
    NEAR_COLLINEAR,
    NEAR_PLANAR,
    WELL_CONDITIONED,
    PoseStack,
    check_degeneracy,
    ragged_points,
    linearize_reprojection,
    refine_pose,
    retract,
    solve_pnp,
    solve_pnp_linear,
)
from refcal.simulation import NoiseModel, ScenarioConfig, corrupt_track, generate_scene

K = CameraIntrinsics.from_horizontal_fov(60.0, 1920, 1080)


# ------------------------------------------------------------- degeneracy ---


def test_degeneracy_collinear():
    pts = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
    report = check_degeneracy(pts)
    assert report.classification == NEAR_COLLINEAR
    assert report.spread_singular_values[1] == pytest.approx(0.0, abs=1e-12)
    assert report.spread_singular_values[2] == pytest.approx(0.0, abs=1e-12)


def test_degeneracy_three_points():
    report = check_degeneracy(np.eye(3))
    assert report.classification == DEGENERATE
    assert report.n_points == 3


def test_degeneracy_cube_corners():
    corners = np.array(
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    )
    report = check_degeneracy(corners)
    assert report.classification == WELL_CONDITIONED
    # Oracle: SVD of the centered corner matrix gives sqrt(2) three times.
    oracle = np.linalg.svd(corners - corners.mean(axis=0), compute_uv=False)
    assert_allclose(report.spread_singular_values, oracle, atol=1e-12)
    assert_allclose(oracle, math.sqrt(2.0), atol=1e-12)


def test_degeneracy_planar_square():
    square = np.array([[0, 0, 0], [0.4, 0, 0], [0.4, 0.4, 0], [0, 0.4, 0]], dtype=float)
    assert check_degeneracy(square).classification == NEAR_PLANAR


def test_degeneracy_thin_slab_is_collinear():
    # 2 cm thick scatter along a 1 m sweep must trip the warning threshold.
    rng = np.random.default_rng(3)
    pts = np.column_stack(
        [rng.uniform(0, 1.0, 200), rng.uniform(0, 0.005, 200), rng.uniform(0, 0.005, 200)]
    )
    assert check_degeneracy(pts).classification == NEAR_COLLINEAR


def test_degeneracy_small_extent_is_collinear(panda):
    # Thirty frames of a real trajectory spanning about 2 cm, 0.2 mm rms
    # across: the spread ratios alone read near_planar, and a solve at 2 px
    # noise lands about 2 m from the truth.
    chain, ref = panda
    cfg = ScenarioConfig(seed=9, duration=60)
    scene = generate_scene(cfg, chain, ref)
    track = corrupt_track(scene.clean_track, NoiseModel(sigma=2.0), seed=9)
    frames = np.arange(1305, 1335)
    pts = reference_point_in_base(chain, ref, scene.joint_log.positions[frames])
    assert check_degeneracy(pts).classification == NEAR_COLLINEAR
    with pytest.raises(DegenerateConfiguration):
        solve_pnp(pts, track.uv[frames], cfg.camera)


def test_degeneracy_empty():
    with pytest.raises(EmptyInput):
        check_degeneracy(np.zeros((0, 3)))


def test_degeneracy_singular_values_sorted():
    rng = np.random.default_rng(5)
    sv = check_degeneracy(rng.normal(size=(50, 3))).spread_singular_values
    assert sv[0] >= sv[1] >= sv[2] >= 0


# ------------------------------------------------------------ linear solve ---


def test_linear_recovers_cube_scene():
    rng = np.random.default_rng(101)
    corners = 0.4 * np.array(
        [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
    )
    t_gt = Pose(np.eye(3), (0.05, -0.1, 2.5))
    pix = project(K, apply(t_gt, corners))
    est = solve_pnp_linear(corners, pix, K)
    assert np.max(np.abs(est.translation - t_gt.translation)) < 1e-6
    assert rotation_error(est, t_gt) < 1e-8


def test_linear_identity_extrinsic():
    rng = np.random.default_rng(103)
    p_cam = np.column_stack(
        [rng.uniform(-0.8, 0.8, 12), rng.uniform(-0.5, 0.5, 12), rng.uniform(1.5, 3.0, 12)]
    )
    pix = project(K, p_cam)
    est = solve_pnp_linear(p_cam, pix, K)
    assert np.max(np.abs(est.translation)) < 1e-6
    assert rotation_error(est, Pose(np.eye(3), np.zeros(3))) < 1e-6


def test_linear_planar_square():
    square = np.array(
        [[0, 0, 0], [0.4, 0, 0], [0.4, 0.4, 0], [0, 0.4, 0]], dtype=float
    ) - (0.2, 0.2, 0.0)
    t_gt = Pose(
        np.array([[1, 0, 0], [0, 0.9689124217106447, 0.24740395925452294],
                  [0, -0.24740395925452294, 0.9689124217106447]]).T,  # Rx(~14deg)
        (0.1, 0.05, 1.8),
    )
    pix = project(K, apply(t_gt, square))
    est = solve_pnp_linear(square, pix, K)
    assert np.max(np.abs(est.translation - t_gt.translation)) < 1e-4


def test_linear_rejects_collinear_and_small():
    pts = np.column_stack([np.linspace(0, 1, 8), np.zeros(8), np.full(8, 2.0)])
    pix = project(K, pts)
    with pytest.raises(DegenerateConfiguration) as err:
        solve_pnp_linear(pts - (0, 0, 2.0), pix, K)
    assert err.value.report.classification == NEAR_COLLINEAR

    rng = np.random.default_rng(107)
    _, pts3, pix3 = synth_scene(rng, 3, K)
    with pytest.raises(DegenerateConfiguration):
        solve_pnp_linear(pts3, pix3, K)


# ------------------------------------------------------------- refinement ---


def test_refine_noiseless_start_at_truth():
    rng = np.random.default_rng(109)
    t_gt, pts, pix = synth_scene(rng, 20, K)
    sol = refine_pose(t_gt, pts, pix, K)
    assert sol.rms_reprojection_error < 1e-9
    assert rotation_error(sol.pose, t_gt) < 1e-12


def test_refine_recovers_from_perturbation():
    # Start 5 degrees / 5 cm off the truth on noiseless data.
    rng = np.random.default_rng(113)
    for _ in range(10):
        t_gt, pts, pix = synth_scene(rng, 20, K)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        offset = rng.standard_normal(3)
        offset *= 0.05 / np.linalg.norm(offset)
        start = Pose(
            rotation_about_axis(axis, math.radians(5)) @ t_gt.rotation,
            t_gt.translation + offset,
        )
        sol = refine_pose(start, pts, pix, K)
        assert np.max(np.abs(sol.pose.translation - t_gt.translation)) < 1e-6
        assert rotation_error(sol.pose, t_gt) < 1e-7


def test_refine_monotone_and_never_worse_than_start():
    rng = np.random.default_rng(127)
    for _ in range(10):
        t_gt, pts, pix = synth_scene(rng, 40, K)
        noisy = pix + rng.normal(0, 3.0, pix.shape)
        start = solve_pnp_linear(pts, noisy, K)
        sol = refine_pose(start, pts, noisy, K)
        assert sol.rms_reprojection_error <= reprojection_rms(start, pts, noisy, K) + 1e-12


def test_refine_diverged_behind_camera():
    rng = np.random.default_rng(131)
    t_gt, pts, pix = synth_scene(rng, 20, K)
    flipped = Pose(t_gt.rotation, t_gt.translation - np.array([0.0, 0.0, 10.0]))
    with pytest.raises(DivergedBehindCamera):
        refine_pose(flipped, pts, pix, K)


def test_refine_rms_matches_per_point_residuals():
    rng = np.random.default_rng(137)
    t_gt, pts, pix = synth_scene(rng, 25, K)
    noisy = pix + rng.normal(0, 2.0, pix.shape)
    sol = solve_pnp(pts, noisy, K)
    assert sol.rms_reprojection_error == pytest.approx(
        math.sqrt(float(np.mean(sol.per_point_residuals**2))), abs=1e-9
    )


@pytest.mark.parametrize("planar", [False, True], ids=["well_conditioned", "near_planar"])
def test_candidate_costs_are_object_space_costs_summed_pair_by_pair(planar):
    # The linear stage forms r^T Omega r and t = P r from Gram moments; the
    # reference sums sum_i |(I - v_i v_i^T)(R p_i + t)|^2 over the pairs at
    # each candidate's pose, whose rotation is a rotation and whose
    # translation is the best one for it.
    rng = np.random.default_rng(191)
    for _ in range(5):
        _, pts, pix = synth_scene(rng, 12, K, planar=planar)
        pix = pix + rng.normal(0.0, 2.0, pix.shape)
        rays = np.column_stack([(pix - (K.cx, K.cy)) / (K.fx, K.fy), np.ones(12)])
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)

        def cost(rot, trans):
            pc = pts @ rot.T + trans
            off = pc - (pc * rays).sum(axis=1, keepdims=True) * rays
            return float((off**2).sum())

        (rotations,), (translations,), (costs,) = pnp._sqp_candidates(
            *pnp._alone(pts, pix, check_degeneracy), K
        )
        assert np.isfinite(costs).any()
        for rot, trans, c in zip(rotations, translations, costs):
            assert_allclose(rot @ rot.T, np.eye(3), rtol=0, atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
            if math.isfinite(c):
                assert cost(rot, trans) == pytest.approx(c, rel=1e-6, abs=1e-15)
                for step in 1e-4 * np.vstack([np.eye(3), -np.eye(3)]):
                    assert cost(rot, trans + step) > cost(rot, trans)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_refine_readmits_points_that_come_back_in_front(sigma, monkeypatch):
    # Six of thirty points sit 0.3-0.5 m from the camera; the start pose is
    # 0.6 m too far forward, so those six begin behind it, held out of the cost.
    rng = np.random.default_rng(181)
    z = np.concatenate([rng.uniform(1.5, 3.5, 24), rng.uniform(0.3, 0.5, 6)])
    p_cam = np.column_stack([z * rng.uniform(-0.35, 0.35, 30), z * rng.uniform(-0.35, 0.35, 30), z])
    t_gt = random_pose(rng)
    pts = apply(invert(t_gt), p_cam)
    pix = project(K, p_cam) + rng.normal(0.0, sigma, (30, 2))
    start = Pose(
        rotation_about_axis(np.array([0.0, 1.0, 0.0]), math.radians(3)) @ t_gt.rotation,
        t_gt.translation + (0.02, -0.01, -0.6),
    )

    def front(pose):
        return apply(pose, pts)[:, 2] > MIN_DEPTH

    def squared_residuals(pose):
        pc = apply(pose, pts)
        uv = np.column_stack([K.fx * pc[:, 0] / pc[:, 2] + K.cx, K.fy * pc[:, 1] / pc[:, 2] + K.cy])
        return ((uv - pix) ** 2).sum(axis=1)

    assert (~front(start)).sum() == 6
    # MAX_ITERS = k stops the same run after its k-th step.  Each step lowers
    # the cost over the points admitted before it: those in front of the
    # previous pose (an admitted point may not go behind again), up to
    # rounding once the noiseless solve has converged.
    poses = [start]
    for k in range(1, 12):
        monkeypatch.setattr(pnp, "MAX_ITERS", k)
        poses.append(refine_pose(start, pts, pix, K).pose)
    monkeypatch.undo()
    assert np.linalg.norm(poses[1].translation - poses[-1].translation) > 1e-3  # the cap binds
    for before, after in zip(poses, poses[1:]):
        admitted = front(before)
        cost_before = squared_residuals(before)[admitted].sum()
        assert squared_residuals(after)[admitted].sum() <= cost_before + 1e-12
    sol = refine_pose(start, pts, pix, K)
    assert np.all(np.isfinite(sol.per_point_residuals))
    # The six re-admitted points shape the optimum: it is the one reached from
    # the truth, where every point is in front from the start.
    from_truth = refine_pose(t_gt, pts, pix, K)
    assert_allclose(sol.pose.translation, from_truth.pose.translation, rtol=0, atol=1e-8)
    assert rotation_error(sol.pose, from_truth.pose) < 1e-8
    tol = 1e-9 if sigma == 0 else 2e-3
    assert np.max(np.abs(sol.pose.translation - t_gt.translation)) < tol


@pytest.mark.parametrize("n", [12, 118])
def test_noiseless_refinement_stops_at_the_cost_floor(monkeypatch, n):
    # A noiseless fit reaches rounding-level cost within a few steps; the
    # absolute floor ends it there instead of damping up to 1e12.
    calls = []

    def counted(*args, _original=pnp.linearize_reprojection):
        calls.append(1)
        return _original(*args)

    monkeypatch.setattr(pnp, "linearize_reprojection", counted)
    rng = np.random.default_rng(223)
    t_gt, pts, pix = synth_scene(rng, n, K)
    sol = solve_pnp(pts, pix, K)
    assert len(calls) <= 8
    assert sol.rms_reprojection_error < 1e-7
    # From a start 5 degrees / 5 cm off, the floor fires after accepted steps.
    calls.clear()
    start = Pose(
        rotation_about_axis(np.array([0.0, 0.0, 1.0]), math.radians(5)) @ t_gt.rotation,
        t_gt.translation + (0.05, 0.0, 0.0),
    )
    sol = refine_pose(start, pts, pix, K)
    assert len(calls) <= 8
    assert np.max(np.abs(sol.pose.translation - t_gt.translation)) < 1e-8
    assert rotation_error(sol.pose, t_gt) < 1e-8


def test_a_rejected_trial_that_ties_the_cost_stops_refinement(monkeypatch):
    # From the truth, three accepted steps reach the optimum; the fourth
    # trial's cost differs from it at rounding level (1e-14 relative) and is
    # rejected.  That tie ends the run instead of ~16 more rejected trials
    # until the damping passes 1e12.
    calls = []

    def counted(*args, _original=pnp.linearize_reprojection):
        calls.append(1)
        return _original(*args)

    monkeypatch.setattr(pnp, "linearize_reprojection", counted)
    rng = np.random.default_rng(16)
    t_gt, pts, pix = synth_scene(rng, 12, K)
    pix = pix + rng.normal(0.0, 2.0, pix.shape)
    sol = refine_pose(t_gt, pts, pix, K)
    assert len(calls) == 5
    # A rejected trial leaves the state as it was: the pose is the one after
    # the third accepted step.
    monkeypatch.setattr(pnp, "MAX_ITERS", 3)
    capped = refine_pose(t_gt, pts, pix, K)
    assert np.array_equal(sol.pose.rotation, capped.pose.rotation)
    assert np.array_equal(sol.pose.translation, capped.pose.translation)


@pytest.mark.parametrize("mode", [Mode.EYE_ON_BASE, Mode.EYE_IN_HAND])
def test_solve_reaches_the_optimum_refined_from_the_truth(panda, panda_base, mode):
    # The linear stage only picks the start: from its unpolished betas,
    # Levenberg-Marquardt lands on the optimum it reaches from the truth.
    chain, ref = panda if mode is Mode.EYE_ON_BASE else panda_base
    for seed in range(7):
        cfg = ScenarioConfig(seed=seed, mode=mode)
        scene = generate_scene(cfg, chain, ref)
        points = object_points(mode, scene.chain, scene.ref, scene.joint_log.positions)
        track = corrupt_track(scene.clean_track, NoiseModel(sigma=2.0), seed=seed)
        visible = np.flatnonzero(track.visible)
        for n in (8, 12, len(visible)):
            rows = visible[np.linspace(0, len(visible) - 1, n).round().astype(int)]
            pts, pix = points[rows], track.uv[rows]
            sol = solve_pnp(pts, pix, cfg.camera)
            from_truth = refine_pose(scene.t_gt, pts, pix, cfg.camera)
            assert_allclose(sol.pose.translation, from_truth.pose.translation, rtol=0, atol=1e-6)
            assert rotation_error(sol.pose, from_truth.pose) < 1e-6


@pytest.mark.parametrize("mode", [Mode.EYE_ON_BASE, Mode.EYE_IN_HAND])
def test_four_frames_solve_to_the_truth_or_raise(panda, panda_base, mode):
    # Sixty scenes, each solved from four evenly spaced visible frames: the
    # fewest pairs a solve takes, where a local start lands on wrong minima
    # (an EPnP control-point start put eye-on-base seeds 5002 and 5051
    # 1.13 m and 5,683 km off, with no error).  Noiseless, every solve is
    # the truth or raises; at sigma = 2 px none is more than 10 cm off.
    chain, ref = panda if mode is Mode.EYE_ON_BASE else panda_base
    clean, noisy = [], []
    for seed in range(5000, 5060):
        cfg = ScenarioConfig(seed=seed, mode=mode)
        scene = generate_scene(cfg, chain, ref)
        points = object_points(mode, scene.chain, scene.ref, scene.joint_log.positions)
        track = scene.clean_track
        visible = np.flatnonzero(track.visible)
        rows = visible[np.floor(np.arange(4) * len(visible) / 4).astype(int)]
        uv = corrupt_track(track, NoiseModel(sigma=2.0), seed).uv[rows]
        clean.append((seed, points[rows], track.uv[rows], scene.t_gt))
        noisy.append((seed, points[rows], uv, scene.t_gt))
    for corpus, tol in ((clean, 1e-6), (noisy, 0.1)):
        seeds, pts, pix, truths = zip(*corpus)
        camera = ScenarioConfig(seed=0).camera
        for seed, sol, t_gt in zip(seeds, solve_pnp(list(pts), list(pix), camera), truths):
            if isinstance(sol, CalibrationError):
                continue
            error = np.linalg.norm(sol.pose.translation - t_gt.translation)
            assert error < tol, (seed, error)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(139)
    h = 1e-6
    for _ in range(20):
        t_gt, pts3, pix = synth_scene(rng, 8, K)
        pose = random_pose(rng, t_scale=0.2)
        pose = Pose(pose.rotation @ t_gt.rotation, t_gt.translation + pose.translation * 0.1)
        resid, jac, z = linearize_reprojection(pose, pts3, pix, K)
        if np.any(z <= 0):
            continue
        fd = np.zeros_like(jac)
        for axis in range(6):
            d = np.zeros(6)
            d[axis] = h
            rp, _, _ = linearize_reprojection(retract(pose, d), pts3, pix, K)
            rm, _, _ = linearize_reprojection(retract(pose, -d), pts3, pix, K)
            fd[:, :, axis] = (rp - rm) / (2 * h)
        scale = np.maximum(np.abs(fd), np.abs(jac)).max()
        assert np.max(np.abs(fd - jac)) / scale < 1e-4


# ---------------------------------------------------------- array boundary ---


def test_array_boundary_rejects_bad_input():
    rng = np.random.default_rng(179)
    t_gt, pts, pix = synth_scene(rng, 12, K)
    nan_pts = pts.copy()
    nan_pts[3, 1] = math.nan
    inf_pix = pix.copy()
    inf_pix[5, 0] = math.inf
    bad = [(nan_pts, pix), (pts, inf_pix), (pts[:11], pix), (pts[:, :2], pix[:, :2])]
    for solve in (
        lambda p3, px: solve_pnp(p3, px, K),
        lambda p3, px: solve_pnp_linear(p3, px, K),
        lambda p3, px: refine_pose(t_gt, p3, px, K),
        lambda p3, px: linearize_reprojection(t_gt, p3, px, K),
    ):
        for p3, px in bad:
            with pytest.raises(ValueError):
                solve(p3, px)
        with pytest.raises(EmptyInput):
            solve(np.zeros((0, 3)), np.zeros((0, 2)))


# ------------------------------------------------------------- full solve ---


def test_solve_pnp_roundtrip_property():
    rng = np.random.default_rng(149)
    for _ in range(25):
        t_gt, pts, pix = synth_scene(rng, 20, K)
        sol = solve_pnp(pts, pix, K)
        assert np.max(np.abs(sol.pose.translation - t_gt.translation)) < 1e-6
        assert rotation_error(sol.pose, t_gt) < 1e-7
        assert sol.condition_report.classification in (WELL_CONDITIONED, NEAR_PLANAR)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(4, 40),
    planar=st.integers(0, 3).map(lambda i: i == 0),  # a quarter of the problems
    sigma=st.sampled_from([0.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_pnp_ignores_the_pair_order(n, planar, sigma, seed):
    # Permuting the pairs changes only the rounding of the solve's sums, so
    # both solves end in the same error class, or on the same minimum of the
    # cost C (the sum of squared pixel residuals).  Refinement stops when a
    # step moves C by less than FN_TOL relative, or at C <= 1e-16 per pair,
    # and near a minimum a Gauss-Newton step takes out nearly all of the
    # excess cost; so each stop lies within e = max(FN_TOL C, 1e-16 n) of it,
    # |J d|^2 <= e for its offset d from the minimum.  The two poses then
    # reproject the points within |J (d1 - d2)| <= 2 sqrt(e) of each other,
    # an rms over the n pairs of 2 max(sqrt(FN_TOL) rms, 1e-8) px.
    rng = np.random.default_rng(seed)
    _, pts, pix = synth_scene(rng, n, K, planar=planar)
    pix = pix + rng.normal(0.0, sigma, pix.shape)
    order = rng.permutation(n)
    outcomes = []
    for p3, p2 in ((pts, pix), (pts[order], pix[order])):
        try:
            outcomes.append(solve_pnp(p3, p2, K))
        except CalibrationError as exc:
            outcomes.append(exc)
    first, permuted = outcomes
    assert type(first) is type(permuted)
    if isinstance(first, CalibrationError):
        return
    moved = project(K, apply(first.pose, pts)) - project(K, apply(permuted.pose, pts))
    rms_moved = math.sqrt(np.mean(np.square(moved)) * 2)
    tol = 2 * max(math.sqrt(pnp.FN_TOL) * first.rms_reprojection_error, 1e-8)
    assert rms_moved <= tol


def test_solve_pnp_three_points_degenerate():
    rng = np.random.default_rng(151)
    _, pts, pix = synth_scene(rng, 3, K)
    with pytest.raises(DegenerateConfiguration):
        solve_pnp(pts, pix, K)


def test_solve_pnp_four_points():
    rng = np.random.default_rng(157)
    # Well-spread non-coplanar quadruple (tetrahedron-like).
    pts = np.array(
        [[-0.3, -0.2, 0.0], [0.3, -0.2, 0.1], [0.0, 0.35, -0.1], [0.05, 0.0, 0.4]]
    )
    t_gt = Pose(np.eye(3), (0.0, 0.0, 2.0))
    pix = project(K, apply(t_gt, pts))
    sol = solve_pnp(pts, pix, K)
    assert np.max(np.abs(sol.pose.translation - t_gt.translation)) < 1e-4


def test_solve_pnp_noise_mean_error_below_1cm():
    # Desk-scale scene, sigma = 10 px, 100 points, 10 seeds.
    errors = []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        t_gt, pts, pix = synth_scene(rng, 100, K)
        noisy = pix + rng.normal(0, 10.0, pix.shape)
        sol = solve_pnp(pts, noisy, K)
        errors.append(np.abs(sol.pose.translation - t_gt.translation))
    mean = np.mean(errors, axis=0)
    assert np.all(mean < 0.01)


def test_solve_pnp_translation_equivariance():
    rng = np.random.default_rng(163)
    t_gt, pts, pix = synth_scene(rng, 20, K)
    sol0 = solve_pnp(pts, pix, K)
    shift = np.array([0.7, -0.3, 0.4])
    axis = np.array([0.3, -0.8, 0.5]) / np.linalg.norm([0.3, -0.8, 0.5])
    for g in (
        Pose(np.eye(3), shift),
        Pose(rotation_about_axis(axis, 2.0), shift),
        Pose(rotation_about_axis(axis, math.pi - 1e-3), -shift),
    ):
        sol1 = solve_pnp(apply(g, pts), pix, K)
        # Moving the object frame by g moves the recovered pose by g^-1.
        expected = compose(sol0.pose, invert(g))
        assert_allclose(sol1.pose.translation, expected.translation, atol=1e-6)
        assert rotation_error(expected, sol1.pose) < 1e-7


def test_a_solve_that_leaves_the_float_range_raises_numerical_failure():
    # Finite inputs whose squares pass the float range: a focal length of
    # 1e200 px, or points 1e160 m out.  The solve fails with a
    # NumericalFailure instead of overflowing with a RuntimeWarning, and so
    # does a refinement from the truth at that focal length; in a stack, each
    # member gets that outcome, the one it raises alone.  At fx = fy = 1e-300
    # px the squares underflow instead: the rays' norms are zero, and the
    # division by them fails the same way.
    t_gt, pts, pix = synth_scene(np.random.default_rng(5), 30, K)
    huge_f = CameraIntrinsics(1e200, K.fy, K.cx, K.cy, K.width, K.height)
    tiny_f = CameraIntrinsics(1e-300, 1e-300, K.cx, K.cy, K.width, K.height)
    for solve in (solve_pnp, solve_pnp_linear):
        for args in ((pts, pix, huge_f), (pts * 1e160, pix, K), (pts, pix, tiny_f)):
            with pytest.raises(NumericalFailure, match="float range"):
                solve(*args)
    with pytest.raises(NumericalFailure, match="float range"):
        refine_pose(t_gt, pts, pix, huge_f)
    for camera in (huge_f, tiny_f):
        outcomes = solve_pnp([pts, pts], [pix, pix + 0.5], camera)
        for outcome, px in zip(outcomes, (pix, pix + 0.5)):
            with pytest.raises(NumericalFailure, match="float range") as alone:
                solve_pnp(pts, px, camera)
            _assert_identical(outcome, alone.value)


def test_solve_pnp_robust_downweights_outliers():
    rng = np.random.default_rng(173)
    t_gt, pts, pix = synth_scene(rng, 60, K)
    bad = pix.copy()
    bad[:6] += np.array([80.0, -60.0])
    plain = solve_pnp(pts, bad, K)
    robust = solve_pnp(pts, bad, K, robust=True)
    with pytest.raises(TypeError):  # robust is keyword-only: no positional flag turns it on
        solve_pnp(pts, bad, K, True)
    err_plain = np.linalg.norm(plain.pose.translation - t_gt.translation)
    err_robust = np.linalg.norm(robust.pose.translation - t_gt.translation)
    assert err_robust < err_plain


# ---------------------------------------------------------- stacked solves ---


def _assert_identical(outcome, alone):
    """One ragged-stack outcome against the same member solved alone: the
    same pose, rms and per-point residuals bit for bit, or the same error."""
    if isinstance(alone, Exception):
        assert type(outcome) is type(alone)
        assert str(outcome) == str(alone)
        return
    assert np.array_equal(outcome.pose.rotation, alone.pose.rotation)
    assert np.array_equal(outcome.pose.translation, alone.pose.translation)
    assert outcome.rms_reprojection_error == alone.rms_reprojection_error
    assert np.array_equal(outcome.per_point_residuals, alone.per_point_residuals)
    assert outcome.condition_report.classification == alone.condition_report.classification


@pytest.mark.parametrize("robust", [False, True], ids=["plain", "robust"])
# "unweighted": every pair counts once; the ids keep the cases' names stable.
@pytest.mark.parametrize(
    "planar", [False, True], ids=["well_conditioned-unweighted", "near_planar-unweighted"]
)
def test_stacked_solve_matches_each_set_alone(planar, robust):
    # One point set seen at sigma = 0, 1, 3 and 8 px (common random numbers,
    # as in the noise sweep), plus a set with three gross outliers.
    rng = np.random.default_rng(197)
    for _ in range(3):
        _, pts, pix = synth_scene(rng, 24, K, planar=planar)
        if planar:
            pts = pts + rng.normal(0.0, 1e-4, pts.shape)
        unit = rng.standard_normal(pix.shape)
        stack = np.stack([pix + sigma * unit for sigma in (0.0, 1.0, 3.0, 8.0)] + [pix + unit])
        stack[4, :3] += 90.0
        solved = solve_pnp([pts] * len(stack), list(stack), K, robust=robust)
        assert len(solved) == len(stack)
        for sol, pix_s in zip(solved, stack):
            _assert_identical(sol, solve_pnp(pts, pix_s, K, robust=robust))
        if not planar:  # the planar points were moved off the plane after projecting
            assert solved[0].rms_reprojection_error < 1e-6


def test_stacked_solve_reports_a_failed_set_alone():
    # Set 1 holds the pixels of eight points, five of them behind the camera:
    # no pose sees all eight where they were seen.  The linear stage's start
    # keeps at least half of them in front, and its refinement is a wild fit
    # (median error ~166 px), so only that set fails, with the error it
    # raises alone.
    pts = np.array(
        [[-0.4, -0.3, 10.0], [0.4, 0.2, 11.0], [0.1, 0.5, 12.0], [-0.2, 0.1, -0.5],
         [0.3, -0.2, -0.6], [0.2, 0.3, -0.7], [-0.3, -0.1, -0.8], [0.1, 0.2, -0.9]]
    )  # fmt: skip
    # The pinhole formula, applied through z < 0 as well.
    behind = pts[:, :2] / pts[:, 2:] * (K.fx, K.fy) + (K.cx, K.cy)
    t_gt = Pose(rotation_about_axis(np.array([0.0, 1.0, 0.0]), 0.2), (0.1, -0.1, 3.0))
    front = project(K, apply(t_gt, pts))
    with pytest.raises(NumericalFailure, match="wild fit: its median reprojection error") as alone:
        solve_pnp(pts, behind, K)
    start = solve_pnp_linear(pts, behind, K)
    assert (apply(start, pts)[:, 2] > MIN_DEPTH).sum() >= 4
    solved = solve_pnp([pts] * 3, [front, behind, front + 0.5], K)
    _assert_identical(solved[1], alone.value)
    _assert_identical(solved[0], solve_pnp(pts, front, K))
    _assert_identical(solved[2], solve_pnp(pts, front + 0.5, K))


def test_stacked_solve_reports_a_set_without_a_linear_solution_alone(monkeypatch):
    # Every candidate of one marked pixel set is left without a rotation
    # (NaN), as when Gram-Schmidt meets a zero column, and every candidate of
    # another puts most points behind the camera (cost inf): neither set has
    # a start, and each fails alone.
    rng = np.random.default_rng(223)
    _, pts, pix = synth_scene(rng, 12, K)
    unsolved, behind = pix + 0.5, pix - 0.5
    original = pnp._sqp_candidates

    def marked(pts, px, *args):
        r, t, costs = original(pts, px, *args)
        for seg, j in zip(np.split(px, pts.starts[1:], axis=1), range(len(costs))):
            if np.array_equal(seg, unsolved.T):
                r[j], t[j] = np.nan, np.nan
            if np.array_equal(seg, unsolved.T) or np.array_equal(seg, behind.T):
                costs[j] = math.inf
        return r, t, costs

    monkeypatch.setattr(pnp, "_sqp_candidates", marked)
    message = "every linear candidate puts most points behind the camera"
    for solve in (solve_pnp, solve_pnp_linear):
        for px in (unsolved, behind):
            with pytest.raises(NumericalFailure, match=message):
                solve(pts, px, K)
    solved = solve_pnp([pts, pts, pts], [pix, unsolved, behind], K)
    assert str(solved[1]) == str(solved[2]) == message
    _assert_identical(solved[0], solve_pnp(pts, pix, K))


def test_a_refined_pose_with_points_behind_the_camera_is_a_diverged_solve():
    # Two gross outliers drag the refined pose until a tracked point sits
    # behind the camera: the solve fails, alone and in a stack, instead of
    # returning a solution with rms = inf.
    rng = np.random.default_rng(20)
    _, pts, pix = synth_scene(rng, 8, K, depth=(0.3, 3.0))
    dragged = pix.copy()
    dragged[:2] += rng.normal(0.0, 800.0, (2, 2))
    with pytest.raises(DivergedBehindCamera, match="leaves 1 of 8 points behind it"):
        solve_pnp(pts, dragged, K)
    solved = solve_pnp([pts, pts], [pix, dragged], K)
    assert isinstance(solved[1], DivergedBehindCamera)
    _assert_identical(solved[0], solve_pnp(pts, pix, K))


def test_cost_counts_a_nan_depth_as_behind():
    # A pose without a rotation (NaN) has NaN depths; with those points held
    # out of the cost, the cost is still inf, not 0.
    sq, admitted = np.zeros((1, 4)), np.zeros(4, dtype=bool)
    pts = ragged_points(np.zeros((3, 4)), [4], [None])
    assert pnp._cost(sq, np.full((1, 4), np.nan), admitted, False, pts)[0, 0] == math.inf


@pytest.mark.parametrize("counts", [[14], [6], [4, 4]])
def test_ragged_points_counts_must_cover_the_columns(counts):
    with pytest.raises(ValueError, match=f"sum to {sum(counts)}, but the stack has 10 columns"):
        ragged_points(np.zeros((3, 10)), counts, [None] * len(counts))


def test_each_member_product_is_its_product_alone():
    # Adjacent equal counts, unequal counts, and subsets of non-adjacent
    # members: each member's Gram matrix and applied matrix are bit for bit
    # those of its stack of one, over a contiguous copy of its columns.
    rng = np.random.default_rng(5)
    counts = [5, 5, 7, 5, 9, 9]
    pts = ragged_points(rng.normal(size=(3, sum(counts))), counts, [None] * len(counts))
    rows = rng.normal(size=(14, sum(counts)))
    depth_rows = rng.normal(size=(len(counts), 18, 4))
    rotations = rng.normal(size=(2, len(counts), 3, 3))
    alone = [
        (ragged_points(pts.xyz[:, s].copy(), [n], [None]), rows[:, s].copy())
        for s, n in zip(pts.segments, counts)
    ]
    gram = pnp._segment_products(rows, pts)
    for idx in ([0, 2, 5], [1, 3], [4]):
        assert np.array_equal(pnp._segment_products(rows, pts, idx), gram[idx])
    depth = pnp._apply_each(depth_rows, rows[:4], pts)
    rotated = pnp._apply_each(rotations, pts.xyz, pts)
    for j, ((one, one_rows), cols) in enumerate(zip(alone, pts.segments)):
        assert np.array_equal(gram[j], pnp._segment_products(one_rows, one)[0])
        one_depth = pnp._apply_each(depth_rows[j : j + 1], one_rows[:4], one)
        assert np.array_equal(depth[:, cols], one_depth)
        one_rotated = pnp._apply_each(rotations[:, j : j + 1], one.xyz, one)
        assert np.array_equal(rotated[..., cols], one_rotated)


@pytest.mark.parametrize(
    "at, sigma",
    [("principal", 0.0), ("first", 0.0), ("first", 2.0)],
    ids=["principal-point", "one-pixel", "one-pixel-noisy"],
)
def test_a_member_whose_pixels_coincide_fails_alone(at, sigma):
    # Eight well-spread points all seen at one pixel.  At the principal point
    # every ray is the optical axis and m_tt has no solution; at the first
    # point's pixel the solve gave a pose ~1.5e7 m away at an rms of 8e-5 px,
    # and with 2 px noise ~1.7 km away at 1.49 px.  The pixels spread under
    # MIN_PIXEL_SPREAD_PX, so each set is degenerate: alone, in the linear
    # stage, and as member 2 of 3, where the other members keep the outcomes
    # of their solves alone.
    _, pts, pix = synth_scene(np.random.default_rng(7), 8, K)
    assert check_degeneracy(pts).classification == WELL_CONDITIONED
    one = (K.cx, K.cy) if at == "principal" else pix[0]
    seen = np.broadcast_to(one, pix.shape) + np.random.default_rng(1).normal(0.0, sigma, pix.shape)
    with pytest.raises(DegenerateConfiguration, match="pixels spread") as alone:
        solve_pnp(pts, seen, K)
    with pytest.raises(DegenerateConfiguration, match="pixels spread"):
        solve_pnp_linear(pts, seen, K)
    outcomes = solve_pnp([pts, pts, pts], [pix, seen, pix + 0.5], K)
    _assert_identical(outcomes[1], alone.value)
    _assert_identical(outcomes[0], solve_pnp(pts, pix, K))
    _assert_identical(outcomes[2], solve_pnp(pts, pix + 0.5, K))


@pytest.mark.parametrize("shape", [(5, 6), (3, 18, 3)], ids=["refine", "sqp"])
def test_solve_each_gives_a_singular_system_a_zero_row(shape):
    # The stacks of the LM steps (L, 6, 6) and of the SQPnP starts
    # (M, 18, 3, 3), each with one system whose matrix has a zero row: that
    # system's solution is zero, and every other one is its solve alone.
    rng = np.random.default_rng(11)
    h = rng.normal(size=(*shape, shape[-1])) + 4.0 * np.eye(shape[-1])
    g = rng.normal(size=shape)
    singular = (1,) * (len(shape) - 1)
    h[singular][0] = 0.0
    x = pnp._solve_each(h, g)
    assert x.shape == g.shape
    for i in np.ndindex(shape[:-1]):
        expected = np.zeros(shape[-1]) if i == singular else np.linalg.solve(h[i], g[i])
        assert np.array_equal(x[i], expected)


def test_stacked_refinement_reports_a_diverged_member_alone():
    rng = np.random.default_rng(199)
    t_gt, pts, pix = synth_scene(rng, 20, K)
    noisy = pix + rng.normal(0.0, 2.0, pix.shape)
    starts = [
        Pose(rotation_about_axis((0.0, 0.0, 1.0), 0.05) @ t_gt.rotation, t_gt.translation),
        Pose(t_gt.rotation, t_gt.translation - np.array([0.0, 0.0, 10.0])),  # behind the camera
        t_gt,
    ]
    stack = PoseStack(
        np.stack([s.rotation for s in starts]), np.stack([s.translation for s in starts])
    )
    report = check_degeneracy(pts)
    ragged = ragged_points(np.concatenate([pts.T] * 3, axis=1), [20] * 3, [report] * 3)
    rows = np.concatenate([noisy.T, noisy.T, pix.T], axis=1)
    refined = refine_pose(stack, ragged, rows, K)
    with pytest.raises(DivergedBehindCamera) as alone:
        refine_pose(starts[1], pts, noisy, K)
    _assert_identical(refined[1], alone.value)
    _assert_identical(refined[0], refine_pose(starts[0], pts, noisy, K))
    _assert_identical(refined[2], refine_pose(starts[2], pts, pix, K))
    # One start pose per member; a PoseStack takes RaggedPoints, and a
    # single problem one (n, 2) pixel set.
    with pytest.raises(ValueError):
        refine_pose(PoseStack(stack.rotation[:2], stack.translation[:2]), ragged, rows, K)
    for call in (refine_pose, linearize_reprojection):
        with pytest.raises(ValueError):
            call(stack, pts, noisy, K)
    for call in (
        lambda px: solve_pnp(pts, px, K),
        lambda px: solve_pnp([pts], [px], K),
        lambda px: solve_pnp_linear(pts, px, K),
        lambda px: refine_pose(t_gt, pts, px, K),
        lambda px: linearize_reprojection(t_gt, pts, px, K),
    ):
        with pytest.raises(ValueError):
            call(np.stack([noisy]))
    empty = PoseStack(np.zeros((0, 3, 3)), np.zeros((0, 3)))
    assert refine_pose(empty, ragged_points(np.zeros((3, 0)), [], []), np.zeros((2, 0)), K) == []
    assert solve_pnp([], [], K) == []


@pytest.mark.parametrize("n_sets", [None, 1, 5], ids=["one_problem", "stack_of_1", "stack_of_5"])
def test_one_degeneracy_check_per_solve(monkeypatch, n_sets):
    # The guard's report is the one the refinement reports: a solve checks
    # and validates its points once; a stack validates each member and
    # checks each points array once, however many members share it.
    calls = []
    for name in ("check_degeneracy", "_validated"):

        def counted(*args, _name=name, _original=getattr(pnp, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(pnp, name, counted)
    rng = np.random.default_rng(211)
    _, pts, pix = synth_scene(rng, 15, K, planar=True)
    pix = pix if n_sets is None else list(pix + rng.normal(0.0, 1.0, (n_sets, *pix.shape)))
    pts = pts + rng.normal(0.0, 1e-4, pts.shape)
    solve_pnp(pts if n_sets is None else [pts] * n_sets, pix, K)
    assert sorted(calls) == ["_validated"] * (n_sets or 1) + ["check_degeneracy"]


@pytest.mark.parametrize("robust", [False, True], ids=["plain", "robust"])
def test_a_ragged_stack_solves_each_member_as_alone(robust):
    # Members with their own points, pixels and pair counts in one stack: a
    # near-planar set, gross outliers, two members given the same points
    # array, a member whose camera sees most points from behind, a collinear
    # set and an empty one.  Each outcome is the one it gets alone, bit for
    # bit.
    rng = np.random.default_rng(229)
    members = []
    for n in (5, 9, 31, 31, 120):
        _, pts, pix = synth_scene(rng, n, K)
        members.append((pts, pix + rng.normal(0.0, 1.5, pix.shape)))
    _, planar, pix = synth_scene(rng, 20, K, planar=True)
    planar = planar + rng.normal(0.0, 1e-4, planar.shape)
    members.append((planar, pix + rng.normal(0.0, 1.0, pix.shape)))
    _, pts, pix = synth_scene(rng, 37, K)
    members.append((pts, pix + rng.normal(0.0, 2.0, pix.shape)))
    outliers = members[2][1].copy()
    outliers[:4] += 120.0
    members.append((members[2][0], outliers))  # the same points array as member 2
    behind = np.array(
        [[-0.4, -0.3, 10.0], [0.4, 0.2, 11.0], [0.1, 0.5, 12.0], [-0.2, 0.1, -0.5],
         [0.3, -0.2, -0.6], [0.2, 0.3, -0.7], [-0.3, -0.1, -0.8], [0.1, 0.2, -0.9]]
    )  # fmt: skip
    members.append((behind, behind[:, :2] / behind[:, 2:] * (K.fx, K.fy) + (K.cx, K.cy)))
    line = np.column_stack([np.linspace(-0.5, 0.5, 12), np.zeros(12), np.full(12, 2.0)])
    members.append((line, line[:, :2] / line[:, 2:] * (K.fx, K.fy) + (K.cx, K.cy)))
    members.append((np.zeros((0, 3)), np.zeros((0, 2))))
    order = rng.permutation(len(members))
    members = [members[i] for i in order]
    pts3, pix = (list(column) for column in zip(*members))
    outcomes = solve_pnp(pts3, pix, K, robust=robust)
    assert len(outcomes) == len(members)
    kinds = set()
    for outcome, (p3, px) in zip(outcomes, members):
        try:
            alone = solve_pnp(p3, px, K, robust=robust)
        except CalibrationError as exc:
            alone = exc
        kinds.add(type(alone).__name__)
        _assert_identical(outcome, alone)
        # The ragged stack of one is the single solve.
        (one,) = solve_pnp([p3], [px], K, robust=robust)
        _assert_identical(one, alone)
    assert kinds == {"PnPSolution", "NumericalFailure", "DegenerateConfiguration", "EmptyInput"}
    planar_sol = outcomes[list(order).index(5)]
    assert planar_sol.condition_report.classification == NEAR_PLANAR
    with pytest.raises(ValueError):
        solve_pnp(pts3, pix[:-1], K)


def test_a_ragged_member_that_leaves_the_float_range_fails_alone():
    # Points 1e160 m out overflow the solve of their member only: the stack
    # is re-solved member by member, and the others keep their outcomes.
    _, pts, pix = synth_scene(np.random.default_rng(5), 30, K)
    outcomes = solve_pnp([pts, pts * 1e160, pts], [pix, pix, pix + 0.5], K)
    assert type(outcomes[1]) is NumericalFailure and "float range" in str(outcomes[1])
    _assert_identical(outcomes[0], solve_pnp(pts, pix, K))
    _assert_identical(outcomes[2], solve_pnp(pts, pix + 0.5, K))
