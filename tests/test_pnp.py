import math
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_pose, reprojection_rms, synth_scene
from refcal import pnp
from refcal.errors import (
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
    _barycentric,
    _control_points,
    _kernel_basis,
    _linear_candidates,
    _refine_betas,
    check_degeneracy,
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


def test_refine_betas_keeps_the_betas_of_a_singular_system():
    # All-zero kernel differences give a zero Jacobian: no step can be taken.
    rho = np.ones(6)
    betas = np.array([[0.5, 0.0, 0.0], [0.5, -0.2, 0.0], [0.5, -0.2, 0.1]])
    for n_cases in (1, 2, 3):
        stack = betas[:n_cases]
        assert np.array_equal(_refine_betas(np.zeros((6, 3, 3)), rho, stack), stack)
    # Only the first kernel vector has differences: case 1 is regular and
    # converges, cases 2 and 3 are singular in the same stack.
    gram = np.zeros((6, 3, 3))
    gram[:, 0, 0] = np.linspace(0.5, 1.5, 6)
    refined = _refine_betas(gram, rho, betas)
    assert np.array_equal(refined[1:], betas[1:])
    b11 = (gram[:, 0, 0] @ rho) / (gram[:, 0, 0] @ gram[:, 0, 0])
    assert_allclose(refined[0], [math.sqrt(b11), 0.0, 0.0], rtol=1e-12, atol=0)


def _per_case_candidates(pts3, pix, w, planar):
    """The kernel cases one at a time, each with its own least-squares beta
    initialisation, Gauss-Newton loop and Kabsch alignment."""
    ctrl = _control_points(pts3, w, planar)
    alphas = _barycentric(pts3, ctrl)
    kernel = _kernel_basis(alphas, pix, w, K, n_vecs=3)
    i, j = np.array(list(combinations(range(len(ctrl)), 2))).T
    rho = ((ctrl[i] - ctrl[j]) ** 2).sum(axis=1)
    dv = kernel[:, i] - kernel[:, j]
    dot = [[(dv[a] * dv[b]).sum(axis=1) for b in range(3)] for a in range(3)]
    cols = np.column_stack(
        [dot[0][0], 2 * dot[0][1], dot[1][1], 2 * dot[0][2], 2 * dot[1][2], dot[2][2]]
    )
    poses = []
    for case in (1, 2) if planar else (1, 2, 3):
        if case == 1:
            betas = np.array([np.sqrt(rho * dot[0][0]).sum() / dot[0][0].sum()])
        else:
            s = np.linalg.lstsq(cols[:, : 3 * (case - 1)], rho, rcond=None)[0]
            betas = [math.sqrt(abs(s[0])), math.copysign(math.sqrt(abs(s[2])), s[1])]
            if case == 3:
                betas.append(math.copysign(math.sqrt(abs(s[5])), s[3]))
            betas = np.array(betas)
        for _ in range(8):
            dcc = np.tensordot(betas, dv[:case], axes=1)
            jac = 2.0 * np.einsum("kpd,pd->pk", dv[:case], dcc)
            step = np.linalg.solve(jac.T @ jac, -jac.T @ ((dcc**2).sum(axis=1) - rho))
            betas = betas + step
            if np.max(np.abs(step)) < 1e-12:
                break
        xc = alphas @ np.tensordot(betas, kernel[:case], axes=1)
        xc = -xc if w @ xc[:, 2] < 0 else xc
        c_src, c_dst = np.average(pts3, axis=0, weights=w), np.average(xc, axis=0, weights=w)
        u, _, vt = np.linalg.svd(((xc - c_dst) * w[:, None]).T @ (pts3 - c_src))
        r = u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt
        poses.append((r, c_dst - r @ c_src))
    return poses


@pytest.mark.parametrize("planar", [False, True], ids=["well_conditioned", "near_planar"])
def test_stacked_candidates_match_a_per_case_loop(planar):
    rng = np.random.default_rng(191)
    for _ in range(10):
        _, pts, pix = synth_scene(rng, 12, K, planar=planar)
        if planar:
            pts = pts + rng.normal(0.0, 1e-4, pts.shape)
        pix = pix + rng.normal(0.0, 2.0, pix.shape)
        w = rng.uniform(0.5, 1.0, 12)
        assert check_degeneracy(pts).classification == (NEAR_PLANAR if planar else WELL_CONDITIONED)
        rotations, translations = _linear_candidates(pts, pix, w, K, planar)
        expected = _per_case_candidates(pts, pix, w, planar)
        assert len(rotations) == len(expected) == (2 if planar else 3)
        for r, t, (r_ref, t_ref) in zip(rotations, translations, expected):
            assert_allclose(r, r_ref, rtol=0, atol=1e-9)
            assert_allclose(t, t_ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_refine_readmits_points_that_come_back_in_front(sigma, monkeypatch):
    # Six of thirty points sit 0.3-0.5 m from the camera; the start pose is
    # 0.6 m too far forward, so those six begin behind it with zero weight.
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
    negative = np.ones(12)
    negative[7] = -0.5
    bad = [
        (nan_pts, pix, None),
        (pts, inf_pix, None),
        (pts, pix, negative),
        (pts[:11], pix, None),
        (pts, pix, np.ones(11)),
        (pts[:, :2], pix[:, :2], None),
    ]
    for solve in (
        lambda p3, px, w: solve_pnp(p3, px, K, w),
        lambda p3, px, w: refine_pose(t_gt, p3, px, K, w),
    ):
        for p3, px, w in bad:
            with pytest.raises(ValueError):
                solve(p3, px, w)
        with pytest.raises(EmptyInput):
            solve(np.zeros((0, 3)), np.zeros((0, 2)), None)


# ------------------------------------------------------------- full solve ---


def test_solve_pnp_roundtrip_property():
    rng = np.random.default_rng(149)
    for _ in range(25):
        t_gt, pts, pix = synth_scene(rng, 20, K)
        sol = solve_pnp(pts, pix, K)
        assert np.max(np.abs(sol.pose.translation - t_gt.translation)) < 1e-6
        assert rotation_error(sol.pose, t_gt) < 1e-7
        assert sol.condition_report.classification in (WELL_CONDITIONED, NEAR_PLANAR)


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


def test_solve_pnp_zero_weight_points_ignored():
    rng = np.random.default_rng(167)
    t_gt, pts, pix = synth_scene(rng, 30, K)
    # Corrupt ten points wildly but give them zero weight.
    sabotaged = pix.copy()
    sabotaged[:10] += 500.0
    w = np.ones(30)
    w[:10] = 0.0
    sol = solve_pnp(pts, sabotaged, K, w)
    assert np.max(np.abs(sol.pose.translation - t_gt.translation)) < 1e-6
    with pytest.raises(NumericalFailure, match="weights are zero"):
        solve_pnp(pts, pix, K, np.zeros(30))

    # A zero weight removes its pair: three points mirrored behind the camera
    # leave the fit, the in-front test and the rms alone (they raised
    # DivergedBehindCamera when the in-front test counted them).
    p_cam = apply(t_gt, pts[:3])
    p_cam[:, 2] *= -1.0
    pts[:3] = apply(invert(t_gt), p_cam)
    w[3:10] = 1.0
    sol = solve_pnp(pts, pix, K, w)
    kept = solve_pnp(pts[3:], pix[3:], K)
    assert np.array_equal(sol.pose.rotation, kept.pose.rotation)
    assert np.array_equal(sol.pose.translation, kept.pose.translation)
    assert np.max(np.abs(sol.pose.translation - t_gt.translation)) < 1e-9
    assert sol.per_point_residuals.shape == (27,)
    assert sol.condition_report.n_points == 27
    assert refine_pose(t_gt, pts, pix, K, w).per_point_residuals.shape == (27,)


def test_a_solve_that_leaves_the_float_range_raises_numerical_failure():
    # Finite inputs whose squares pass the float range: a focal length of
    # 1e200 px, or points 1e160 m out.  Alone or stacked, the solve fails
    # with a NumericalFailure instead of overflowing with a RuntimeWarning.
    _, pts, pix = synth_scene(np.random.default_rng(5), 30, K)
    huge_f = CameraIntrinsics(1e200, K.fy, K.cx, K.cy, K.width, K.height)
    for solve in (solve_pnp, solve_pnp_linear):
        for args in ((pts, pix, huge_f), (pts * 1e160, pix, K)):
            with pytest.raises(NumericalFailure, match="float range"):
                solve(*args)
    with pytest.raises(NumericalFailure, match="float range"):
        solve_pnp(pts, np.stack([pix, pix]), huge_f)


def test_solve_pnp_robust_downweights_outliers():
    rng = np.random.default_rng(173)
    t_gt, pts, pix = synth_scene(rng, 60, K)
    bad = pix.copy()
    bad[:6] += np.array([80.0, -60.0])
    plain = solve_pnp(pts, bad, K)
    robust = solve_pnp(pts, bad, K, robust=True)
    with pytest.raises(TypeError):  # robust is keyword-only: no positional flag turns it on
        solve_pnp(pts, bad, K, None, True)
    err_plain = np.linalg.norm(plain.pose.translation - t_gt.translation)
    err_robust = np.linalg.norm(robust.pose.translation - t_gt.translation)
    assert err_robust < err_plain


# ---------------------------------------------------------- stacked solves ---


def _assert_same_solution(sol, alone):
    assert_allclose(sol.pose.rotation, alone.pose.rotation, rtol=0, atol=1e-9)
    assert_allclose(sol.pose.translation, alone.pose.translation, rtol=0, atol=1e-9)
    assert sol.rms_reprojection_error == pytest.approx(
        alone.rms_reprojection_error, rel=1e-9, abs=1e-12
    )
    assert sol.condition_report.classification == alone.condition_report.classification


@pytest.mark.parametrize("robust", [False, True], ids=["plain", "robust"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("planar", [False, True], ids=["well_conditioned", "near_planar"])
def test_stacked_solve_matches_each_set_alone(planar, weighted, robust):
    # One point set seen at sigma = 0, 1, 3 and 8 px (common random numbers,
    # as in the noise sweep), plus a set with three gross outliers.
    rng = np.random.default_rng(197)
    for _ in range(3):
        _, pts, pix = synth_scene(rng, 24, K, planar=planar)
        if planar:
            pts = pts + rng.normal(0.0, 1e-4, pts.shape)
        w = rng.uniform(0.3, 1.0, 24) if weighted else None
        unit = rng.standard_normal(pix.shape)
        stack = np.stack([pix + sigma * unit for sigma in (0.0, 1.0, 3.0, 8.0)] + [pix + unit])
        stack[4, :3] += 90.0
        solved = solve_pnp(pts, stack, K, w, robust=robust)
        assert len(solved) == len(stack)
        for sol, pix_s in zip(solved, stack):
            _assert_same_solution(sol, solve_pnp(pts, pix_s, K, w, robust=robust))
        if not planar:  # the planar points were moved off the plane after projecting
            assert solved[0].rms_reprojection_error < 1e-6


def test_stacked_solve_reports_a_failed_set_alone():
    # Set 1 is seen by a camera with five of its eight points behind it: no
    # control-point candidate keeps most points in front, so only that set
    # fails, with the error it raises alone.
    pts = np.array(
        [[-0.4, -0.3, 10.0], [0.4, 0.2, 11.0], [0.1, 0.5, 12.0], [-0.2, 0.1, -0.5],
         [0.3, -0.2, -0.6], [0.2, 0.3, -0.7], [-0.3, -0.1, -0.8], [0.1, 0.2, -0.9]]
    )  # fmt: skip
    # The pinhole formula, applied through z < 0 as well.
    behind = pts[:, :2] / pts[:, 2:] * (K.fx, K.fy) + (K.cx, K.cy)
    t_gt = Pose(rotation_about_axis(np.array([0.0, 1.0, 0.0]), 0.2), (0.1, -0.1, 3.0))
    front = project(K, apply(t_gt, pts))
    with pytest.raises(NumericalFailure, match="behind the camera") as alone:
        solve_pnp(pts, behind, K)
    with pytest.raises(NumericalFailure, match="behind the camera"):
        solve_pnp_linear(pts, behind, K)
    solved = solve_pnp(pts, np.stack([front, behind, front + 0.5]), K)
    assert type(solved[1]) is NumericalFailure
    assert str(solved[1]) == str(alone.value)
    _assert_same_solution(solved[0], solve_pnp(pts, front, K))
    _assert_same_solution(solved[2], solve_pnp(pts, front + 0.5, K))


def test_stacked_solve_reports_a_set_without_a_linear_solution_alone(monkeypatch):
    # Every kernel case of the marked pixel set is left unsolved (NaN), as
    # when its distance constraints are degenerate.
    rng = np.random.default_rng(223)
    _, pts, pix = synth_scene(rng, 12, K)
    marked = pix + 0.5
    original = pnp._linear_candidates

    def unsolved_marked(pts3, px, *args, **kwargs):
        r, t = original(pts3, px, *args, **kwargs)
        hit = np.all(px == marked, axis=(-2, -1))
        r[hit], t[hit] = np.nan, np.nan
        return r, t

    monkeypatch.setattr(pnp, "_linear_candidates", unsolved_marked)
    for solve in (solve_pnp, solve_pnp_linear):
        with pytest.raises(NumericalFailure, match="no usable control-point solution"):
            solve(pts, marked, K)
    solved = solve_pnp(pts, np.stack([pix, marked]), K)
    assert str(solved[1]) == "no usable control-point solution"
    _assert_same_solution(solved[0], solve_pnp(pts, pix, K))


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
    solved = solve_pnp(pts, np.stack([pix, dragged]), K)
    assert isinstance(solved[1], DivergedBehindCamera)
    _assert_same_solution(solved[0], solve_pnp(pts, pix, K))


def test_a_later_start_replaces_a_diverged_best_ranked_start(monkeypatch):
    # Near-planar multi-start: the cheapest candidate refines to a pose with
    # a point behind the camera, the second to a finite rms, which wins.
    rng = np.random.default_rng(162)
    _, pts, pix = synth_scene(rng, 8, K, depth=(0.3, 3.0), planar=True)
    dragged = pix.copy()
    dragged[:2] += rng.normal(0.0, 800.0, (2, 2))
    refined = []
    original = pnp.refine_pose

    def recorded(*args, **kwargs):
        refined.extend(original(*args, **kwargs))
        return refined

    monkeypatch.setattr(pnp, "refine_pose", recorded)
    sol = solve_pnp(pts, dragged, K)
    assert [math.isfinite(r.rms_reprojection_error) for r in refined] == [False, True]
    assert sol is refined[1]


def test_cost_counts_a_nan_depth_as_behind():
    # A kernel case without a solution has NaN depths; with them weighted
    # zero, the cost is still inf, not 0.
    zeros = np.zeros((1, 4))
    assert pnp._cost(zeros, np.full((1, 4), np.nan), zeros, robust=False)[0] == math.inf


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
    refined = refine_pose(stack, pts, np.stack([noisy, noisy, pix]), K)
    assert isinstance(refined[1], DivergedBehindCamera)
    with pytest.raises(DivergedBehindCamera):
        refine_pose(starts[1], pts, noisy, K)
    _assert_same_solution(refined[0], refine_pose(starts[0], pts, noisy, K))
    _assert_same_solution(refined[2], refine_pose(starts[2], pts, pix, K))
    # One pixel set per start pose, and the closed form takes one set.
    for bad in (noisy, np.stack([noisy, noisy])):
        with pytest.raises(ValueError):
            refine_pose(stack, pts, bad, K)
    with pytest.raises(ValueError):
        refine_pose(t_gt, pts, np.stack([noisy]), K)
    with pytest.raises(ValueError):
        solve_pnp_linear(pts, np.stack([noisy]), K)
    empty = PoseStack(np.zeros((0, 3, 3)), np.zeros((0, 3)))
    assert refine_pose(empty, pts, np.zeros((0, 20, 2)), K) == []
    assert solve_pnp(pts, np.zeros((0, 20, 2)), K) == []


@pytest.mark.parametrize("n_sets", [None, 1, 5], ids=["one_problem", "stack_of_1", "stack_of_5"])
def test_one_degeneracy_check_per_solve(monkeypatch, n_sets):
    # The guard's report is the one the refinement reports: a solve checks
    # and validates its points once, and a stack shares one of each.
    calls = []
    for name in ("check_degeneracy", "_validated"):

        def counted(*args, _name=name, _original=getattr(pnp, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(pnp, name, counted)
    rng = np.random.default_rng(211)
    _, pts, pix = synth_scene(rng, 15, K, planar=True)
    pix = pix if n_sets is None else pix + rng.normal(0.0, 1.0, (n_sets, *pix.shape))
    solve_pnp(pts + rng.normal(0.0, 1e-4, pts.shape), pix, K)
    assert sorted(calls) == ["_validated", "check_degeneracy"]
