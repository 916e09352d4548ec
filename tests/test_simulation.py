import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_pose
from refcal.calibration import (
    CalibrationOptions,
    CalibrationRequest,
    Mode,
    Track2D,
    calibrate,
    object_points,
    select_frames,
)
from refcal.errors import CalibrationError, UnreachableView
from refcal.geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    Pose,
    apply,
    compose,
    invert,
    project,
    rot_z,
    rotation_error,
)
from refcal.kinematics import forward_kinematics
from refcal.simulation import (
    _NOISE,
    _REPEAT,
    NoiseModel,
    ScenarioConfig,
    _child_seed,
    corrupt_track,
    evaluate,
    export_scene,
    generate_dual_view_scenes,
    generate_scene,
    run_frames_sweep,
    run_noise_sweep,
)


def test_scene_deterministic(panda):
    chain, ref = panda
    cfg = ScenarioConfig(seed=7)
    a = generate_scene(cfg, chain, ref)
    b = generate_scene(cfg, chain, ref)
    assert np.array_equal(a.joint_log.positions, b.joint_log.positions)
    assert np.array_equal(a.clean_track.uv, b.clean_track.uv, equal_nan=True)
    assert np.array_equal(a.t_gt.rotation, b.t_gt.rotation)
    assert np.array_equal(a.t_gt.translation, b.t_gt.translation)
    with pytest.raises(ValueError, match="read-only"):
        a.points[0, 0] = 0.0


@pytest.mark.parametrize("name", ["fps", "duration"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, 0.01, 1e308])
def test_config_rejects_a_non_finite_or_non_positive_fps_or_duration(name, value):
    # 0.01 and 1e308 are finite and positive, but against the other field's
    # default they give no frame (generate_scene then warned of an empty mean
    # and blamed the camera), or a count that overflowed to inf.
    message = f"{name} must be finite and positive, got {name}={value}"
    if 0 < value < math.inf:
        message = rf"fps \* duration must give from 1 to 10\*\*6 frames, got fps=.+ and duration="
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(seed=1, **{name: value})


def test_config_rejects_a_negative_seed():
    # numpy's own error for a negative seed names neither the seed nor its value.
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got seed=-1"):
        ScenarioConfig(seed=-1)
    assert ScenarioConfig(seed=0).seed == 0


@pytest.mark.parametrize("seed", [1.9, 1.0, math.inf, math.nan, True, "1"])
def test_config_rejects_a_seed_that_is_not_an_integer(seed):
    # seed=1.9 ran seed 1 (the substreams truncate) while the sweep metadata
    # recorded 1.9 and its own config digest; an infinite seed overflowed.
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got seed="):
        ScenarioConfig(seed=seed)
    assert ScenarioConfig(seed=np.int64(7)).seed == 7


def test_config_takes_from_one_to_a_million_frames():
    assert ScenarioConfig(seed=1, fps=1.0, duration=0.6).n_frames == 1
    assert ScenarioConfig(seed=1, fps=1000.0, duration=1000.0).n_frames == 10**6
    with pytest.raises(ValueError, match="got fps=1000.0 and duration=1001.0"):
        ScenarioConfig(seed=1, fps=1000.0, duration=1001.0)


def test_scene_frame_count(panda):
    chain, ref = panda
    scene = generate_scene(ScenarioConfig(seed=8, fps=30.0, duration=10.0), chain, ref)
    assert scene.joint_log.n_frames == 300
    assert scene.clean_track.n_frames == 300
    assert np.all(scene.clean_track.sync)


def test_scene_reprojects_exactly(panda):
    # Every visible pixel equals project(K, T_gt . FK(q) . offset) to 1e-9 px.
    chain, ref = panda
    cfg = ScenarioConfig(seed=9)
    scene = generate_scene(cfg, chain, ref)
    k = cfg.camera
    for i in range(0, scene.joint_log.n_frames, 17):
        if not scene.clean_track.visible[i]:
            continue
        poses = forward_kinematics(chain, scene.joint_log.positions[i])
        p_base = apply(poses[ref.link_index], ref.offset)
        uv = project(k, apply(scene.t_gt, p_base))
        assert_allclose(uv, scene.clean_track.uv[i], atol=1e-9)


def test_scene_eih_reprojects_exactly(panda_base):
    chain, ref = panda_base
    cfg = ScenarioConfig(seed=10, mode=Mode.EYE_IN_HAND)
    scene = generate_scene(cfg, chain, ref)
    assert scene.clean_track.visible.sum() >= 10
    for i in range(0, scene.joint_log.n_frames, 23):
        if not scene.clean_track.visible[i]:
            continue
        poses = forward_kinematics(chain, scene.joint_log.positions[i])
        p_ee = apply(invert(poses[-1]), ref.offset)
        uv = project(cfg.camera, apply(scene.t_gt, p_ee))
        assert_allclose(uv, scene.clean_track.uv[i], atol=1e-9)


def test_scene_visibility_honest(panda):
    chain, ref = panda
    cfg = ScenarioConfig(seed=11)
    scene = generate_scene(cfg, chain, ref)
    k = cfg.camera
    for i in range(scene.joint_log.n_frames):
        poses = forward_kinematics(chain, scene.joint_log.positions[i])
        p_cam = apply(scene.t_gt, apply(poses[ref.link_index], ref.offset))
        if scene.clean_track.visible[i]:
            assert p_cam[2] > 0
            u, v = scene.clean_track.uv[i]
            assert 0 <= u < k.width and 0 <= v < k.height
        else:
            u, v = scene.clean_track.uv[i]
            out = (
                p_cam[2] <= 1e-9
                or not (0 <= u < k.width)
                or not (0 <= v < k.height)
                or math.isnan(u)
            )
            assert out


def test_scene_joint_limits_respected(panda):
    chain, ref = panda
    scene = generate_scene(ScenarioConfig(seed=12), chain, ref)
    j = 0
    for joint in chain.joints:
        if not joint.actuated:
            continue
        lo, hi = joint.limits
        col = scene.joint_log.positions[:, j]
        assert np.all(col >= lo - 1e-12) and np.all(col <= hi + 1e-12)
        j += 1


def test_unreachable_view(panda):
    # A 2x2-pixel camera with a sliver of a field of view sees nothing.
    chain, ref = panda
    cfg = ScenarioConfig(
        seed=13, camera=CameraIntrinsics.from_horizontal_fov(0.01, 2, 2)
    )
    with pytest.raises(UnreachableView, match="wider-angle camera or another seed"):
        generate_scene(cfg, chain, ref)


@pytest.mark.parametrize(
    "mode, seed, reaches_half",
    [
        (Mode.EYE_ON_BASE, 0, True),
        (Mode.EYE_ON_BASE, 5, True),
        (Mode.EYE_IN_HAND, 3, True),  # the second placement is the first to see half
        (Mode.EYE_IN_HAND, 1, False),  # its best count, 60 frames, is tied by a later one
        (Mode.EYE_IN_HAND, 4, False),
    ],
)
def test_placement_pick_matches_sequential_best_of_20(panda, panda_base, mode, seed, reaches_half):
    from refcal import simulation as sim

    chain, ref = panda if mode is Mode.EYE_ON_BASE else panda_base
    cfg = ScenarioConfig(seed=seed, mode=mode)
    scene = generate_scene(cfg, chain, ref)

    # The placement loop as it ran one placement at a time: draw one camera
    # per sampler call, keep the first strictly better count, stop at the
    # first that sees half the frames.
    log = sim._trajectory(chain, cfg, sim._substream(seed, sim._TRAJECTORY))
    points = object_points(mode, chain, ref, log.positions)
    camera = sim._shell_cameras if mode is Mode.EYE_ON_BASE else sim._hand_cameras
    rng = sim._substream(seed, sim._PLACEMENT)
    k = cfg.camera
    best, n_best = None, -1
    for _ in range(20):
        rotation, position = camera(points.mean(axis=0), rng, 1)
        t_gt = invert(Pose(rotation[0], position[0]))
        pc = apply(t_gt, points)
        front = pc[:, 2] > MIN_DEPTH
        uv = np.full((len(pc), 2), np.nan)
        uv[front] = project(k, pc[front])
        visible = front & (uv[:, 0] >= 0) & (uv[:, 0] < k.width)
        visible &= (uv[:, 1] >= 0) & (uv[:, 1] < k.height)
        if visible.sum() > n_best:
            best, n_best = (t_gt, uv, visible), int(visible.sum())
        if visible.sum() >= cfg.n_frames // 2:
            break
    assert (n_best >= cfg.n_frames // 2) == reaches_half
    t_gt, uv, visible = best
    assert np.array_equal(scene.t_gt.rotation, t_gt.rotation)
    assert np.array_equal(scene.t_gt.translation, t_gt.translation)
    assert np.array_equal(scene.clean_track.uv, uv, equal_nan=True)
    assert np.array_equal(scene.clean_track.visible, visible)
    assert np.array_equal(scene.points, points)


def test_look_at_stack_rows_equal_one_row_calls():
    from refcal import simulation as sim

    target = np.array([0.1, -0.2, 0.3])
    positions = np.array(
        [[1.0, 0.5, 1.2], [0.1, -0.2, 2.0], [-0.7, 0.4, 0.1], [0.1, -0.2, -1.5]]
    )  # the second looks straight down, the fourth straight up
    rotations = sim._look_at(positions, target)
    for position, rotation in zip(positions, rotations):
        assert np.array_equal(rotation, sim._look_at(position[None], target)[0])
        assert_allclose(rotation.T @ rotation, np.eye(3), rtol=0, atol=1e-15)
        assert np.linalg.det(rotation) > 0
        view = rotation[:, 2]  # the optical axis
        assert_allclose(view, (target - position) / np.linalg.norm(target - position), atol=1e-15)
    # The straight-down camera takes the horizontal fallback image y.
    assert_allclose(rotations[1][:, 1], (0.0, 1.0, 0.0), atol=1e-15)


def test_look_at_rejects_a_position_on_the_target():
    from refcal import simulation as sim

    target = np.array([0.1, -0.2, 0.3])
    with pytest.raises(ValueError, match="coincides"):
        sim._look_at(np.array([[1.0, 0.5, 1.2], target, [0.0, 0.0, 2.0]]), target)


@pytest.mark.parametrize("sampler", ["_shell_cameras", "_hand_cameras"])
def test_camera_sampler_draws_placements_in_order(sampler):
    # One call for 20 placements draws the stream that 20 calls for one do.
    from refcal import simulation as sim

    camera = getattr(sim, sampler)
    target = np.array([0.3, 0.1, 0.4])
    rotations, positions = camera(target, sim._substream(3, sim._PLACEMENT), 20)
    assert rotations.shape == (20, 3, 3) and positions.shape == (20, 3)
    rng = sim._substream(3, sim._PLACEMENT)
    for rotation, position in zip(rotations, positions):
        one_r, one_p = camera(target, rng, 1)
        assert np.array_equal(rotation, one_r[0])
        assert np.array_equal(position, one_p[0])


def test_eih_scene_requires_base_ref(panda):
    chain, ref = panda  # flange reference
    with pytest.raises(ValueError):
        generate_scene(ScenarioConfig(seed=14, mode=Mode.EYE_IN_HAND), chain, ref)


# ------------------------------------------------------------- corruption ---


def _flat_track(n):
    rng = np.random.default_rng(0)
    uv = rng.uniform(100, 900, (n, 2))
    return Track2D(np.arange(n), uv, np.ones(n, bool), np.ones(n, bool))


def test_corrupt_sigma_zero_identical():
    track = _flat_track(100)
    out = corrupt_track(track, NoiseModel(sigma=0.0), seed=1)
    assert np.array_equal(out.uv, track.uv)


def test_corrupt_statistics():
    track = _flat_track(5000)
    out = corrupt_track(track, NoiseModel(sigma=10.0), seed=2)
    offsets = (out.uv - track.uv).ravel()  # 10,000 samples
    assert abs(np.std(offsets) - 10.0) / 10.0 < 0.03
    assert abs(np.mean(offsets)) < 4.0 * 10.0 / math.sqrt(offsets.size)


def test_corrupt_preserves_structure(panda):
    chain, ref = panda
    scene = generate_scene(ScenarioConfig(seed=15), chain, ref)
    out = corrupt_track(scene.clean_track, NoiseModel(sigma=3.0), seed=3)
    assert np.array_equal(out.frame_index, scene.clean_track.frame_index)
    assert np.array_equal(out.visible, scene.clean_track.visible)
    assert np.array_equal(out.sync, scene.clean_track.sync)
    inv = ~scene.clean_track.visible
    assert np.array_equal(out.uv[inv], scene.clean_track.uv[inv], equal_nan=True)
    assert not np.array_equal(out.uv[~inv], scene.clean_track.uv[~inv])


def test_corrupt_deterministic_and_scales_with_sigma():
    track = _flat_track(50)
    a = corrupt_track(track, NoiseModel(sigma=2.0), seed=4)
    b = corrupt_track(track, NoiseModel(sigma=2.0), seed=4)
    assert np.array_equal(a.uv, b.uv)
    # Common random numbers: sigma=4 offsets are exactly twice sigma=2 offsets.
    c = corrupt_track(track, NoiseModel(sigma=4.0), seed=4)
    assert_allclose(c.uv - track.uv, 2.0 * (a.uv - track.uv), atol=1e-12)


# ---------------------------------------------------------------- metrics ---


def test_evaluate_zero():
    p = random_pose(np.random.default_rng(5))
    err = evaluate(p, p)
    assert (err.e_x_cm, err.e_y_cm, err.e_z_cm, err.e_r_rad) == (0, 0, 0, 0)


def test_evaluate_an_error_past_float_range_squared_is_inf():
    # A pose file may hold a 1e200 m translation; the square of its error overflows.
    p = random_pose(np.random.default_rng(5))
    err = evaluate(Pose(p.rotation, (1e200, 0.0, 0.0)), p)
    assert (err.e_x_cm, err.e_trans_cm) == (1e202, math.inf)


def test_evaluate_reported_format():
    # 3/4.5/6 mm offsets and a 0.01 rad twist in centimeters and radians.
    gt = Pose(np.eye(3), (0.5, -0.2, 1.0))
    est = Pose(rot_z(0.01), gt.translation + (0.003, 0.0045, 0.006))
    err = evaluate(est, gt)
    assert err.e_x_cm == pytest.approx(0.30, abs=1e-12)
    assert err.e_y_cm == pytest.approx(0.45, abs=1e-12)
    assert err.e_z_cm == pytest.approx(0.60, abs=1e-12)
    assert err.e_r_rad == pytest.approx(0.01, abs=1e-12)


def test_evaluate_matches_independent_formulas():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a, b = random_pose(rng), random_pose(rng)
        err = evaluate(a, b)
        assert err.e_x_cm == pytest.approx(100 * abs(a.translation[0] - b.translation[0]))
        assert err.e_trans_cm == pytest.approx(100 * np.linalg.norm(a.translation - b.translation))
        # Oracle: angle from the rotation difference quaternion.
        m = a.rotation @ b.rotation.T
        w = 0.5 * math.sqrt(max(0.0, 1.0 + np.trace(m)))
        vec = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]) / (4 * w)
        assert err.e_r_rad == pytest.approx(2 * math.atan2(np.linalg.norm(vec), w), abs=1e-7)


# ------------------------------------------------------------------ sweeps ---


def test_noise_sweep_smoke(panda, tmp_path):
    chain, ref = panda
    cfg = ScenarioConfig(seed=20)
    sweep = run_noise_sweep(cfg, chain, ref, sigma_values=[0.0, 4.0], n_repeats=2)
    assert [c.param for c in sweep.cells] == [0.0, 4.0]
    assert sweep.cells[0].mean("e_trans_cm") < 1e-4  # noiseless limit
    assert sweep.cells[1].mean("e_trans_cm") > sweep.cells[0].mean("e_trans_cm")
    assert sweep.cells[0].n_fail == 0
    out = tmp_path / "noise.csv"
    sweep.to_csv(out)
    text = out.read_text()
    assert "# meta: seed=20" in text
    assert "param,mean_e_x_cm,mean_e_y_cm,mean_e_z_cm,mean_e_trans_cm,mean_e_r_rad,n_fail" in text


def test_noise_sweep_matches_a_calibrate_per_request(panda, panda_base):
    # The sweep stacks a scene's sigma values into one solve; a plain loop of
    # one calibrate per (sigma, scene) must give the same table.  The
    # six-frame scenes fail in 3 of 9 calibrations, as a whole scene (too
    # few visible frames); the four-frame repeat at sigma = 30 px solves
    # 8.4 cm off.
    short = ScenarioConfig(seed=35, fps=1.0, duration=6.0)
    for (chain, ref), cfg, sigmas in (
        (panda_base, ScenarioConfig(seed=29, mode=Mode.EYE_IN_HAND), [0.0, 2.0, 6.0, 10.0]),
        (panda, short, [0.0, 1.0, 30.0]),
    ):
        n_failed = 0
        sweep = run_noise_sweep(cfg, chain, ref, sigmas, n_repeats=3)
        scenes = [
            (generate_scene(replace(cfg, seed=_child_seed(cfg.seed, _REPEAT, r)), chain, ref),
             _child_seed(cfg.seed, _NOISE, r))
            for r in range(3)
        ]  # fmt: skip
        for sigma, cell in zip(sigmas, sweep.cells):
            errors, n_fail = [], 0
            for scene, noise_seed in scenes:
                track = corrupt_track(scene.clean_track, NoiseModel(sigma=sigma), noise_seed)
                req = CalibrationRequest(
                    cfg.mode, chain, ref, cfg.camera, track, scene.joint_log,
                    CalibrationOptions(min_pairs=4),
                )  # fmt: skip
                try:
                    errors.append(evaluate(calibrate(req).pose, scene.t_gt))
                except CalibrationError:
                    n_fail += 1
            assert cell.n_fail == n_fail
            n_failed += n_fail
            assert cell.errors == tuple(errors)  # bit for bit: the stack solves each alone
    assert n_failed == 3


def test_frames_sweep_matches_a_calibrate_per_request(panda, panda_base):
    # The sweep solves every scene and frame count as members of one ragged
    # stack, each with its own pair count; a plain loop of one calibrate per
    # (count, scene) must give the same table, bit for bit.  A count that a
    # scene cannot reach fails before any solve.
    for (chain, ref), mode in ((panda, Mode.EYE_ON_BASE), (panda_base, Mode.EYE_IN_HAND)):
        cfg = ScenarioConfig(seed=41, mode=mode, duration=4.0, noise=NoiseModel(sigma=2.0))
        counts = [4, 7, 25, 10**5]
        sweep = run_frames_sweep(cfg, chain, ref, counts, n_repeats=3)
        for n, cell in zip(counts, sweep.cells):
            errors, n_fail = [], 0
            for r in range(3):
                scene_cfg = replace(cfg, seed=_child_seed(cfg.seed, _REPEAT, r))
                scene = generate_scene(scene_cfg, chain, ref)
                noise_seed = _child_seed(cfg.seed, _NOISE, r)
                noisy = corrupt_track(scene.clean_track, cfg.noise, noise_seed)
                try:
                    options = CalibrationOptions(min_pairs=n)
                    usable, _ = select_frames(noisy, scene.joint_log, options)
                    picked = np.floor(np.arange(n) * len(usable) / n).astype(int)
                    track = noisy.subset(usable[picked])
                    req = CalibrationRequest(
                        mode, chain, ref, cfg.camera, track, scene.joint_log,
                        CalibrationOptions(min_pairs=4),
                    )  # fmt: skip
                    errors.append(evaluate(calibrate(req).pose, scene.t_gt))
                except CalibrationError:
                    n_fail += 1
            assert cell.n_fail == n_fail
            assert cell.errors == tuple(errors)
        assert sweep.cells[-1].n_fail == 3
        assert all(len(cell.errors) == 3 for cell in sweep.cells[1:3])


def test_noise_sweep_tracks_keep_the_clean_flags(panda_base, monkeypatch):
    # A noise level's track is built by the Track2D constructor from its
    # scene's frame numbers and flags, with read-only noisy pixels; the
    # constructor checks the pixels' shape and that they are finite.
    import refcal.simulation

    chain, ref = panda_base
    seen = []
    original = refcal.simulation.calibrate_each

    def recorded(members):
        members = list(members)
        seen.extend(members)
        return original(members)

    monkeypatch.setattr(refcal.simulation, "calibrate_each", recorded)
    cfg = ScenarioConfig(seed=3, mode=Mode.EYE_IN_HAND, duration=2.0)
    run_noise_sweep(cfg, chain, ref, [0.0, 2.0], n_repeats=2)
    assert len(seen) == 4
    for req, track in seen:
        for name in ("frame_index", "visible", "sync"):
            assert np.array_equal(getattr(track, name), getattr(req.track, name))
        assert track.uv is not req.track.uv and not track.uv.flags.writeable
    clean = seen[0][0].track
    with pytest.raises(ValueError, match=r"sigma=1e\+308"):  # and no overflow warning
        corrupt_track(clean, NoiseModel(sigma=1e308), seed=1)
    with pytest.raises(ValueError, match="finite pixel"):
        replace(clean, uv=np.where(clean.visible[:, None], np.inf, clean.uv))
    with pytest.raises(ValueError, match=r"uv must have shape \(n, 2\)"):
        replace(clean, uv=clean.uv.T)


def test_noise_sweep_tracks_equal_corrupt_track(panda_base, monkeypatch):
    # The sweep draws each scene's noise once and scales it by each sigma;
    # the tracks it calibrates must be corrupt_track's, bit for bit.
    import refcal.simulation

    chain, ref = panda_base
    cfg = ScenarioConfig(seed=3, mode=Mode.EYE_IN_HAND, duration=2.0)
    sigmas = [0.0, 0.5, 2.0, 2.0, 7.5]
    seen = []
    original = refcal.simulation.calibrate_each

    def recorded(members):
        members = list(members)
        seen.append(members)
        return original(members)

    monkeypatch.setattr(refcal.simulation, "calibrate_each", recorded)
    run_noise_sweep(cfg, chain, ref, sigmas, n_repeats=3)
    # One call for the whole sweep, with a request per scene.
    (members,) = seen
    requests = list({id(req): req for req, _ in members}.values())
    assert len(requests) == 3
    for r, req in enumerate(requests):
        clean, tracks = req.track, [track for other, track in members if other is req]
        noise_seed = _child_seed(cfg.seed, _NOISE, r)
        assert len(tracks) == len(sigmas)
        for sigma, track in zip(sigmas, tracks):
            expected = corrupt_track(clean, NoiseModel(sigma=sigma), noise_seed)
            for name in ("frame_index", "uv", "visible", "sync"):
                assert getattr(track, name).tobytes() == getattr(expected, name).tobytes()


def test_noise_sweep_deterministic(panda):
    chain, ref = panda
    cfg = ScenarioConfig(seed=21)
    s1 = run_noise_sweep(cfg, chain, ref, [2.0], n_repeats=2)
    s2 = run_noise_sweep(cfg, chain, ref, [2.0], n_repeats=2)
    assert s1.cells[0].errors == s2.cells[0].errors


def test_frames_sweep_smoke(panda):
    chain, ref = panda
    cfg = ScenarioConfig(seed=22, noise=NoiseModel(sigma=2.0))
    sweep = run_frames_sweep(cfg, chain, ref, n_values=[4, 50], n_repeats=3)
    assert sweep.cells[0].param == 4.0
    # More frames help on average.
    assert sweep.cells[1].mean("e_trans_cm") < sweep.cells[0].mean("e_trans_cm")
    assert sweep.kind == "frames"


def test_frames_sweep_validates_minimum(panda):
    chain, ref = panda
    with pytest.raises(ValueError):
        run_frames_sweep(ScenarioConfig(seed=23), chain, ref, n_values=[3, 10])


def test_frames_sweep_counts_unreachable_cells(panda):
    chain, ref = panda
    cfg = ScenarioConfig(seed=24)
    sweep = run_frames_sweep(cfg, chain, ref, n_values=[10, 100000], n_repeats=2)
    assert sweep.cells[1].n_fail == 2
    assert math.isnan(sweep.cells[1].mean("e_trans_cm"))


@pytest.mark.parametrize("n_repeats", [0, -2])
def test_sweeps_reject_non_positive_repeats(panda, n_repeats):
    chain, ref = panda
    cfg = ScenarioConfig(seed=27)
    with pytest.raises(ValueError, match=str(n_repeats)):
        run_noise_sweep(cfg, chain, ref, [0.0], n_repeats=n_repeats)
    with pytest.raises(ValueError, match=str(n_repeats)):
        run_frames_sweep(cfg, chain, ref, [10], n_repeats=n_repeats)


@pytest.mark.parametrize(
    "run_sweep, values",
    [(run_noise_sweep, [0.0, 2.0]), (run_frames_sweep, [10, 20])],
    ids=["noise", "frames"],
)
def test_sweeps_accept_a_generator_of_values(panda, run_sweep, values):
    # The values are read once: validating them must not use up a generator.
    chain, ref = panda
    cfg = ScenarioConfig(seed=28, noise=NoiseModel(sigma=1.0))
    from_list = run_sweep(cfg, chain, ref, values, 1)
    from_generator = run_sweep(cfg, chain, ref, (v for v in values), 1)
    assert [c.param for c in from_generator.cells] == values
    for got, expected in zip(from_generator.cells, from_list.cells):
        assert got.errors == expected.errors
        assert got.n_fail == expected.n_fail


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_noise_model_rejects_non_finite_values(sigma):
    with pytest.raises(ValueError, match=f"sigma={sigma}"):
        NoiseModel(sigma=sigma)


def test_noise_model_rejects_a_negative_sigma():
    with pytest.raises(ValueError, match="nonnegative, got sigma=-0.5"):
        NoiseModel(sigma=-0.5)


def test_noise_sweep_rejects_bad_sigma_before_making_scenes(panda, monkeypatch):
    import refcal.simulation

    def no_scenes(*args):
        raise AssertionError("a scene was generated before the sigma values were checked")

    monkeypatch.setattr(refcal.simulation, "generate_scene", no_scenes)
    chain, ref = panda
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match=str(bad)):
            run_noise_sweep(ScenarioConfig(seed=28), chain, ref, [0.0, bad], n_repeats=1)


@pytest.mark.parametrize("run_sweep", [run_noise_sweep, run_frames_sweep], ids=["noise", "frames"])
def test_sweeps_reject_an_empty_value_list_before_making_scenes(panda, monkeypatch, run_sweep):
    import refcal.simulation

    def no_scenes(*args):
        raise AssertionError("a scene was generated for an empty value list")

    monkeypatch.setattr(refcal.simulation, "generate_scene", no_scenes)
    chain, ref = panda
    with pytest.raises(ValueError, match=r"needs at least one value, got \[\]"):
        run_sweep(ScenarioConfig(seed=28), chain, ref, [], 1)


# ------------------------------------------------------------- dual scenes ---


def test_dual_view_scenes_share_ground_truth(panda, panda_base):
    chain, arm_ref = panda
    _, base_ref = panda_base
    cfg = ScenarioConfig(seed=25)
    eob_scene, eih_scenes = generate_dual_view_scenes(cfg, chain, arm_ref, base_ref)
    assert [anchor for anchor, _ in eih_scenes] == [30, 90, 150, 210, 270]
    for anchor, eih in eih_scenes:
        t_be = forward_kinematics(chain, eob_scene.joint_log.positions[anchor])[-1]
        expected = compose(eob_scene.t_gt, t_be)
        # Elementwise: the geodesic metric bottoms out near sqrt(eps).
        assert np.max(np.abs(eih.t_gt.rotation - expected.rotation)) < 1e-12
        assert np.max(np.abs(eih.t_gt.translation - expected.translation)) < 1e-12


def test_dual_view_keeps_the_placement_that_sees_most(panda, panda_base):
    # Seed 96's first placement that sees the arm point at all sees it in
    # only 82 of 300 frames, and the 0.5 anchor then sees the base point once.
    chain, arm_ref = panda
    _, base_ref = panda_base
    cfg = ScenarioConfig(seed=96)
    eob_scene, eih_scenes = generate_dual_view_scenes(cfg, chain, arm_ref, base_ref)
    assert eob_scene.clean_track.visible.sum() >= cfg.n_frames // 2
    assert min(eih.clean_track.visible.sum() for _, eih in eih_scenes) >= 10


# ----------------------------------------------------------------- export ---


def test_export_scene_roundtrip(panda, tmp_path):
    from refcal.fileio import (
        parse_chain_file,
        parse_intrinsics_file,
        parse_joint_log_csv,
        parse_pose_file,
        parse_track_csv,
    )

    chain, ref = panda
    cfg = ScenarioConfig(seed=26)
    scene = generate_scene(cfg, chain, ref)
    paths = export_scene(scene, cfg.camera, tmp_path / "scene")
    chain2, ref2 = parse_chain_file(paths["chain"])
    assert chain2.n_actuated == chain.n_actuated
    assert ref2.link_index == ref.link_index
    log = parse_joint_log_csv(paths["joints"])
    assert np.array_equal(log.positions, scene.joint_log.positions)
    track = parse_track_csv(paths["track"])
    assert np.array_equal(track.uv, scene.clean_track.uv, equal_nan=True)
    k = parse_intrinsics_file(paths["intrinsics"])
    assert k == cfg.camera
    gt = parse_pose_file(paths["ground_truth"])
    assert np.array_equal(gt.translation, scene.t_gt.translation)
    assert rotation_error(gt, scene.t_gt) < 1e-9


def test_config_digest_covers_chain_geometry_and_every_field(panda_base):
    from dataclasses import fields, replace

    from refcal.kinematics import KinematicChain
    from refcal.simulation import _config_digest

    chain, ref = panda_base
    cfg = ScenarioConfig(seed=4, mode=Mode.EYE_IN_HAND)
    digest = _config_digest(cfg, chain, ref)
    assert _config_digest(replace(cfg), chain, ref) == digest

    first = chain.joints[0]
    moved = KinematicChain(
        chain.name,
        (replace(first, origin=Pose(first.origin.rotation, (0.0, 0.0, 0.9))),) + chain.joints[1:],
    )
    changes = {
        "seed": 5,
        "mode": Mode.EYE_ON_BASE,
        "fps": 15.0,
        "duration": 5.0,
        "camera": CameraIntrinsics.from_horizontal_fov(70.0, 1920, 1080),
        "noise": NoiseModel(sigma=1.0),
    }
    assert list(changes) == [f.name for f in fields(ScenarioConfig)]
    variants = [_config_digest(cfg, moved, ref)]
    variants += [_config_digest(replace(cfg, **{k: v}), chain, ref) for k, v in changes.items()]
    assert len({digest, *variants}) == 8
