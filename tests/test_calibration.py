import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pose
from refcal.calibration import (
    MISSING_JOINT,
    NOT_SYNCED,
    NOT_VISIBLE,
    CalibrationOptions,
    CalibrationRequest,
    Mode,
    Track2D,
    calibrate,
    calibrate_each,
    select_frames,
    solve_axxb,
)
from refcal.errors import DegenerateConfiguration, InsufficientMotion, TooFewPairs
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
from refcal.kinematics import Joint, JointLog, KinematicChain, ReferencePoint
from refcal.simulation import NoiseModel, ScenarioConfig, corrupt_track, generate_scene

K = CameraIntrinsics.from_horizontal_fov(60.0, 1920, 1080)


def _track(n, visible=None, sync=None, uv=None):
    visible = np.ones(n, bool) if visible is None else np.asarray(visible, bool)
    sync = np.ones(n, bool) if sync is None else np.asarray(sync, bool)
    uv = np.tile([100.0, 100.0], (n, 1)) if uv is None else uv
    return Track2D(np.arange(n), uv, visible, sync)


def _log(n, n_joints=1):
    return JointLog(np.arange(n), np.arange(n) / 30.0, np.zeros((n, n_joints)))


# ----------------------------------------------------------- select_frames ---


def test_select_sync_flag_filter():
    sync = np.zeros(300, bool)
    sync[::15] = True  # 20 sync frames
    used, dropped = select_frames(_track(300, sync=sync), _log(300))
    assert len(used) == 20
    assert len(dropped) == 280
    assert all(reason == NOT_SYNCED for _, reason in dropped)


def test_select_invisible_dropped():
    visible = np.ones(40, bool)
    visible[[3, 7, 11, 19, 23]] = False
    used, dropped = select_frames(_track(40, visible=visible), _log(40))
    assert len(used) == 35
    assert sorted(f for f, r in dropped) == [3, 7, 11, 19, 23]
    assert all(r == NOT_VISIBLE for _, r in dropped)


def test_select_all_frames_mode():
    opts = CalibrationOptions(use_only_sync=False)
    used, dropped = select_frames(_track(300, sync=np.zeros(300, bool)), _log(300), opts)
    assert len(used) == 300
    assert not dropped


def test_select_missing_joint():
    track = _track(10)
    log = JointLog(np.arange(8), np.arange(8) / 30.0, np.zeros((8, 1)))
    used, dropped = select_frames(track, log, CalibrationOptions(min_pairs=4))
    assert len(used) == 8
    assert dropped == [(8, MISSING_JOINT), (9, MISSING_JOINT)]


def test_select_too_few_pairs():
    with pytest.raises(TooFewPairs) as err:
        select_frames(_track(5), _log(5))
    assert err.value.n_usable == 5
    assert err.value.min_pairs == 10


def test_select_conservation():
    rng = np.random.default_rng(3)
    visible = rng.random(100) > 0.2
    sync = rng.random(100) > 0.5
    track = _track(100, visible=visible, sync=sync)
    log = JointLog(np.arange(0, 100, 2), np.arange(50) / 30.0, np.zeros((50, 1)))
    used, dropped = select_frames(track, log, CalibrationOptions(min_pairs=4))
    combined = sorted(list(used) + [f for f, _ in dropped])
    assert combined == list(range(100))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_select_frames_matches_per_frame_loop(data):
    frames = sorted(data.draw(st.sets(st.integers(0, 60), max_size=40)))
    n = len(frames)
    visible = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sync = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    joint_frames = sorted(data.draw(st.sets(st.integers(0, 60))))
    use_only_sync = data.draw(st.booleans())
    track = Track2D(np.array(frames, dtype=np.int64), np.zeros((n, 2)), visible, sync)
    m = len(joint_frames)
    log = JointLog(joint_frames, np.arange(m) / 30.0, np.zeros((m, 1)))
    opts = CalibrationOptions(use_only_sync=use_only_sync, min_pairs=4)

    expected_used, expected_dropped = [], []
    for f, vis, syn in zip(frames, visible, sync):
        if f not in joint_frames:
            expected_dropped.append((f, MISSING_JOINT))
        elif not vis:
            expected_dropped.append((f, NOT_VISIBLE))
        elif use_only_sync and not syn:
            expected_dropped.append((f, NOT_SYNCED))
        else:
            expected_used.append(f)

    if len(expected_used) < 4:
        with pytest.raises(TooFewPairs) as err:
            select_frames(track, log, opts)
        assert err.value.n_usable == len(expected_used)
        assert err.value.dropped == tuple(expected_dropped)
        return
    used, dropped = select_frames(track, log, opts)
    assert used.dtype == np.int64
    assert used.tolist() == expected_used
    assert dropped == expected_dropped
    assert all(type(f) is int and type(r) is str for f, r in dropped)
    assert sorted(used.tolist() + [f for f, _ in dropped]) == frames


def test_min_pairs_floor():
    with pytest.raises(ValueError):
        CalibrationOptions(min_pairs=3)


# -------------------------------------------------------------- pipelines ---


def _request(scene, mode, track=None, **opt):
    options = CalibrationOptions(**opt) if opt else CalibrationOptions()
    return CalibrationRequest(
        mode=mode,
        chain=scene.chain,
        ref=scene.ref,
        intrinsics=K,
        track=track if track is not None else scene.clean_track,
        joints=scene.joint_log,
        options=options,
    )


def test_eye_on_base_noiseless_roundtrip(panda):
    chain, ref = panda
    scene = generate_scene(ScenarioConfig(seed=42, mode=Mode.EYE_ON_BASE), chain, ref)
    result = calibrate(_request(scene, Mode.EYE_ON_BASE))
    assert np.max(np.abs(result.pose.translation - scene.t_gt.translation)) < 1e-5
    assert rotation_error(result.pose, scene.t_gt) < 1e-6
    assert result.n_pairs_used + len(result.dropped) == scene.clean_track.n_frames


def test_eye_in_hand_noiseless_roundtrip(panda_base):
    chain, ref = panda_base
    scene = generate_scene(ScenarioConfig(seed=43, mode=Mode.EYE_IN_HAND), chain, ref)
    result = calibrate(_request(scene, Mode.EYE_IN_HAND))
    assert np.max(np.abs(result.pose.translation - scene.t_gt.translation)) < 1e-5
    assert rotation_error(result.pose, scene.t_gt) < 1e-6


def test_eye_in_hand_requires_base_reference(panda):
    chain, ref = panda  # flange-mounted reference point
    scene = generate_scene(ScenarioConfig(seed=44, mode=Mode.EYE_ON_BASE), chain, ref)
    req = CalibrationRequest(
        mode=Mode.EYE_IN_HAND,
        chain=chain,
        ref=ref,
        intrinsics=K,
        track=scene.clean_track,
        joints=scene.joint_log,
    )
    with pytest.raises(ValueError):
        calibrate(req)


@pytest.mark.parametrize(
    "mode, seed", [(Mode.EYE_ON_BASE, 45), (Mode.EYE_IN_HAND, 46)], ids=["eob", "eih"]
)
def test_given_points_give_the_same_pose(panda, panda_base, mode, seed):
    chain, ref = panda if mode is Mode.EYE_ON_BASE else panda_base
    scene = generate_scene(ScenarioConfig(seed=seed, mode=mode), chain, ref)
    noisy = corrupt_track(scene.clean_track, NoiseModel(sigma=2.0), seed=seed)
    req = _request(scene, mode, track=noisy, min_pairs=4)
    from_fk = calibrate(req)
    given_points = calibrate(replace(req, points=scene.points))
    assert np.array_equal(given_points.pose.rotation, from_fk.pose.rotation)
    assert np.array_equal(given_points.pose.translation, from_fk.pose.translation)
    assert given_points.dropped == from_fk.dropped


def test_request_rejects_bad_points(panda):
    chain, ref = panda
    scene = generate_scene(ScenarioConfig(seed=47), chain, ref)
    req = _request(scene, Mode.EYE_ON_BASE)
    n = scene.joint_log.n_frames
    for shape in ((n - 1, 3), (n, 2), (3 * n,)):
        with pytest.raises(ValueError, match="shape"):
            replace(req, points=np.zeros(shape))
    points = np.array(scene.points)
    points[5, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        replace(req, points=points)


def test_request_points_are_a_read_only_copy(panda):
    chain, ref = panda
    scene = generate_scene(ScenarioConfig(seed=47), chain, ref)
    points = np.array(scene.points, order="F")
    req = replace(_request(scene, Mode.EYE_ON_BASE), points=points)
    points[0, 0] += 1.0
    assert np.array_equal(req.points, scene.points)
    assert req.points.flags.c_contiguous and not req.points.flags.writeable
    with pytest.raises(ValueError):
        req.points[0, 0] = 0.0


def test_calibration_deterministic(panda):
    chain, ref = panda
    scene = generate_scene(ScenarioConfig(seed=45), chain, ref)
    noisy = corrupt_track(scene.clean_track, NoiseModel(sigma=2.0), seed=9)
    r1 = calibrate(_request(scene, Mode.EYE_ON_BASE, track=noisy))
    r2 = calibrate(_request(scene, Mode.EYE_ON_BASE, track=noisy))
    assert np.array_equal(r1.pose.rotation, r2.pose.rotation)
    assert np.array_equal(r1.pose.translation, r2.pose.translation)
    assert r1.solution.rms_reprojection_error == r2.solution.rms_reprojection_error


def test_collinear_trajectory_rejected():
    # A single prismatic joint sweeps the reference point along a line.
    chain = KinematicChain(
        "rail", (Joint("slide", "prismatic", Pose(np.eye(3), (0, 0, 0)), axis=(1.0, 0, 0)),)
    )
    ref = ReferencePoint(link_index=1, offset=(0.0, 0.0, 0.0))
    n = 30
    qs = np.linspace(-0.4, 0.4, n)[:, None]
    cam = invert(Pose(rotation_about_axis((1.0, 0.0, 0.0), -math.pi / 2), (0.0, -2.0, 0.0)))
    uv = project(K, apply(cam, np.column_stack([qs[:, 0], np.zeros(n), np.zeros(n)])))
    req = CalibrationRequest(
        mode=Mode.EYE_ON_BASE,
        chain=chain,
        ref=ref,
        intrinsics=K,
        track=Track2D(np.arange(n), uv, np.ones(n, bool), np.ones(n, bool)),
        joints=JointLog(np.arange(n), np.arange(n) / 30.0, qs),
    )
    with pytest.raises(DegenerateConfiguration):
        calibrate(req)


def test_noisy_eob_matches_reported_scale(panda):
    # sigma=2 px, 300 frames: per-axis error should sit in the few-mm band.
    chain, ref = panda
    errs = []
    for seed in (50, 51, 52):
        scene = generate_scene(ScenarioConfig(seed=seed), chain, ref)
        noisy = corrupt_track(scene.clean_track, NoiseModel(sigma=2.0), seed=seed)
        result = calibrate(_request(scene, Mode.EYE_ON_BASE, track=noisy, min_pairs=4))
        errs.append(np.abs(result.pose.translation - scene.t_gt.translation))
    assert np.all(np.mean(errs, axis=0) < 0.02)


# ------------------------------------------------------------------ AX=XB ---


def _pose_exp(axis, angle, t):
    return Pose(rotation_about_axis(np.asarray(axis, float) / np.linalg.norm(axis), angle), t)


def test_axxb_identity_when_motions_match():
    rng = np.random.default_rng(60)
    motions = [random_pose(rng) for _ in range(4)]
    x = solve_axxb(motions, motions)
    assert rotation_error(x, Pose(np.eye(3), np.zeros(3))) < 1e-9
    assert np.max(np.abs(x.translation)) < 1e-9


def test_axxb_construct_and_recover():
    # Recovery is asserted elementwise on the rotation matrices.
    rng = np.random.default_rng(61)
    for _ in range(25):
        x_gt = random_pose(rng)
        bs = [random_pose(rng) for _ in range(3)]
        as_ = [compose(compose(x_gt, b), invert(x_gt)) for b in bs]
        x = solve_axxb(as_, bs)
        assert np.max(np.abs(x.rotation - x_gt.rotation)) < 1e-9
        assert np.max(np.abs(x.translation - x_gt.translation)) < 1e-9


def test_axxb_parallel_axes_insufficient():
    a1 = _pose_exp((0, 0, 1), 0.5, (0.1, 0.0, 0.0))
    a2 = _pose_exp((0, 0, 1), -0.8, (0.0, 0.2, 0.0))
    with pytest.raises(InsufficientMotion):
        solve_axxb([a1, a2], [a1, a2])


def test_axxb_needs_two_motions():
    a = _pose_exp((0, 0, 1), 0.5, (0.1, 0.0, 0.0))
    with pytest.raises(InsufficientMotion):
        solve_axxb([a], [a])
    with pytest.raises(ValueError):
        solve_axxb([a, a], [a])


def test_calibrate_each_stacks_requests_that_select_the_same_frames(panda, monkeypatch):
    import refcal.calibration

    chain, ref = panda
    scene = generate_scene(ScenarioConfig(seed=48), chain, ref)
    tracks = [
        corrupt_track(scene.clean_track, NoiseModel(sigma=s), seed=48) for s in (0.0, 2.0, 5.0)
    ]
    usable = scene.clean_track.frame_index[scene.clean_track.visible]
    tracks.insert(1, tracks[1].subset(usable[::3]))
    tracks.append(tracks[2].subset(usable[:5]))  # fewer than min_pairs = 10
    req = _request(scene, Mode.EYE_ON_BASE)
    stacks = []
    original = refcal.calibration.solve_pnp

    def counted(points, pix, *args, **kwargs):
        stacks.append(pix.shape[0])
        return original(points, pix, *args, **kwargs)

    monkeypatch.setattr(refcal.calibration, "solve_pnp", counted)
    results = calibrate_each(req, tracks)
    # The three noise levels share a stack and the subset solves alone; the
    # track with too few pairs fails before any solve.
    assert sorted(stacks) == [1, 3]
    assert isinstance(results[4], TooFewPairs)
    with pytest.raises(TooFewPairs):
        calibrate(replace(req, track=tracks[4]))
    for track, result in zip(tracks[:4], results[:4]):
        alone = calibrate(replace(req, track=track))
        assert np.array_equal(result.pose.rotation, alone.pose.rotation)
        assert np.array_equal(result.pose.translation, alone.pose.translation)
        assert result.n_pairs_used == alone.n_pairs_used
        assert result.dropped == alone.dropped
    assert calibrate_each(req, []) == []


def test_calibrate_each_gives_a_stack_its_shared_error():
    # The rail of test_collinear_trajectory_rejected, seen twice: the point
    # set is collinear whatever the pixels, so both tracks fail with it.
    chain = KinematicChain(
        "rail", (Joint("slide", "prismatic", Pose(np.eye(3), (0, 0, 0)), axis=(1.0, 0, 0)),)
    )
    ref = ReferencePoint(link_index=1, offset=(0.0, 0.0, 0.0))
    n = 30
    joints = JointLog(np.arange(n), np.arange(n) / 30.0, np.linspace(-0.4, 0.4, n)[:, None])
    cam = invert(Pose(rotation_about_axis((1.0, 0.0, 0.0), -math.pi / 2), (0.0, -2.0, 0.0)))
    uv = project(K, apply(cam, np.column_stack([joints.positions[:, 0], np.zeros(n), np.zeros(n)])))
    flags = np.ones(n, bool)
    tracks = [Track2D(np.arange(n), uv + offset, flags, flags) for offset in (0.0, 1.5)]
    req = CalibrationRequest(Mode.EYE_ON_BASE, chain, ref, K, tracks[0], joints)
    results = calibrate_each(req, tracks)
    assert [type(r) for r in results] == [DegenerateConfiguration] * 2
