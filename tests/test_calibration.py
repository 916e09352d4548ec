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


@pytest.mark.parametrize(
    "frames, uv, match",
    [
        ([0, 1, 2], np.zeros((2, 2)), "equal length"),
        ([0, 2, 2], np.zeros((3, 2)), "strictly increasing"),
        ([0, 2, 1], np.zeros((3, 2)), "strictly increasing"),
        ([0, 1, 2], [[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0]], "finite pixel"),
        ([0, 1, 2], [[0.0, 0.0], [0.0, np.inf], [0.0, 0.0]], "finite pixel"),
        # Transposed (2, n) and flat (2n,) pixels were reshaped to (n, 2) and
        # read across frames: transposed, frame 0 of [[1, 2, 3], [4, 5, 6]]
        # read (1, 2), not (1, 4).
        ([0, 1, 2], np.arange(1.0, 7.0).reshape(2, 3), r"uv must have shape \(n, 2\), got \(2, 3"),
        ([0, 1, 2], np.arange(6.0), r"uv must have shape \(n, 2\), got \(6,\)"),
        ([0, 1, 2], np.zeros((3, 3)), r"uv must have shape \(n, 2\), got \(3, 3\)"),
    ],
    ids=[
        "unequal_lengths", "repeated_frame", "decreasing_frame", "nan_pixel", "inf_pixel",
        "transposed_pixels", "flat_pixels", "three_column_pixels",
    ],  # fmt: skip
)
def test_track_rejects_broken_invariants(frames, uv, match):
    frames, uv = np.array(frames), np.array(uv, dtype=float)
    with pytest.raises(ValueError, match=match):
        Track2D(frames, uv, [True] * 3, [True] * 3)
    if match == "finite pixel":  # a non-finite pixel is fine on a row flagged invisible
        assert Track2D(frames, uv, [True, False, True], [True] * 3).n_frames == 3


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


@pytest.mark.parametrize("min_pairs", [math.nan, 10.0, 4.5, math.inf, True, "10"])
def test_min_pairs_must_be_an_integer(min_pairs):
    # A NaN min_pairs passed the floor and switched the pair-count guard off:
    # a track with no usable frame raised EmptyInput instead of TooFewPairs.
    with pytest.raises(ValueError, match="min_pairs must be at least 4"):
        CalibrationOptions(min_pairs=min_pairs)
    assert CalibrationOptions(min_pairs=np.int64(4)).min_pairs == 4


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
        stacks.append([len(p) for p in pix])
        return original(points, pix, *args, **kwargs)

    monkeypatch.setattr(refcal.calibration, "solve_pnp", counted)
    results = calibrate_each([(req, track) for track in tracks])
    # The three noise levels and the subset, with its fewer pairs, share one
    # ragged stack; the track with too few pairs fails before any solve.
    n_used = len(usable)
    assert stacks == [[n_used, len(usable[::3]), n_used, n_used]]
    assert isinstance(results[4], TooFewPairs)
    with pytest.raises(TooFewPairs):
        calibrate(replace(req, track=tracks[4]))
    for track, result in zip(tracks[:4], results[:4]):
        alone = calibrate(replace(req, track=track))
        assert np.array_equal(result.pose.rotation, alone.pose.rotation)
        assert np.array_equal(result.pose.translation, alone.pose.translation)
        assert result.n_pairs_used == alone.n_pairs_used
        assert result.dropped == alone.dropped
    assert calibrate_each([]) == []


def test_calibrate_each_selects_frames_once_per_flag_pattern(panda, monkeypatch):
    import refcal.calibration

    chain, ref = panda
    scene = generate_scene(ScenarioConfig(seed=48), chain, ref)
    clean = scene.clean_track
    sync = clean.sync & (clean.frame_index % 7 != 0)  # some frames dropped as not synced
    base = Track2D(clean.frame_index, clean.uv, clean.visible, sync)
    sigmas = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    tracks = [corrupt_track(base, NoiseModel(sigma=s), seed=48) for s in sigmas]
    calls = []
    original = refcal.calibration.select_frames

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(refcal.calibration, "select_frames", counted)
    req = _request(scene, Mode.EYE_ON_BASE)
    results = calibrate_each([(req, track) for track in tracks])
    # The six tracks share their frame numbers and flags, so one selection
    # serves them all; each still gets its own dropped tuple.
    assert len(calls) == 1
    for track, result in zip(tracks, results):
        assert result.dropped == tuple(original(track, req.joints, req.options)[1])
        assert NOT_SYNCED in dict(result.dropped).values()
    assert len({id(result.dropped) for result in results}) == len(sigmas)


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
    results = calibrate_each([(req, track) for track in tracks])
    assert [type(r) for r in results] == [DegenerateConfiguration] * 2
