"""Synthetic benchmark: scene generation, noisy tracks, metrics, sweeps.

A scene is a virtual camera watching a simulated arm.  The arm performs a
piecewise-constant random joint-velocity motion (joint-space excitation
spreads the reference point through the workspace just as Cartesian
direction switching would, without needing inverse kinematics; sweep
metadata records this choice).  The camera is placed on a spherical shell
around the base and aimed at the trajectory, or mounted on the last link
for eye-in-hand scenes.  Tracks store exact projections; Gaussian pixel
noise is injected separately so one scene serves every noise level.

Randomness is fully reproducible: one root seed, with fixed labeled
substreams for trajectory, placement, and noise, so that changing the
noise level never perturbs the trajectory.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._version import __version__
from .calibration import (
    CalibrationOptions,
    CalibrationRequest,
    Mode,
    Track2D,
    calibrate,
)
from .errors import CalibrationError, UnreachableView
from .geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    Pose,
    apply,
    apply_stack,
    compose,
    invert,
    invert_stack,
    rotation_about_axis,
    rotation_error,
    translation_error,
)
from .kinematics import (
    JointLog,
    KinematicChain,
    ReferencePoint,
    forward_kinematics,
)

# Labels for derived random substreams.
_TRAJECTORY = 11
_PLACEMENT = 12
_NOISE = 13
_REPEAT = 14


def _substream(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in keys)))


def _child_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(tuple(int(k) for k in keys)).generate_state(1)[0])


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian pixel noise with mean mu and standard deviation sigma."""

    sigma: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


def _default_camera() -> CameraIntrinsics:
    return CameraIntrinsics.from_horizontal_fov(60.0, 1920, 1080)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    mode: Mode = Mode.EYE_ON_BASE
    fps: float = 30.0
    duration: float = 10.0
    n_direction_switches: int = 10
    camera: CameraIntrinsics = field(default_factory=_default_camera)
    radius_range: tuple[float, float] = (1.0, 2.5)
    elevation_range: tuple[float, float] = (math.radians(10.0), math.radians(60.0))
    noise: NoiseModel = field(default_factory=NoiseModel)
    # Joint-velocity norm. The wider the reference point sweeps the
    # workspace, the better conditioned the solve; 1.2 rad/s spreads a
    # 7-joint arm's tip over most of its reach within a 10 s capture.
    joint_speed: float = 1.2
    eih_offset_max: float = 0.15
    eih_tilt_max: float = math.radians(30.0)

    def __post_init__(self):
        if self.fps <= 0 or self.duration <= 0:
            raise ValueError("fps and duration must be positive")
        if not 0 < self.radius_range[0] <= self.radius_range[1]:
            raise ValueError("radius range must be positive and ordered")

    @property
    def n_frames(self) -> int:
        return int(round(self.fps * self.duration))


@dataclass(frozen=True)
class GroundTruthScene:
    """A simulated capture with its exact camera transform.

    t_gt is camera-to-base for eye-on-base scenes and
    camera-to-end-effector for eye-in-hand scenes.  Visible frames of
    clean_track reproject exactly from FK plus t_gt.
    """

    chain: KinematicChain
    ref: ReferencePoint
    t_gt: Pose
    joint_log: JointLog
    clean_track: Track2D


@dataclass(frozen=True)
class PoseError:
    """Per-axis absolute translation error (cm) and geodesic rotation error (rad)."""

    e_x_cm: float
    e_y_cm: float
    e_z_cm: float
    e_r_rad: float

    @property
    def e_trans_cm(self) -> float:
        return math.sqrt(self.e_x_cm**2 + self.e_y_cm**2 + self.e_z_cm**2)


def evaluate(t_est: Pose, t_gt: Pose) -> PoseError:
    ex, ey, ez = translation_error(t_est, t_gt) * 100.0
    return PoseError(float(ex), float(ey), float(ez), rotation_error(t_est, t_gt))


def _sample_start(chain: KinematicChain, rng: np.random.Generator) -> np.ndarray:
    q0 = []
    for joint in chain.joints:
        if not joint.actuated:
            continue
        if joint.limits is not None:
            lo, hi = joint.limits
            span = hi - lo
            q0.append(rng.uniform(lo + 0.3 * span, hi - 0.3 * span))
        else:
            q0.append(rng.uniform(-math.pi / 2, math.pi / 2))
    return np.array(q0)


def _trajectory(chain: KinematicChain, cfg: ScenarioConfig, rng: np.random.Generator) -> JointLog:
    """Piecewise-constant random joint velocities, clamped to limits."""
    n_joints = chain.n_actuated
    n = cfg.n_frames
    dt = 1.0 / cfg.fps
    seg_len = cfg.duration / max(cfg.n_direction_switches, 1)
    lo = np.full(n_joints, -np.inf)
    hi = np.full(n_joints, np.inf)
    j = 0
    for joint in chain.joints:
        if joint.actuated:
            if joint.limits is not None:
                lo[j], hi[j] = joint.limits
            j += 1
    q = _sample_start(chain, rng)
    positions = np.empty((n, n_joints))
    velocity = np.zeros(n_joints)
    segment = -1
    for i in range(n):
        t = i * dt
        seg = min(int(t / seg_len), cfg.n_direction_switches - 1)
        if seg != segment:
            segment = seg
            direction = rng.standard_normal(n_joints)
            direction /= max(np.linalg.norm(direction), 1e-12)
            velocity = cfg.joint_speed * direction
        if i > 0:
            q = np.clip(q + velocity * dt, lo, hi)
        positions[i] = q
    return JointLog(
        frame_index=np.arange(n, dtype=np.int64),
        timestamps=np.arange(n) * dt,
        positions=positions,
    )


def _look_at(position: np.ndarray, target: np.ndarray) -> Pose:
    """Camera pose (camera-to-base) at `position`, z axis toward `target`,
    zero roll (image y axis as downward as the geometry allows)."""
    fwd = np.asarray(target, dtype=float) - np.asarray(position, dtype=float)
    norm = np.linalg.norm(fwd)
    if norm < 1e-12:
        raise ValueError("camera position coincides with the look-at target")
    z = fwd / norm
    up = np.array([0.0, 0.0, 1.0])
    y = -up + float(up @ z) * z
    ynorm = np.linalg.norm(y)
    if ynorm < 1e-9:
        # Looking straight up/down: pick an arbitrary horizontal image y.
        y = np.array([0.0, 1.0, 0.0]) - float(np.array([0.0, 1.0, 0.0]) @ z) * z
        ynorm = np.linalg.norm(y)
    y = y / ynorm
    x = np.cross(y, z)
    return Pose(np.column_stack([x, y, z]), position)


def _project_masked(k: CameraIntrinsics, pc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projections (NaN behind the camera) and honest visibility flags."""
    z = pc[:, 2]
    front = z > MIN_DEPTH
    zs = np.where(front, z, 1.0)
    uv = np.column_stack([k.fx * pc[:, 0] / zs + k.cx, k.fy * pc[:, 1] / zs + k.cy])
    uv[~front] = np.nan
    visible = (
        front
        & (uv[:, 0] >= 0)
        & (uv[:, 0] < k.width)
        & (uv[:, 1] >= 0)
        & (uv[:, 1] < k.height)
    )
    return uv, visible


def _sample_shell(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    radius = rng.uniform(*cfg.radius_range)
    elevation = rng.uniform(*cfg.elevation_range)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    return radius * np.array(
        [
            math.cos(elevation) * math.cos(azimuth),
            math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation),
        ]
    )


def _tilted(pose: Pose, max_angle: float, rng: np.random.Generator) -> Pose:
    axis = rng.standard_normal(3)
    axis /= max(np.linalg.norm(axis), 1e-12)
    angle = rng.uniform(0.0, max_angle)
    return Pose(pose.rotation @ rotation_about_axis(axis, angle), pose.translation)


def _scene_points(
    chain: KinematicChain, ref: ReferencePoint, log: JointLog
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame base-frame reference positions (N, 3), and end-effector
    poses as rotations (N, 3, 3) and translations (N, 3)."""
    rotations, translations = forward_kinematics(chain, log.positions)
    k = ref.link_index
    p_base = apply_stack(rotations[:, k], translations[:, k], ref.offset)
    return p_base, rotations[:, -1], translations[:, -1]


def generate_scene(
    cfg: ScenarioConfig, chain: KinematicChain, ref: ReferencePoint
) -> GroundTruthScene:
    """Sample one reproducible scene for the configured mode.

    Camera placements that never see the reference point are resampled up
    to 20 times before UnreachableView is raised.  Every frame is flagged
    as a synchronization frame: the simulator has no capture latency.
    """
    traj_rng = _substream(cfg.seed, _TRAJECTORY)
    place_rng = _substream(cfg.seed, _PLACEMENT)
    log = _trajectory(chain, cfg, traj_rng)
    if cfg.mode is Mode.EYE_IN_HAND and ref.link_index != 0:
        raise ValueError("eye-in-hand scenes need a base-link reference point")
    p_base, ee_rot, ee_trans = _scene_points(chain, ref, log)

    if cfg.mode is Mode.EYE_IN_HAND:
        base_in_ee = apply_stack(*invert_stack(ee_rot, ee_trans), ref.offset)

    # Keep the placement (of up to 20) that sees the reference point in the
    # most frames; a real capture frames the point deliberately.
    best = None
    for _ in range(20):
        if cfg.mode is Mode.EYE_ON_BASE:
            position = _sample_shell(cfg, place_rng)
            t_gt = invert(_look_at(position, p_base.mean(axis=0)))
            pc = apply(t_gt, p_base)
        else:
            offset = place_rng.standard_normal(3)
            offset *= place_rng.uniform(0.0, cfg.eih_offset_max) / max(
                np.linalg.norm(offset), 1e-12
            )
            # Aim at the mean direction of the base point across the whole
            # trajectory (in the end-effector frame) so it stays in view as
            # the arm swings the camera around.
            mount = _tilted(_look_at(offset, base_in_ee.mean(axis=0)), cfg.eih_tilt_max, place_rng)
            t_gt = invert(mount)
            pc = apply(t_gt, base_in_ee)
        uv, visible = _project_masked(cfg.camera, pc)
        n_vis = int(visible.sum())
        if best is None or n_vis > best[0]:
            best = (n_vis, t_gt, uv, visible)
        if n_vis >= log.n_frames // 2:
            break
    n_vis, t_gt, uv, visible = best
    if n_vis == 0:
        raise UnreachableView(
            "reference point never visible after 20 camera placements; "
            "widen the placement bounds or shorten the chain"
        )
    track = Track2D(
        frame_index=log.frame_index,
        uv=uv,
        visible=visible,
        sync=np.ones(log.n_frames, dtype=bool),
    )
    return GroundTruthScene(chain=chain, ref=ref, t_gt=t_gt, joint_log=log, clean_track=track)


def generate_dual_view_scenes(
    cfg: ScenarioConfig,
    chain: KinematicChain,
    arm_ref: ReferencePoint,
    base_ref: ReferencePoint,
    anchor_fractions=(0.1, 0.3, 0.5, 0.7, 0.9),
) -> tuple[GroundTruthScene, list[tuple[int, GroundTruthScene]]]:
    """One world seen both ways: a fixed camera watching the arm, plus, for
    each anchor frame, the same camera bolted to the end-effector at that
    instant and re-simulated as an arm-mounted camera tracking a base point.

    The bolted camera's mount equals (camera-to-base) . (EE-to-base FK at
    the anchor); estimates from the two pipelines must therefore agree
    through exactly that composition at the anchor frame.
    """
    traj_rng = _substream(cfg.seed, _TRAJECTORY)
    place_rng = _substream(cfg.seed, _PLACEMENT)
    log = _trajectory(chain, cfg, traj_rng)
    p_arm, ee_rot, ee_trans = _scene_points(chain, arm_ref, log)
    base_in_ee = apply_stack(*invert_stack(ee_rot, ee_trans), base_ref.offset)

    # Aim between the arm trajectory and the base point so both stay in view.
    target = 0.5 * (p_arm.mean(axis=0) + base_ref.offset)
    eob_scene = None
    for _ in range(20):
        position = _sample_shell(cfg, place_rng)
        t_cb = invert(_look_at(position, target))
        uv, visible = _project_masked(cfg.camera, apply(t_cb, p_arm))
        if visible.sum() == 0:
            continue
        track = Track2D(log.frame_index, uv, visible, np.ones(log.n_frames, dtype=bool))
        eob_scene = GroundTruthScene(chain, arm_ref, t_cb, log, track)
        break
    if eob_scene is None:
        raise UnreachableView("no placement saw the arm-mounted reference point")

    eih_scenes = []
    for frac in anchor_fractions:
        anchor = min(int(frac * log.n_frames), log.n_frames - 1)
        t_ce = compose(eob_scene.t_gt, Pose(ee_rot[anchor], ee_trans[anchor]))
        uv, visible = _project_masked(cfg.camera, apply(t_ce, base_in_ee))
        track = Track2D(log.frame_index, uv, visible, np.ones(log.n_frames, dtype=bool))
        eih_scenes.append(
            (anchor, GroundTruthScene(chain, base_ref, t_ce, log, track))
        )
    return eob_scene, eih_scenes


def corrupt_track(track: Track2D, noise: NoiseModel, seed: int) -> Track2D:
    """Add i.i.d. Gaussian offsets to the pixels of visible frames.

    Flags, frame indices, and invisible rows are untouched; the result is
    deterministic under the seed, and for a fixed seed the injected offsets
    scale linearly with sigma (common random numbers across noise levels).
    """
    rng = _substream(seed, _NOISE)
    uv = np.array(track.uv)
    vis = track.visible
    offsets = noise.mu + noise.sigma * rng.standard_normal((int(vis.sum()), 2))
    uv[vis] = uv[vis] + offsets
    return Track2D(track.frame_index, uv, vis, track.sync)


@dataclass(frozen=True)
class SweepCell:
    """Aggregated errors for one sweep parameter value."""

    param: float
    e_x_cm: np.ndarray
    e_y_cm: np.ndarray
    e_z_cm: np.ndarray
    e_trans_cm: np.ndarray
    e_r_rad: np.ndarray
    n_fail: int

    @property
    def mean_e_x_cm(self) -> float:
        return float(np.mean(self.e_x_cm)) if len(self.e_x_cm) else math.nan

    @property
    def mean_e_y_cm(self) -> float:
        return float(np.mean(self.e_y_cm)) if len(self.e_y_cm) else math.nan

    @property
    def mean_e_z_cm(self) -> float:
        return float(np.mean(self.e_z_cm)) if len(self.e_z_cm) else math.nan

    @property
    def mean_e_trans_cm(self) -> float:
        return float(np.mean(self.e_trans_cm)) if len(self.e_trans_cm) else math.nan

    @property
    def mean_e_r_rad(self) -> float:
        return float(np.mean(self.e_r_rad)) if len(self.e_r_rad) else math.nan

    @property
    def stderr_e_trans_cm(self) -> float:
        n = len(self.e_trans_cm)
        if n < 2:
            return math.nan
        return float(np.std(self.e_trans_cm, ddof=1) / math.sqrt(n))


@dataclass(frozen=True)
class SweepResult:
    kind: str
    cells: tuple[SweepCell, ...]
    metadata: dict

    def to_csv(self, path) -> None:
        from .fileio import write_sweep_csv

        write_sweep_csv(self, path)


def _config_digest(cfg: ScenarioConfig, chain: KinematicChain, ref: ReferencePoint) -> str:
    """Digest of everything that shapes a sweep: the whole scenario config
    and the chain file's content, both in their canonical serialized form."""
    from .fileio import _chain_doc, _emit

    config = asdict(cfg)
    config["mode"] = cfg.mode.value
    blob = _emit({"config": config, "chain": _chain_doc(chain, ref)})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _sweep_metadata(
    cfg: ScenarioConfig, chain: KinematicChain, ref: ReferencePoint, n_repeats: int
) -> dict:
    return {
        "seed": str(cfg.seed),
        "mode": cfg.mode.value,
        "config_sha256_16": _config_digest(cfg, chain, ref),
        "n_repeats": str(n_repeats),
        "joint_speed_rad_s": f"{cfg.joint_speed:g}",
        "trajectory": "joint-space piecewise-constant velocity",
        "tool_version": __version__,
    }


def _repeat_scenes(
    cfg: ScenarioConfig, chain: KinematicChain, ref: ReferencePoint, n_repeats: int
) -> list[tuple[GroundTruthScene, int]]:
    scenes = []
    for r in range(n_repeats):
        scene_cfg = replace(cfg, seed=_child_seed(cfg.seed, _REPEAT, r))
        scene = generate_scene(scene_cfg, chain, ref)
        scenes.append((scene, _child_seed(cfg.seed, _NOISE, r)))
    return scenes


def _calibrate_scene(
    scene: GroundTruthScene, camera: CameraIntrinsics, mode: Mode, track: Track2D
) -> PoseError:
    req = CalibrationRequest(
        mode=mode,
        chain=scene.chain,
        ref=scene.ref,
        intrinsics=camera,
        track=track,
        joints=scene.joint_log,
        options=CalibrationOptions(min_pairs=4),
    )
    return evaluate(calibrate(req).pose, scene.t_gt)


def run_noise_sweep(
    cfg: ScenarioConfig,
    chain: KinematicChain,
    ref: ReferencePoint,
    sigma_values,
    n_repeats: int = 10,
) -> SweepResult:
    """Calibration error as a function of injected pixel-noise sigma.

    Scenes are shared across sigma values (only the noise substream
    scales), so the sweep isolates the solver's noise response.
    """
    if any(s < 0 for s in sigma_values):
        raise ValueError("sigma values must be nonnegative")
    scenes = _repeat_scenes(cfg, chain, ref, n_repeats)
    cells = []
    for sigma in sigma_values:
        errors = []
        n_fail = 0
        for scene, noise_seed in scenes:
            noisy = corrupt_track(scene.clean_track, NoiseModel(sigma=sigma), noise_seed)
            try:
                errors.append(_calibrate_scene(scene, cfg.camera, cfg.mode, noisy))
            except CalibrationError:
                n_fail += 1
        cells.append(_cell(float(sigma), errors, n_fail))
    return SweepResult("noise", tuple(cells), _sweep_metadata(cfg, chain, ref, n_repeats))


def run_frames_sweep(
    cfg: ScenarioConfig,
    chain: KinematicChain,
    ref: ReferencePoint,
    n_values,
    n_repeats: int = 10,
) -> SweepResult:
    """Calibration error as a function of the number of frames used.

    Frames are subsampled evenly over each scene's usable frames; the
    scene's own noise model is applied once per scene beforehand.
    """
    if min(n_values) < 4:
        raise ValueError("frame counts below 4 cannot be solved")
    scenes = _repeat_scenes(cfg, chain, ref, n_repeats)
    noisy_tracks = [
        corrupt_track(scene.clean_track, cfg.noise, noise_seed)
        for scene, noise_seed in scenes
    ]
    cells = []
    for n in n_values:
        errors = []
        n_fail = 0
        for (scene, _), noisy in zip(scenes, noisy_tracks):
            usable = noisy.frame_index[noisy.visible & noisy.sync]
            if len(usable) < n:
                n_fail += 1
                continue
            picked = usable[np.floor(np.arange(n) * len(usable) / n).astype(int)]
            try:
                errors.append(
                    _calibrate_scene(scene, cfg.camera, cfg.mode, noisy.subset(picked))
                )
            except CalibrationError:
                n_fail += 1
        cells.append(_cell(float(n), errors, n_fail))
    return SweepResult("frames", tuple(cells), _sweep_metadata(cfg, chain, ref, n_repeats))


def export_scene(
    scene: GroundTruthScene, camera: CameraIntrinsics, out_dir, track: Track2D | None = None
) -> dict:
    """Write a scene as the same files a real capture would produce.

    Emits chain.json, joints.csv, track.csv, intrinsics.json and
    ground_truth.json into out_dir and returns the path map, so exported
    scenes feed the regular calibrate pipeline unchanged.  Pass a corrupted
    track to export noisy observations instead of the clean ones.
    """
    from pathlib import Path

    from .fileio import (
        write_chain_file,
        write_intrinsics_file,
        write_joint_log_csv,
        write_pose_file,
        write_track_csv,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "chain": out / "chain.json",
        "joints": out / "joints.csv",
        "track": out / "track.csv",
        "intrinsics": out / "intrinsics.json",
        "ground_truth": out / "ground_truth.json",
    }
    write_chain_file(scene.chain, scene.ref, paths["chain"])
    write_joint_log_csv(scene.joint_log, paths["joints"])
    write_track_csv(scene.clean_track if track is None else track, paths["track"])
    write_intrinsics_file(camera, paths["intrinsics"])
    write_pose_file(scene.t_gt, paths["ground_truth"])
    return paths


def _cell(param: float, errors: list[PoseError], n_fail: int) -> SweepCell:
    return SweepCell(
        param=param,
        e_x_cm=np.array([e.e_x_cm for e in errors]),
        e_y_cm=np.array([e.e_y_cm for e in errors]),
        e_z_cm=np.array([e.e_z_cm for e in errors]),
        e_trans_cm=np.array([e.e_trans_cm for e in errors]),
        e_r_rad=np.array([e.e_r_rad for e in errors]),
        n_fail=n_fail,
    )
