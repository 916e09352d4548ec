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
import numbers
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fileio
from ._version import __version__
from .calibration import (
    CalibrationOptions,
    CalibrationRequest,
    Mode,
    Track2D,
    calibrate,  # noqa: F401  (the benchmark tracer wraps refcal.simulation.calibrate)
    calibrate_each,
    object_points,
    select_frames,
)
from .errors import CalibrationError, UnreachableView
from .fileio import (
    _chain_doc,
    _emit,
    write_chain_file,
    write_intrinsics_file,
    write_joint_log_csv,
    write_pose_file,
    write_track_csv,
)
from .geometry import (
    CameraIntrinsics,
    Pose,
    apply,
    compose,
    invert_stack,
    pixels,
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
    """Zero-mean Gaussian pixel noise with standard deviation sigma."""

    sigma: float = 0.0

    def __post_init__(self):
        real = isinstance(self.sigma, numbers.Real) and not isinstance(self.sigma, bool)
        if not (real and 0 <= self.sigma < math.inf):
            raise ValueError(f"sigma must be finite and nonnegative, got sigma={self.sigma}")


def _default_camera() -> CameraIntrinsics:
    return CameraIntrinsics.from_horizontal_fov(60.0, 1920, 1080)


# Joint-velocity norm. The wider the reference point sweeps the workspace,
# the better conditioned the solve; 1.2 rad/s spreads a 7-joint arm's tip
# over most of its reach within a 10 s capture.
JOINT_SPEED = 1.2
N_DIRECTION_SWITCHES = 10  # constant-velocity segments per trajectory
RADIUS_RANGE = (1.0, 2.5)  # eye-on-base shell (m)
ELEVATION_RANGE = (math.radians(10.0), math.radians(60.0))
EIH_OFFSET_MAX = 0.15  # eye-in-hand mount offset (m)
EIH_TILT_MAX = math.radians(30.0)
DUAL_VIEW_ANCHORS = (0.1, 0.3, 0.5, 0.7, 0.9)  # trajectory fractions


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    mode: Mode = Mode.EYE_ON_BASE
    fps: float = 30.0
    duration: float = 10.0
    camera: CameraIntrinsics = field(default_factory=_default_camera)
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got seed={seed}")
        for name, value in (("fps", self.fps), ("duration", self.duration)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {name}={value}")
        if not 0.5 < self.fps * self.duration <= 10**6 + 0.5:
            raise ValueError(
                f"fps * duration must give from 1 to 10**6 frames, "
                f"got fps={self.fps} and duration={self.duration}"
            )

    @property
    def n_frames(self) -> int:
        return int(round(self.fps * self.duration))


@dataclass(frozen=True)
class GroundTruthScene:
    """A simulated capture with its exact camera transform.

    t_gt is camera-to-base for eye-on-base scenes and
    camera-to-end-effector for eye-in-hand scenes.  Visible frames of
    clean_track reproject exactly from t_gt and the object points of the
    scene's mode, ``object_points(mode, chain, ref, joint_log.positions)``.
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
        try:  # x**2 rounds unlike x * x; it raises where a square overflows
            return math.sqrt(self.e_x_cm**2 + self.e_y_cm**2 + self.e_z_cm**2)
        except OverflowError:
            return math.inf


def evaluate(t_est: Pose, t_gt: Pose) -> PoseError:
    ex, ey, ez = translation_error(t_est, t_gt) * 100.0
    return PoseError(float(ex), float(ey), float(ez), rotation_error(t_est, t_gt))


def _trajectory(chain: KinematicChain, cfg: ScenarioConfig, rng: np.random.Generator) -> JointLog:
    """Piecewise-constant random joint velocities, clamped to limits.

    The start lies in the middle 40% of each limited joint's range and
    within +-pi/2 for a joint without limits.
    """
    n_joints = chain.n_actuated
    n = cfg.n_frames
    dt = 1.0 / cfg.fps
    seg_len = cfg.duration / N_DIRECTION_SWITCHES
    lo, hi = chain.limits
    limited = np.isfinite(hi - lo)
    margin = np.where(limited, 0.3 * (hi - lo), 0.0)
    q = rng.uniform(
        np.where(limited, lo, -math.pi / 2) + margin, np.where(limited, hi, math.pi / 2) - margin
    )
    segment = np.minimum((np.arange(n) * dt / seg_len).astype(np.int64), N_DIRECTION_SWITCHES - 1)
    starts = np.flatnonzero(np.diff(segment, prepend=-1))  # one direction drawn per segment
    directions = rng.standard_normal((len(starts), n_joints))
    directions /= np.maximum(_norms(directions), 1e-12)[:, None]
    steps = JOINT_SPEED * directions * dt
    positions = np.empty((n, n_joints))
    positions[:1] = q
    for start, stop, step in zip(starts, [*starts[1:], n], steps):
        # The velocity is constant over a segment, so a joint clamped at a limit
        # stays there: clipping the running sum once equals clipping each step.
        walk = positions[max(start, 1) - 1 : stop]  # from the frame before; frame 0 is the start
        walk[1:] = step
        np.cumsum(walk, axis=0, out=walk)
        np.clip(walk[1:], lo, hi, out=walk[1:])
    return JointLog(
        frame_index=np.arange(n, dtype=np.int64),
        timestamps=np.arange(n) * dt,
        positions=positions,
    )


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of v (M, D), bit for bit np.linalg.norm
    of each row: both take the BLAS dot product."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


_UP = np.array([0.0, 0.0, 1.0])
_NORTH = np.array([0.0, 1.0, 0.0])


def _look_at(positions: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-to-base rotations (M, 3, 3) of cameras at positions (M, 3),
    each z axis toward target, zero roll (image y axis as downward as the
    geometry allows)."""
    fwd = np.asarray(target, dtype=float) - positions
    norm = _norms(fwd)
    if np.any(norm < 1e-12):
        raise ValueError("camera position coincides with the look-at target")
    z = fwd / norm[:, None]
    y = -_UP + (z @ _UP)[:, None] * z
    ynorm = _norms(y)
    flat = ynorm < 1e-9
    if flat.any():
        # Looking straight up/down: pick an arbitrary horizontal image y.
        y[flat] = _NORTH - (z[flat] @ _NORTH)[:, None] * z[flat]
        ynorm[flat] = _norms(y[flat])
    y /= ynorm[:, None]
    return np.stack([np.cross(y, z), y, z], axis=-1)


def _shell_cameras(
    target: np.ndarray, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n cameras on the spherical shell around the base, aimed at target:
    camera-to-base rotations (n, 3, 3) and positions (n, 3).  Each draws
    its radius, elevation and azimuth in turn."""
    radius, elevation, azimuth = rng.uniform(
        (RADIUS_RANGE[0], ELEVATION_RANGE[0], 0.0),
        (RADIUS_RANGE[1], ELEVATION_RANGE[1], 2.0 * math.pi),
        (n, 3),
    ).T
    horizontal = np.cos(elevation)
    direction = np.stack(
        [horizontal * np.cos(azimuth), horizontal * np.sin(azimuth), np.sin(elevation)], axis=-1
    )
    positions = radius[:, None] * direction
    return _look_at(positions, target), positions


def _hand_cameras(
    target: np.ndarray, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n cameras mounted near the end-effector origin, aimed at target (in
    the end-effector frame) and then tilted by up to EIH_TILT_MAX:
    camera-to-end-effector rotations (n, 3, 3) and positions (n, 3).  Each
    draws its offset direction, offset length, tilt axis and tilt angle in
    turn."""
    draws = np.empty((n, 8))
    for row in draws:
        row[:3] = rng.standard_normal(3)
        row[3] = rng.uniform(0.0, EIH_OFFSET_MAX)
        row[4:7] = rng.standard_normal(3)
        row[7] = rng.uniform(0.0, EIH_TILT_MAX)
    offset, axis = draws[:, :3], draws[:, 4:7]
    offset *= (draws[:, 3] / np.maximum(_norms(offset), 1e-12))[:, None]
    axis /= np.maximum(_norms(axis), 1e-12)[:, None]
    return _look_at(offset, target) @ rotation_about_axis(axis, draws[:, 7]), offset


def _project_visible(k: CameraIntrinsics, pc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixels of camera-frame points pc (..., 3), NaN at or behind the camera
    plane, and whether each lands inside the image."""
    uv, front = pixels(k, pc)
    u, v = uv[..., 0], uv[..., 1]
    return uv, front & (u >= 0) & (u < k.width) & (v >= 0) & (v < k.height)


def _scene(
    cfg: ScenarioConfig,
    chain: KinematicChain,
    ref: ReferencePoint,
    log: JointLog,
    t_gt: Pose,
    points: np.ndarray,
) -> GroundTruthScene:
    """The scene whose clean track projects the (N, 3) object points through
    t_gt, with honest visibility flags.  Every frame is flagged as a
    synchronization frame: the simulator has no capture latency."""
    uv, visible = _project_visible(cfg.camera, apply(t_gt, points))
    track = Track2D(log.frame_index, uv, visible, np.ones(log.n_frames, dtype=bool))
    return GroundTruthScene(chain, ref, t_gt, log, track)


def _placed_scene(
    cfg: ScenarioConfig,
    chain: KinematicChain,
    ref: ReferencePoint,
    log: JointLog,
    points: np.ndarray,
    camera,
    target: np.ndarray,
) -> GroundTruthScene:
    """The scene from the camera placement, of 20 drawn by
    camera(target, rng, 20), that sees the object points in the most
    frames; a real capture frames the point deliberately.  The first
    placement that sees at least half the frames wins outright; otherwise
    the first with the most visible frames does."""
    placements = camera(target, _substream(cfg.seed, _PLACEMENT), 20)
    rotations, translations = invert_stack(*placements)
    pc = points @ rotations.transpose(0, 2, 1) + translations[:, None, :]  # (20, N, 3)
    n_vis = _project_visible(cfg.camera, pc)[1].sum(axis=1)
    reached = np.flatnonzero(n_vis >= log.n_frames // 2)
    pick = int(reached[0]) if len(reached) else int(np.argmax(n_vis))
    if n_vis[pick] == 0:
        raise UnreachableView(
            "reference point never visible after 20 camera placements; "
            "try a wider-angle camera or another seed"
        )
    return _scene(cfg, chain, ref, log, Pose(rotations[pick], translations[pick]), points)


def generate_scene(
    cfg: ScenarioConfig, chain: KinematicChain, ref: ReferencePoint
) -> GroundTruthScene:
    """Sample one reproducible scene for the configured mode.

    The camera sits on the shell around the base (eye-on-base) or on the
    end-effector (eye-in-hand), aimed at the mean object point across the
    whole trajectory so the point stays in view as the arm moves.  The
    placement is picked from 20 draws; UnreachableView is raised when none
    sees the reference point.
    """
    log = _trajectory(chain, cfg, _substream(cfg.seed, _TRAJECTORY))
    points = object_points(cfg.mode, chain, ref, log.positions)
    camera = _shell_cameras if cfg.mode is Mode.EYE_ON_BASE else _hand_cameras
    return _placed_scene(cfg, chain, ref, log, points, camera, points.mean(axis=0))


def generate_dual_view_scenes(
    cfg: ScenarioConfig,
    chain: KinematicChain,
    arm_ref: ReferencePoint,
    base_ref: ReferencePoint,
) -> tuple[GroundTruthScene, list[tuple[int, GroundTruthScene]]]:
    """One world seen both ways: a fixed camera watching the arm, plus, for
    each anchor frame (at the DUAL_VIEW_ANCHORS fractions of the
    trajectory), the same camera bolted to the end-effector at that
    instant and re-simulated as an arm-mounted camera tracking a base point.

    The bolted camera's mount equals (camera-to-base) . (EE-to-base FK at
    the anchor); estimates from the two pipelines must therefore agree
    through exactly that composition at the anchor frame.  The fixed camera
    is placed as in generate_scene, aimed between the arm trajectory and
    the base point so both stay in view.
    """
    log = _trajectory(chain, cfg, _substream(cfg.seed, _TRAJECTORY))
    p_arm = object_points(Mode.EYE_ON_BASE, chain, arm_ref, log.positions)
    base_in_ee = object_points(Mode.EYE_IN_HAND, chain, base_ref, log.positions)
    target = 0.5 * (p_arm.mean(axis=0) + base_ref.offset)
    eob_scene = _placed_scene(cfg, chain, arm_ref, log, p_arm, _shell_cameras, target)

    anchors = [min(int(frac * log.n_frames), log.n_frames - 1) for frac in DUAL_VIEW_ANCHORS]
    rotations, translations = forward_kinematics(chain, log.positions[anchors])
    eih_scenes = []
    for anchor, r, t in zip(anchors, rotations[:, -1], translations[:, -1]):
        t_ce = compose(eob_scene.t_gt, Pose(r, t))
        eih_scenes.append((anchor, _scene(cfg, chain, base_ref, log, t_ce, base_in_ee)))
    return eob_scene, eih_scenes


def corrupt_track(track: Track2D, noise: NoiseModel, seed: int) -> Track2D:
    """Add i.i.d. Gaussian offsets to the pixels of visible frames.

    Flags, frame indices, and invisible rows are untouched; the result is
    deterministic under the seed, and for a fixed seed the injected offsets
    scale linearly with sigma (common random numbers across noise levels).
    """
    return _offset(track, noise.sigma, _unit_noise(track, seed))


def _unit_noise(track: Track2D, seed: int) -> np.ndarray:
    """The standard normal draws (visible frames, 2) that corrupt_track
    scales by sigma."""
    return _substream(seed, _NOISE).standard_normal((int(track.visible.sum()), 2))


def _offset(track: Track2D, sigma: float, unit: np.ndarray) -> Track2D:
    """The track with sigma times the draws unit (visible frames, 2) added
    to its visible pixels; a sigma that takes a pixel past the float range
    raises ValueError."""
    uv = np.array(track.uv)
    vis = track.visible
    with np.errstate(over="ignore"):
        noisy = uv[vis] + sigma * unit
    if not np.isfinite(noisy).all():
        raise ValueError(f"sigma={sigma} takes noisy pixels past the float range")
    uv[vis] = noisy
    return Track2D(track.frame_index, uv, track.visible, track.sync)


@dataclass(frozen=True)
class SweepCell:
    """The errors of the solved repeats for one sweep parameter value, and
    how many repeats failed."""

    param: float
    errors: tuple[PoseError, ...]
    n_fail: int

    def mean(self, name: str) -> float:
        """Mean of one PoseError field (e.g. 'e_trans_cm') over the solved
        repeats; NaN when every repeat failed."""
        values = [getattr(e, name) for e in self.errors]
        return float(np.mean(values)) if values else math.nan

    @property
    def stderr_e_trans_cm(self) -> float:
        n = len(self.errors)
        if n < 2:
            return math.nan
        return float(np.std([e.e_trans_cm for e in self.errors], ddof=1) / math.sqrt(n))


@dataclass(frozen=True)
class SweepResult:
    kind: str
    cells: tuple[SweepCell, ...]
    metadata: dict

    def to_csv(self, path) -> None:
        # Called through the module, not a name bound at import, so a wrapper
        # set on refcal.fileio.write_sweep_csv (the benchmark tracer's) sees it.
        fileio.write_sweep_csv(self, path)


def _config_digest(cfg: ScenarioConfig, chain: KinematicChain, ref: ReferencePoint) -> str:
    """Digest of everything that shapes a sweep: the whole scenario config
    and the chain file's content, both in their canonical serialized form."""
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
        "joint_speed_rad_s": f"{JOINT_SPEED:g}",
        "trajectory": "joint-space piecewise-constant velocity",
        "tool_version": __version__,
    }


def _sweep(
    kind: str,
    cfg: ScenarioConfig,
    chain: KinematicChain,
    ref: ReferencePoint,
    params,
    n_repeats: int,
    observe,
) -> SweepResult:
    """Calibrate each of n_repeats scenes once per parameter value, from the
    track observe(scene, noise_seed)(param) returns; a CalibrationError
    counts as a failed repeat.  The scenes are shared across values, and
    observe runs once per scene, so per-scene work (a noise draw) is done
    once.  Every scene and value runs in one calibrate_each call: one
    ragged PnP stack for the whole sweep."""
    if not params:
        raise ValueError(f"a {kind} sweep needs at least one value, got {params!r}")
    if n_repeats < 1:
        raise ValueError(f"a sweep needs at least 1 repeat, got {n_repeats}")
    scenes = []
    for r in range(n_repeats):
        scene_cfg = replace(cfg, seed=_child_seed(cfg.seed, _REPEAT, r))
        scenes.append((generate_scene(scene_cfg, chain, ref), _child_seed(cfg.seed, _NOISE, r)))
    options = CalibrationOptions(min_pairs=4)
    errors: list[list[PoseError]] = [[] for _ in params]
    n_fail = [0] * len(params)
    members, slots = [], []
    for scene, noise_seed in scenes:
        req = CalibrationRequest(
            cfg.mode, chain, ref, cfg.camera, scene.clean_track, scene.joint_log, options
        )
        track_at = observe(scene, noise_seed)
        for p, param in enumerate(params):
            try:
                members.append((req, track_at(param)))
            except CalibrationError:
                n_fail[p] += 1
                continue
            slots.append((p, scene.t_gt))
    for (p, t_gt), result in zip(slots, calibrate_each(members)):
        if isinstance(result, CalibrationError):
            n_fail[p] += 1
        else:
            errors[p].append(evaluate(result.pose, t_gt))
    cells = tuple(SweepCell(float(v), tuple(e), f) for v, e, f in zip(params, errors, n_fail))
    return SweepResult(kind, cells, _sweep_metadata(cfg, chain, ref, n_repeats))


def run_noise_sweep(
    cfg: ScenarioConfig,
    chain: KinematicChain,
    ref: ReferencePoint,
    sigma_values,
    n_repeats: int = 10,
) -> SweepResult:
    """Calibration error as a function of injected pixel-noise sigma.

    Scenes are shared across sigma values (only the noise substream
    scales), so the sweep isolates the solver's noise response.  Each
    scene's noise is drawn once and scaled by each sigma: the tracks equal
    corrupt_track's bit for bit.
    """
    sigma_values = list(sigma_values)
    for sigma in sigma_values:
        NoiseModel(sigma=sigma)  # rejects a bad sigma before any scene is made

    def observe(scene, noise_seed):
        unit = _unit_noise(scene.clean_track, noise_seed)
        return lambda sigma: _offset(scene.clean_track, sigma, unit)

    return _sweep("noise", cfg, chain, ref, sigma_values, n_repeats, observe)


def run_frames_sweep(
    cfg: ScenarioConfig,
    chain: KinematicChain,
    ref: ReferencePoint,
    n_values,
    n_repeats: int = 10,
) -> SweepResult:
    """Calibration error as a function of the number of frames used.

    Frames are subsampled evenly over each scene's usable frames, after the
    scene's own noise model is applied; a scene with fewer usable frames
    than asked for counts as a failed repeat.
    """
    n_values = list(n_values)
    if any(n < 4 for n in n_values):
        raise ValueError("frame counts below 4 cannot be solved")

    def observe(scene, noise_seed):
        noisy = corrupt_track(scene.clean_track, cfg.noise, noise_seed)

        def track_at(n):
            usable, _ = select_frames(noisy, scene.joint_log, CalibrationOptions(min_pairs=n))
            return noisy.subset(usable[np.floor(np.arange(n) * len(usable) / n).astype(int)])

        return track_at

    return _sweep("frames", cfg, chain, ref, n_values, n_repeats, observe)


def export_scene(
    scene: GroundTruthScene, camera: CameraIntrinsics, out_dir, track: Track2D | None = None
) -> dict:
    """Write a scene as the same files a real capture would produce.

    Emits chain.json, joints.csv, track.csv, intrinsics.json and
    ground_truth.json into out_dir and returns the path map, so exported
    scenes feed the regular calibrate pipeline unchanged.  Pass a corrupted
    track to export noisy observations instead of the clean ones.
    """
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

