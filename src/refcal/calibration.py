"""Eye-on-base and eye-in-hand calibration pipelines, plus an AX=XB baseline.

Both pipelines pair a 2D track of a reference point with per-frame joint
readings, assemble 2D-3D correspondences through forward kinematics, and
hand them to the PnP solver:

- eye-on-base: the tracked point rides on the arm; its base-frame position
  comes from FK and the solve yields the camera-to-base transform.
- eye-in-hand: the tracked point sits on the robot base; expressing it in
  the end-effector frame turns the problem into the dual eye-on-base solve
  and yields the camera-to-end-effector transform.

Pairing is by frame index only.  Synchronization frames are captured with
the arm at rest, so interpolating joint states across timestamps would
reintroduce exactly the asynchrony the sync mechanism removes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, InsufficientMotion, TooFewPairs
from .geometry import CameraIntrinsics, Pose, freeze, log_so3, orthonormalize
from .kinematics import (
    JointLog,
    KinematicChain,
    ReferencePoint,
    base_point_in_ee_frame,
    reference_point_in_base,
)
from .pnp import PnPSolution, solve_pnp


class Mode(enum.Enum):
    EYE_ON_BASE = "eye_on_base"
    EYE_IN_HAND = "eye_in_hand"


NOT_VISIBLE = "not_visible"
NOT_SYNCED = "not_synced"
MISSING_JOINT = "missing_joint"


@dataclass(frozen=True)
class Track2D:
    """Per-frame tracked pixel positions with visibility and sync flags.

    Pixels may lie outside the image (trackers report out-of-frame
    estimates); they must be finite wherever the point is flagged visible.
    """

    frame_index: np.ndarray
    uv: np.ndarray
    visible: np.ndarray
    sync: np.ndarray

    def __post_init__(self):
        fi = freeze(self, "frame_index", np.int64, shape=-1)
        uv = freeze(self, "uv", shape=(-1, 2))
        vis = freeze(self, "visible", bool, shape=-1)
        sync = freeze(self, "sync", bool, shape=-1)
        if not (len(fi) == len(uv) == len(vis) == len(sync)):
            raise ValueError("track arrays must have equal length")
        if len(fi) > 1 and np.any(np.diff(fi) <= 0):
            raise ValueError("track frame indices must be strictly increasing")
        if np.any(~np.isfinite(uv[vis])):
            raise ValueError("visible frames must carry finite pixel coordinates")

    @property
    def n_frames(self) -> int:
        return len(self.frame_index)

    def subset(self, frame_numbers) -> "Track2D":
        """Restrict to the given frame numbers (order preserved)."""
        mask = np.isin(self.frame_index, np.asarray(frame_numbers, dtype=np.int64))
        return Track2D(self.frame_index[mask], self.uv[mask], self.visible[mask], self.sync[mask])


@dataclass(frozen=True)
class CalibrationOptions:
    use_only_sync: bool = True
    min_pairs: int = 10
    robust: bool = False

    def __post_init__(self):
        if self.min_pairs < 4:
            raise ValueError(f"min_pairs must be at least 4, got {self.min_pairs}")


@dataclass(frozen=True)
class CalibrationRequest:
    """Everything one calibration needs.

    ``points``, when given, holds the object point of every joint-log row,
    shape (joints.n_frames, 3), as ``object_points(mode, chain, ref,
    joints.positions)`` returns them; ``calibrate`` then uses them instead of
    running forward kinematics.  A simulator that projected its track from
    those points passes them; a capture from files leaves it None.
    """

    mode: Mode
    chain: KinematicChain
    ref: ReferencePoint
    intrinsics: CameraIntrinsics
    track: Track2D
    joints: JointLog
    options: CalibrationOptions = field(default_factory=CalibrationOptions)
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.points is None:
            return
        pts = freeze(self, "points")
        if pts.shape != (self.joints.n_frames, 3):
            raise ValueError(
                f"points must have shape ({self.joints.n_frames}, 3), one per joint-log "
                f"row, got {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")


@dataclass(frozen=True)
class CalibrationResult:
    """Estimated pose (camera-to-base or camera-to-end-effector) plus audit trail."""

    pose: Pose
    solution: PnPSolution
    n_pairs_used: int
    dropped: tuple[tuple[int, str], ...]


def select_frames(
    track: Track2D, joints: JointLog, options: CalibrationOptions | None = None
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Frame numbers usable for calibration, plus every dropped frame with
    its reason.  Each track frame lands in exactly one of the two lists."""
    options = options or CalibrationOptions()
    frames = track.frame_index
    missing = ~np.isin(frames, joints.frame_index)
    hidden = ~track.visible
    unsynced = ~track.sync & options.use_only_sync
    ok = ~(missing | hidden | unsynced)
    used = frames[ok]
    # The first failing check names the reason: missing joint, then not visible, then not synced.
    reason = np.where(missing, 0, np.where(hidden, 1, 2))[~ok]
    names = (MISSING_JOINT, NOT_VISIBLE, NOT_SYNCED)
    dropped = [(f, names[r]) for f, r in zip(frames[~ok].tolist(), reason.tolist())]
    if len(used) < options.min_pairs:
        raise TooFewPairs(len(used), options.min_pairs, dropped)
    return used, dropped


def object_points(
    mode: Mode, chain: KinematicChain, ref: ReferencePoint, q: np.ndarray
) -> np.ndarray:
    """The reference point at joint readings q (N, J), as (N, 3) points in
    the frame the camera pose is solved against: the base frame for
    eye-on-base, the end-effector frame for eye-in-hand.

    Eye-in-hand needs the reference point on the base link; its
    end-effector-frame coordinates at each frame come from the inverted FK
    pose.
    """
    if mode is Mode.EYE_ON_BASE:
        return reference_point_in_base(chain, ref, q)
    _check_base_reference(ref)
    return base_point_in_ee_frame(chain, q, ref.offset)


def _check_base_reference(ref: ReferencePoint) -> None:
    if ref.link_index != 0:
        raise ValueError(
            "eye-in-hand needs the reference point on the base link (link 0), "
            f"got link {ref.link_index}"
        )


def calibrate(req: CalibrationRequest) -> CalibrationResult:
    """Solve the camera-to-base transform (eye-on-base, camera fixed in the
    workspace) or the camera-to-end-effector transform (eye-in-hand, camera
    on the arm) from the 2D-3D pairs of the usable frames."""
    (result,) = calibrate_each(req, [req.track])
    if isinstance(result, CalibrationError):
        raise result
    return result


def calibrate_each(req: CalibrationRequest, tracks) -> list[CalibrationResult | CalibrationError]:
    """Calibrate ``req`` once per track of a sequence, in place of its own:
    entry i is the CalibrationResult that ``calibrate(replace(req,
    track=tracks[i]))`` returns or the CalibrationError it raises.  Other
    errors (an eye-in-hand request without a base reference point) are raised.

    Tracks that select the same frames differ only in their pixels, so they
    share one stacked PnP solve: object points, degeneracy check and control
    points are computed once, and each track still gets exactly the pose it
    would get alone.
    """
    results: list = [None] * len(tracks)
    groups: dict = {}  # used frames' bytes: (used frames, [(track index, dropped)])
    for i, track in enumerate(tracks):
        try:
            used, dropped = select_frames(track, req.joints, req.options)
        except CalibrationError as exc:
            results[i] = exc
            continue
        groups.setdefault(used.tobytes(), (used, []))[1].append((i, tuple(dropped)))
    for used, members in groups.values():
        # Both frame-index arrays are strictly increasing and contain every used frame.
        group = [tracks[i] for i, _ in members]
        uv = np.array([t.uv[np.searchsorted(t.frame_index, used)] for t in group])
        try:
            points = _pair_points(req, used)
            solutions = solve_pnp(points, uv, req.intrinsics, robust=req.options.robust)
        except CalibrationError as exc:
            solutions = [exc] * len(members)
        for (i, dropped), sol in zip(members, solutions):
            if isinstance(sol, CalibrationError):
                results[i] = sol
            else:
                results[i] = CalibrationResult(sol.pose, sol, len(used), dropped)
    return results


def _pair_points(req: CalibrationRequest, used: np.ndarray) -> np.ndarray:
    """The object points (len(used), 3) of the used frames: the request's
    given points, or forward kinematics at their joint readings."""
    rows = np.searchsorted(req.joints.frame_index, used)
    if req.points is None:
        return object_points(req.mode, req.chain, req.ref, req.joints.positions[rows])
    if req.mode is Mode.EYE_IN_HAND:
        _check_base_reference(req.ref)
    return req.points[rows]


def solve_axxb(a_list, b_list) -> Pose:
    """Classical two-stage hand-eye solve of A_i X = X B_i.

    Rotation first, as the least-squares alignment of the motion rotation
    vectors; then translation from the stacked linear system
    (R_Ai - I) t = R_X t_Bi - t_Ai.  This is the standard marker-based
    formulation; the A_i come from detected marker poses and the B_i from
    robot motions, neither of which this toolkit produces itself.
    """
    if len(a_list) != len(b_list):
        raise ValueError(f"got {len(a_list)} camera motions but {len(b_list)} robot motions")
    if len(a_list) < 2:
        raise InsufficientMotion(f"need at least 2 motion pairs, got {len(a_list)}")
    alphas = np.array([log_so3(a.rotation) for a in a_list])
    betas = np.array([log_so3(b.rotation) for b in b_list])
    angles = np.linalg.norm(alphas, axis=1)
    axes = [alphas[i] / angles[i] for i in range(len(a_list)) if angles[i] > 1e-8]
    diverse = any(
        np.linalg.norm(np.cross(axes[i], axes[j])) >= 1e-6
        for i in range(len(axes))
        for j in range(i + 1, len(axes))
    )
    if not diverse:
        raise InsufficientMotion(
            "rotation axes of the motions are parallel; include motions "
            "rotating about at least two distinct axes"
        )
    rot = orthonormalize(alphas.T @ betas)
    c = np.vstack([a.rotation - np.eye(3) for a in a_list])
    rhs = np.concatenate([rot @ b.translation - a.translation for a, b in zip(a_list, b_list)])
    t, *_ = np.linalg.lstsq(c, rhs, rcond=None)
    return Pose(rot, t)
