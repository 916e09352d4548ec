"""Serial kinematic chains and forward kinematics for a tracked point.

A chain is an ordered list of joints; joint ``i`` connects link ``i`` to
link ``i + 1``, and link 0 is the robot base.  Each joint carries a fixed
origin transform (parent link frame to joint frame) and, unless fixed,
moves about/along a unit axis expressed in the joint frame.  This per-joint
(origin, axis, kind) form subsumes DH tables: one DH row maps to one origin
plus a z-axis revolute or prismatic joint.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, JointLimitWarning
from .geometry import Pose, apply_stack, compose_stack, freeze, invert_stack, skew

REVOLUTE = "revolute"
PRISMATIC = "prismatic"
FIXED = "fixed"
JOINT_KINDS = (REVOLUTE, PRISMATIC, FIXED)


@dataclass(frozen=True)
class Joint:
    name: str
    kind: str
    origin: Pose
    axis: np.ndarray = (0.0, 0.0, 1.0)
    limits: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in JOINT_KINDS:
            raise ValueError(f"joint {self.name!r}: unknown kind {self.kind!r}")
        ax = freeze(self, "axis", shape=3)
        unit = self.kind == FIXED or abs(math.hypot(*ax) - 1.0) <= 1e-9
        if not (unit and np.isfinite(ax).all()):
            raise ValueError(f"joint {self.name!r}: axis must be finite, of unit norm unless fixed")
        if self.limits is not None:
            lo, hi = self.limits
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"joint {self.name!r}: limits must be finite and satisfy lo < hi")
            object.__setattr__(self, "limits", (float(lo), float(hi)))

    @property
    def actuated(self) -> bool:
        return self.kind != FIXED


@dataclass(frozen=True)
class KinematicChain:
    """Serial chain; branching is not representable and thus rejected at load."""

    name: str
    joints: tuple[Joint, ...]

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        names = [j.name for j in self.joints]
        if len(set(names)) != len(names):
            raise ValueError(f"chain {self.name!r}: duplicate joint names")

    @property
    def n_links(self) -> int:
        """Number of link frames, including the base (index 0)."""
        return len(self.joints) + 1

    @property
    def n_actuated(self) -> int:
        return sum(1 for j in self.joints if j.actuated)

    @property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper limits (J,) of the actuated joints, -inf and +inf
        where a joint has none."""
        bounds = [j.limits or (-np.inf, np.inf) for j in self.joints if j.actuated]
        lo, hi = np.array(bounds, dtype=float).reshape(-1, 2).T
        return lo, hi


@dataclass(frozen=True)
class ReferencePoint:
    """A point rigidly attached to a link; link 0 is the base."""

    link_index: int
    offset: np.ndarray

    def __post_init__(self):
        if not np.isfinite(freeze(self, "offset", shape=3)).all():
            raise ValueError(f"reference point offset must be finite, got {self.offset}")


@dataclass(frozen=True)
class JointLog:
    """Per-frame joint readings: frame index, timestamp, actuated positions."""

    frame_index: np.ndarray
    timestamps: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        fi = freeze(self, "frame_index", np.int64, shape=-1)
        ts = freeze(self, "timestamps", shape=-1)
        pos = freeze(self, "positions", ndmin=2)
        if not (len(fi) == len(ts) == len(pos)):
            raise ValueError("frame_index, timestamps and positions must have equal length")
        if len(fi) > 1 and np.any(np.diff(fi) <= 0):
            raise ValueError("frame indices must be strictly increasing")

    @property
    def n_frames(self) -> int:
        return len(self.frame_index)

    @property
    def n_joints(self) -> int:
        return self.positions.shape[1] if self.n_frames else 0


def _check_limits(chain: KinematicChain, q: np.ndarray) -> None:
    """One warning per out-of-limit reading of q (N, J), frame by frame in joint order."""
    actuated = [j for j in chain.joints if j.actuated]
    lo, hi = chain.limits
    limited = np.array([j.limits is not None for j in actuated], dtype=bool)
    for row, c in zip(*np.nonzero(limited & ~((q >= lo) & (q <= hi)))):
        joint, value = actuated[c], float(q[row, c])
        warnings.warn(
            f"joint {joint.name!r} reading {value:.6g} outside [{lo[c]:.6g}, {hi[c]:.6g}]",
            JointLimitWarning,
            stacklevel=3,
        )


def forward_kinematics(
    chain: KinematicChain, q: np.ndarray
) -> list[Pose] | tuple[np.ndarray, np.ndarray]:
    """Base-to-link transforms of every link frame, index 0 being the base.

    q of shape (N, J) gives stacked rotations (N, L, 3, 3) and translations
    (N, L, 3); one reading q of shape (J,) gives that frame as a list of L
    Poses.  Out-of-limit values warn with a JointLimitWarning and are used
    as they are: logged data may carry sensor noise.
    """
    q = np.asarray(q, dtype=float)
    rows = np.atleast_2d(q)
    if rows.ndim != 2 or rows.shape[1] != chain.n_actuated:
        raise DimensionMismatch(
            f"chain {chain.name!r} has {chain.n_actuated} actuated joints, "
            f"got joint values of shape {q.shape}"
        )
    _check_limits(chain, rows)
    n = len(rows)
    kinds = [j.kind for j in chain.joints if j.actuated]
    revolute = [j for j in chain.joints if j.kind == REVOLUTE]
    origins = np.array([j.origin.rotation for j in revolute]).reshape(-1, 1, 3, 3)
    k = skew(np.array([j.axis for j in revolute]).reshape(-1, 1, 3))
    theta = rows[:, [c for c, kind in enumerate(kinds) if kind == REVOLUTE]].T[..., None, None]
    # Each revolute joint's origin folded into its motion, all in one
    # broadcast: origin . Rodrigues(axis, theta), (R, N, 3, 3).
    turned = iter(
        origins + np.sin(theta) * (origins @ k) + (1.0 - np.cos(theta)) * (origins @ (k @ k))
    )
    slid = iter(rows[:, [c for c, kind in enumerate(kinds) if kind == PRISMATIC]].T)
    rotations = np.empty((n, chain.n_links, 3, 3))
    translations = np.empty((n, chain.n_links, 3))
    rotations[:, 0], translations[:, 0] = np.eye(3), 0.0
    for i, joint in enumerate(chain.joints):
        local_r, local_t = joint.origin.rotation, joint.origin.translation
        if joint.kind == REVOLUTE:
            local_r = next(turned)
        elif joint.kind == PRISMATIC:
            local_t = local_t + next(slid)[:, None] * (local_r @ joint.axis)
        rotations[:, i + 1], translations[:, i + 1] = compose_stack(
            rotations[:, i], translations[:, i], local_r, local_t
        )
    if q.ndim < 2:
        return [Pose(r, t) for r, t in zip(rotations[0], translations[0])]
    return rotations, translations


def end_effector_pose(chain: KinematicChain, q: np.ndarray) -> Pose:
    """Pose of the last link in the base frame (the FK T mapping EE to base)."""
    return forward_kinematics(chain, np.reshape(q, -1))[-1]


def reference_point_in_base(
    chain: KinematicChain, ref: ReferencePoint, q: np.ndarray
) -> np.ndarray:
    """Reference point in base coordinates: (3,) for one reading q of shape
    (J,), (N, 3) for q of shape (N, J)."""
    if not 0 <= ref.link_index < chain.n_links:
        raise ValueError(
            f"reference link index {ref.link_index} out of range for chain with "
            f"{chain.n_links} link frames"
        )
    q = np.asarray(q, dtype=float)
    rotations, translations = forward_kinematics(chain, np.atleast_2d(q))
    k = ref.link_index
    points = apply_stack(rotations[:, k], translations[:, k], ref.offset)
    return points if q.ndim == 2 else points[0]


def base_point_in_ee_frame(
    chain: KinematicChain, q: np.ndarray, p_base: np.ndarray
) -> np.ndarray:
    """Express a base-frame point in the end-effector frame: (3,) for one
    reading q of shape (J,), (N, 3) for q of shape (N, J).

    This is the algebraic form of reversing the chain topology: the fixed
    base point moves in the end-effector frame as the robot moves.
    """
    q = np.asarray(q, dtype=float)
    rotations, translations = forward_kinematics(chain, np.atleast_2d(q))
    points = apply_stack(*invert_stack(rotations[:, -1], translations[:, -1]), p_base)
    return points if q.ndim == 2 else points[0]
