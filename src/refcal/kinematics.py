"""Serial kinematic chains and forward kinematics for a tracked point.

A chain is an ordered list of joints; joint ``i`` connects link ``i`` to
link ``i + 1``, and link 0 is the robot base.  Each joint carries a fixed
origin transform (parent link frame to joint frame) and, unless fixed,
moves about/along a unit axis expressed in the joint frame.  This per-joint
(origin, axis, kind) form subsumes DH tables: one DH row maps to one origin
plus a z-axis revolute or prismatic joint.

Each joint's local transform (origin times motion) is built in one place:
``forward_kinematics`` composes them into every link's pose, and the point
functions carry one point through them without forming any pose.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, JointLimitWarning
from .geometry import Pose, freeze, reproject_drifted, skew

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

    @functools.cached_property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper limits (J,) of the actuated joints, -inf and +inf
        where a joint has none; read-only."""
        bounds = [j.limits or (-np.inf, np.inf) for j in self.joints if j.actuated]
        lo, hi = np.array(bounds, dtype=float).reshape(-1, 2).T
        lo.setflags(write=False)
        hi.setflags(write=False)
        return lo, hi

    @functools.cached_property
    def _links(self) -> "_Links":
        return _Links(self)


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


class _Links:
    """What forward kinematics needs of a chain beyond its joints, built once
    per chain: the origin rotations, each re-projected onto SO(3) if it
    drifts past ORTHONORMAL_TOL; the revolute ones folded with their axes
    made unit, so every local rotation is a rotation to rounding at every
    reading; the prismatic slide directions, the q columns of each kind and
    which joints have limits."""

    def __init__(self, chain: KinematicChain):
        actuated = [j for j in chain.joints if j.actuated]
        revolute = [i for i, j in enumerate(chain.joints) if j.kind == REVOLUTE]
        self.actuated = actuated
        self.limited = np.array([j.limits is not None for j in actuated], dtype=bool)
        self.revolute_cols = [c for c, j in enumerate(actuated) if j.kind == REVOLUTE]
        self.prismatic_cols = [c for c, j in enumerate(actuated) if j.kind == PRISMATIC]
        rotations = np.array([j.origin.rotation for j in chain.joints]).reshape(-1, 3, 3)
        self.rotations = reproject_drifted(rotations)
        origins = self.rotations[revolute][:, None]
        axes = np.array([chain.joints[i].axis for i in revolute]).reshape(-1, 1, 3)
        k = skew(axes / np.linalg.norm(axes, axis=-1, keepdims=True))
        # origin . Rodrigues(axis, theta) = origins + sin(theta) turn1 + (1 - cos(theta)) turn2
        self.origins, self.turn1, self.turn2 = origins, origins @ k, origins @ (k @ k)
        self.slides = [j.origin.rotation @ j.axis for j in chain.joints]


def _readings(chain: KinematicChain, q: np.ndarray) -> np.ndarray:
    """Joint readings q, (J,) or (N, J), as rows (N, J), after their limit
    check: one JointLimitWarning per out-of-limit reading, frame by frame in
    joint order, naming the caller of the public function.  Logged data may
    carry sensor noise, so such readings are used as they are."""
    rows = np.atleast_2d(q)
    if rows.ndim != 2 or rows.shape[1] != chain.n_actuated:
        raise DimensionMismatch(
            f"chain {chain.name!r} has {chain.n_actuated} actuated joints, "
            f"got joint values of shape {q.shape}"
        )
    links = chain._links
    lo, hi = chain.limits
    for row, c in zip(*np.nonzero(links.limited & ~((rows >= lo) & (rows <= hi)))):
        joint, value = links.actuated[c], float(rows[row, c])
        warnings.warn(
            f"joint {joint.name!r} reading {value:.6g} outside [{lo[c]:.6g}, {hi[c]:.6g}]",
            JointLimitWarning,
            stacklevel=3,
        )
    return rows


def _local_transforms(
    chain: KinematicChain, rows: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each joint's transform from its child link to its parent link at the
    readings rows (N, J): a rotation, (3, 3) or (N, 3, 3), and a translation,
    (3,) or (N, 3).  Each rotation is in SO(3) to rounding, from the chain's
    constants as _Links repaired them."""
    links = chain._links
    theta = rows[:, links.revolute_cols].T[..., None, None]
    # Each revolute joint's origin folded into its motion, all in one
    # broadcast: origin . Rodrigues(axis, theta), (R, N, 3, 3).  Summed in
    # place: fresh (R, N, 3, 3) temporaries cost as much as the arithmetic,
    # and IEEE addition commutes, so the bits are those of the plain sum.
    turned = np.sin(theta) * links.turn1
    turned += links.origins
    turned += (1.0 - np.cos(theta)) * links.turn2
    turned, slid = iter(turned), iter(rows[:, links.prismatic_cols].T)
    local = []
    for joint, r, slide in zip(chain.joints, links.rotations, links.slides):
        t = joint.origin.translation
        if joint.kind == REVOLUTE:
            r = next(turned)
        elif joint.kind == PRISMATIC:
            t = t + next(slid)[:, None] * slide
        local.append((r, t))
    return local


def forward_kinematics(
    chain: KinematicChain, q: np.ndarray
) -> list[Pose] | tuple[np.ndarray, np.ndarray]:
    """Base-to-link transforms of every link frame, index 0 being the base:
    each joint's local transform composed onto its parent link's.  The local
    rotations are in SO(3) to rounding (see _Links), so their products are
    too and none is re-projected.

    q of shape (N, J) gives stacked rotations (N, L, 3, 3) and translations
    (N, L, 3); one reading q of shape (J,) gives that frame as a list of L
    Poses.  Out-of-limit values warn with a JointLimitWarning and are used
    as they are: logged data may carry sensor noise.
    """
    q = np.asarray(q, dtype=float)
    rows = _readings(chain, q)
    n = len(rows)
    rotations = np.empty((n, chain.n_links, 3, 3))
    translations = np.empty((n, chain.n_links, 3))
    rotations[:, 0], translations[:, 0] = np.eye(3), 0.0
    for i, (local_r, local_t) in enumerate(_local_transforms(chain, rows)):
        r, t = rotations[:, i], translations[:, i]
        rotations[:, i + 1] = r @ local_r
        translations[:, i + 1] = (r @ local_t[..., None])[..., 0] + t
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
    (J,), (N, 3) for q of shape (N, J).

    No link pose is formed: the offset is carried from its link down to the
    base, x <- R_i x + t_i through each joint's local transform, and agrees
    with applying the forward_kinematics pose to rounding.
    """
    if not 0 <= ref.link_index < chain.n_links:
        raise ValueError(
            f"reference link index {ref.link_index} out of range for chain with "
            f"{chain.n_links} link frames"
        )
    q = np.asarray(q, dtype=float)
    rows = _readings(chain, q)
    x = ref.offset
    for r, t in reversed(_local_transforms(chain, rows)[: ref.link_index]):
        x = np.einsum("...ij,...j->...i", r, x) + t
    return _per_reading(x, q, len(rows))


def base_point_in_ee_frame(
    chain: KinematicChain, q: np.ndarray, p_base: np.ndarray
) -> np.ndarray:
    """Express a base-frame point in the end-effector frame: (3,) for one
    reading q of shape (J,), (N, 3) for q of shape (N, J).

    This is the algebraic form of reversing the chain topology: the fixed
    base point moves in the end-effector frame as the robot moves.  The
    point is carried out from the base, x <- R_i^T (x - t_i) through each
    joint's local transform, and agrees with applying the inverted
    forward_kinematics end-effector pose to rounding.
    """
    q = np.asarray(q, dtype=float)
    rows = _readings(chain, q)
    x = np.asarray(p_base, dtype=float)
    for r, t in _local_transforms(chain, rows):
        x = np.einsum("...ji,...j->...i", r, x - t)
    return _per_reading(x, q, len(rows))


def _per_reading(x: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """A fresh array of the carried point x for each of the n readings of q:
    (n, 3), or (3,) when q is one reading."""
    points = np.broadcast_to(x, (n, 3))
    return np.array(points if q.ndim == 2 else points[0])
