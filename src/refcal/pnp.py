"""Perspective-n-Point pose estimation from 2D-3D correspondences.

The solver is self-contained: a global search of the object-space cost
over SO(3) (SQPnP-style: Gauss-Newton from 18 starts built from the
eigenvectors of its 9 x 9 matrix) provides the one initial pose, and damped
least squares on the pixel reprojection error refines it.  Degeneracy of
the 3D point arrangement is diagnosed before solving; collinear or
too-small point sets are rejected because they admit no well-conditioned
unique pose.

Every stage runs on a ragged stack: M members, each with its own points,
pixels and pair count, laid end to end in structure-of-arrays form
(``RaggedPoints``: x, y, z rows (3, N); pixels as u, v rows (2, N)).  Every
pair counts once.  Member j owns the columns starts[j]:starts[j] + counts[j],
its segment, and every reduction over a member's pairs reads that segment
alone: sums run through ``np.add.reduceat`` over it, and Gram matrices and
rotations through one BLAS product of the member's own columns.  So a
member's result is bit for bit the one it gets in a stack of one, whatever
else the stack holds.  A single problem is solved as a stack of one.

Pose convention: the returned pose maps object-frame points into the
camera frame, so ``project(k, apply(pose, p3))`` reproduces the pixel.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CalibrationError,
    DegenerateConfiguration,
    DivergedBehindCamera,
    EmptyInput,
    NumericalFailure,
)
from .geometry import MIN_DEPTH, CameraIntrinsics, Pose, freeze

WELL_CONDITIONED = "well_conditioned"
NEAR_COLLINEAR = "near_collinear"
NEAR_PLANAR = "near_planar"
DEGENERATE = "degenerate"

# Minimum usable correspondence count: three pairs are theoretically
# sufficient but do not yield reliable solutions in practice.
MIN_POINTS = 4

# Singular-value ratio below which a point cloud counts as flat/thin
# (a 2 cm-thick scatter along a 1 m sweep trips it).
SPREAD_RATIO_TOL = 0.02

# Floor on the rms extent (meters) along the second principal axis.  Below
# it, pixel noise swamps the cross-track geometry however well the ratios
# look: a 2 cm scatter with 0.2 mm rms width solved at 2 px noise lands
# metres from the truth.
MIN_SPREAD_M = 0.01

# LM stop (relative cost change), step cap, initial damping, Huber scale (px) of the robust loss.
FN_TOL = 1e-10
MAX_ITERS = 100
DAMPING_INIT = 1e-3
HUBER_SCALE_PX = 3.0

# Gauss-Newton steps on SO(3) that each start of the linear stage takes.
SQP_STEPS = 4

# A solution whose median reprojection error passes this share of the image
# diagonal is a wild fit, not a pose.
WILD_FIT_SHARE = 0.05


@dataclass(frozen=True)
class DegeneracyReport:
    n_points: int
    spread_singular_values: np.ndarray
    classification: str

    def __post_init__(self):
        freeze(self, "spread_singular_values", shape=3)


@dataclass(frozen=True)
class PnPSolution:
    pose: Pose
    rms_reprojection_error: float
    per_point_residuals: np.ndarray
    condition_report: DegeneracyReport


class PoseStack(NamedTuple):
    """M poses as rotations (M, 3, 3) and translations (M, 3): the stacked
    form of ``Pose`` that ``retract`` takes, and that ``refine_pose`` and
    ``linearize_reprojection`` take with a RaggedPoints stack of M members."""

    rotation: np.ndarray
    translation: np.ndarray


class RaggedPoints(NamedTuple):
    """The object points of a ragged stack of M validated members, end to
    end: x, y, z rows (3, N), each member's first column and pair count
    (M,), each member's DegeneracyReport, and each member's column slice
    (its segment).  ``refine_pose`` and ``linearize_reprojection`` take it
    in place of (n, 3) points, with the pixels as u, v rows (2, N);
    ``ragged_points`` builds it."""

    xyz: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    reports: tuple
    segments: tuple


def ragged_points(xyz: np.ndarray, counts, reports) -> RaggedPoints:
    """The RaggedPoints of M members with points as x, y, z rows (3, N),
    end to end, with pair counts (M,) and DegeneracyReports.  Raises
    ValueError unless the counts sum to N."""
    counts = np.array(counts, dtype=np.intp)
    if counts.sum() != xyz.shape[1]:
        raise ValueError(
            f"the pair counts sum to {counts.sum()}, but the stack has {xyz.shape[1]} columns"
        )
    starts = np.cumsum(counts) - counts
    segments = tuple(slice(lo, lo + n) for lo, n in zip(starts.tolist(), counts.tolist()))
    return RaggedPoints(xyz, starts, counts, tuple(reports), segments)


def _segment_sums(a: np.ndarray, pts: RaggedPoints) -> np.ndarray:
    """Each member's sum (..., M) of a per-pair array (..., N), over its own
    segment only."""
    return np.add.reduceat(a, pts.starts, axis=-1)


def _per_pair(a: np.ndarray, pts: RaggedPoints) -> np.ndarray:
    """Per-member values (..., M) repeated over each member's pairs (..., N);
    a stack of one keeps them (..., 1), to broadcast."""
    return a if len(pts.counts) == 1 else np.repeat(a, pts.counts, axis=-1)


def _segment_products(a: np.ndarray, pts: RaggedPoints, idx=None) -> np.ndarray:
    """Each member's a_j @ a_j.T (M, p, p), a_j being its own columns of the
    per-pair rows a (p, N); members idx only, when given.  One BLAS product
    per member's own columns: a member's matrix depends on its own pairs
    alone."""
    segments = pts.segments if idx is None else [pts.segments[j] for j in idx]
    return np.array([a[:, s] @ a[:, s].T for s in segments])


def _apply_each(mats: np.ndarray, cols: np.ndarray, pts: RaggedPoints) -> np.ndarray:
    """Each member's matrix (..., M, r, k) times its own columns of cols
    (k, N), as (..., r, N): one BLAS product per member's own columns."""
    products = [mats[..., j, :, :] @ cols[:, s] for j, s in enumerate(pts.segments)]
    return products[0] if len(products) == 1 else np.concatenate(products, axis=-1)


def _stacked(members) -> tuple[RaggedPoints, np.ndarray]:
    """The ragged stack of validated members (points (n, 3), pixels (n, 2),
    report): its RaggedPoints and pixel rows (2, N)."""
    xyz, uv, reports = zip(*members)
    pts = ragged_points(np.concatenate([p.T for p in xyz], axis=1), [len(p) for p in xyz], reports)
    return pts, np.concatenate([p.T for p in uv], axis=1)


def _alone(pts3, pix, check=None) -> tuple[RaggedPoints, np.ndarray]:
    """The stack of one of a single problem, validated, as ``_stacked``
    gives it; its report is check(points), or None without a check."""
    pts3, pix = _validated(pts3, pix)
    return _stacked([(pts3, pix, check and check(pts3))])


def _one_pose(pose) -> PoseStack:
    """A Pose as a PoseStack of one.  A PoseStack raises ValueError: it
    pairs with a RaggedPoints stack, not with (n, 3) points."""
    if isinstance(pose, PoseStack):
        raise ValueError("a PoseStack takes RaggedPoints, not (n, 3) points")
    return PoseStack(np.reshape(pose.rotation, (1, 3, 3)), np.reshape(pose.translation, (1, 3)))


def _member(pts: RaggedPoints, pix: np.ndarray, j: int) -> tuple:
    """The stack of one of member j, with its pixel rows."""
    cols = np.arange(pts.starts[j], pts.starts[j] + pts.counts[j])
    return ragged_points(pts.xyz[:, cols], [len(cols)], [pts.reports[j]]), pix[:, cols]


def check_degeneracy(points: np.ndarray) -> DegeneracyReport:
    """Classify the spatial spread of a 3D point set.

    Singular values of the centered point matrix measure extent along the
    principal axes; near-zero ratios flag collinear or planar layouts, and
    a set whose second-axis rms extent is below MIN_SPREAD_M counts as
    collinear.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n == 0:
        raise EmptyInput("cannot assess degeneracy of an empty point set")
    centered = pts - pts.mean(axis=0)
    sv = np.zeros(3)
    got = np.linalg.svd(centered, compute_uv=False)
    sv[: len(got)] = got[:3]
    if n < MIN_POINTS:
        cls = DEGENERATE
    elif sv[1] / math.sqrt(n) < MIN_SPREAD_M or sv[1] / sv[0] < SPREAD_RATIO_TOL:
        cls = NEAR_COLLINEAR
    elif sv[2] / sv[0] < SPREAD_RATIO_TOL:
        cls = NEAR_PLANAR
    else:
        cls = WELL_CONDITIONED
    return DegeneracyReport(n_points=n, spread_singular_values=sv, classification=cls)


def _validated(pts3, pix) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3) points and (n, 2) pixels as float arrays; rejects mismatched
    shapes and non-finite coordinates, and raises EmptyInput when n is
    zero."""
    pts3 = np.asarray(pts3, dtype=float)
    pix = np.asarray(pix, dtype=float)
    n = len(pts3) if pts3.ndim else 0
    if pts3.shape != (n, 3) or pix.shape != (n, 2):
        raise ValueError(
            f"expected (n, 3) points and (n, 2) pixels, got {pts3.shape} and {pix.shape}"
        )
    if n == 0:
        raise EmptyInput("no correspondences given")
    if not (np.isfinite(pts3).all() and np.isfinite(pix).all()):
        raise ValueError("correspondence coordinates must be finite")
    return pts3, pix


def _raised(outcome):
    """A one-problem call's outcome: returned, or raised if it is an error."""
    if isinstance(outcome, CalibrationError):
        raise outcome
    return outcome


def _checked_points(pts3: np.ndarray) -> DegeneracyReport:
    """The degeneracy report of the points; a degenerate or near-collinear
    arrangement raises DegenerateConfiguration."""
    report = check_degeneracy(pts3)
    if report.classification in (DEGENERATE, NEAR_COLLINEAR):
        raise DegenerateConfiguration(
            f"point arrangement is {report.classification} "
            f"(n={report.n_points}); sweep a wider, non-collinear volume",
            report=report,
        )
    return report


def _solve_each(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x (..., k) with h[i] @ x[i] = g[i]; a zero row where h[i] is singular."""
    try:
        return np.linalg.solve(h, g[..., None])[..., 0]
    except np.linalg.LinAlgError:  # some system is singular: solve one by one
        hs = np.broadcast_to(h, (*g.shape, g.shape[-1])).reshape(-1, g.shape[-1], g.shape[-1])
        x = np.zeros_like(g).reshape(-1, g.shape[-1])
        for i, (hi, gi) in enumerate(zip(hs, g.reshape(x.shape))):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[i] = np.linalg.solve(hi, gi)
        return x.reshape(g.shape)


_CROSS = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def _rotations(a: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the first two columns of each matrix a (..., 3, 3),
    their cross product third: a rotation, or NaN where a column it
    normalizes has zero length (as when it underflows; never divided by)."""

    def unit(v):
        norm = np.sqrt((v * v).sum(axis=-1, keepdims=True))
        return v / np.where(norm > 0, norm, math.nan)

    x = unit(a[..., :, 0])
    y = a[..., :, 1]
    y = unit(y - (x * y).sum(axis=-1, keepdims=True) * x)
    xy = x[..., _CROSS[0]] * y[..., _CROSS[1]]  # both halves of x cross y
    return np.stack([x, y, xy[..., :3] - xy[..., 3:]], axis=-1)


# [e_k]x as 9-vectors (3, 9), column j e_k x e_j; _LIFT[k] takes the rows r of
# R to those of [e_k]x R, its change per unit left increment about axis k.
_HAT = np.cross(np.eye(3)[:, None], np.eye(3)).swapaxes(1, 2).reshape(3, 9)
_LIFT = np.kron(_HAT.reshape(3, 3, 3), np.eye(3))


def _sqp_candidates(
    pts: RaggedPoints, pix: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each member's candidate rotations (M, 18, 3, 3), translations (M, 18, 3)
    and costs (M, 18): a global search of the object-space cost
    sum_i |(I - v_i v_i^T)(R p_i + t)|^2 over the unit rays v_i (SQPnP,
    Terzakis & Lourakis, ECCV 2020).  With r the rows of R as a 9-vector,
    the best t is P r and the cost r^T Omega r; one Gram matrix of the
    per-pair rows [v (x) p, v, p, 1], p in the member's principal axes,
    holds both.  The starts are +-1 times each eigenvector of Omega,
    made a rotation by Gram-Schmidt of its first two columns (for a flat
    member, those of its in-plane axes); each takes SQP_STEPS Gauss-Newton
    steps on SO(3).  A candidate costs r^T Omega r, or inf when most points
    are at or behind the camera plane (as when it has no rotation, NaN).
    """
    m = len(pts.counts)
    c0 = _segment_sums(pts.xyz, pts) / pts.counts  # (3, M)
    d = pts.xyz - _per_pair(c0, pts)
    # Principal axes as columns, largest spread first, turned into a rotation.
    axes = np.linalg.eigh(_segment_products(d, pts))[1][..., ::-1].copy()
    axes[..., 2] *= np.sign(np.linalg.det(axes))[:, None]
    # Per-pair rows: v (x) p (9), v (3), and p in homogeneous form (4).
    rows = np.empty((16, pix.shape[1]))
    ray, hom = rows[9:12], rows[12:16]
    hom[:3] = _apply_each(np.ascontiguousarray(axes.swapaxes(1, 2)), d, pts)
    hom[3] = 1.0
    # The ray through each pixel, in pixel-scaled units: a focal length whose
    # square passes the float range fails here, as in the refinement.
    ray[0] = k.fy * (pix[0] - k.cx)
    ray[1] = k.fx * (pix[1] - k.cy)
    ray[2] = k.fx * k.fy
    ray /= np.sqrt((ray * ray).sum(axis=0))
    np.multiply(ray[:, None], hom[:3], out=rows[:9].reshape(3, 3, -1))
    gram = _segment_products(rows, pts)  # (M, 16, 16)
    # The quadratic form of (r, t): |R p + t|^2 less (v . (R p + t))^2.
    i3 = np.eye(3)
    m_rr = np.einsum("ac,mbe->mabce", i3, gram[:, 12:15, 12:15]).reshape(m, 9, 9) - gram[:, :9, :9]
    m_rt = np.einsum("ac,mb->mabc", i3, gram[:, 12:15, 15]).reshape(m, 9, 3) - gram[:, :9, 9:12]
    m_tt = gram[:, 15, 15, None, None] * i3 - gram[:, 9:12, 9:12]
    try:
        p = -np.linalg.solve(m_tt, m_rt.swapaxes(1, 2))  # (M, 3, 9)
        omega = m_rr + m_rt @ p
        evecs = np.linalg.eigh(omega)[1].swapaxes(1, 2)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("the object-space system has no solution") from exc
    # Gram-Schmidt of -E is that of E with its first two columns negated.
    rot = _rotations(evecs.reshape(m, 9, 3, 3))
    rot = np.concatenate([rot, rot * [-1.0, -1.0, 1.0]], axis=1)  # (M, 18, 3, 3)
    # With J_k = [e_k]x R as 9-vectors, H_kl = J_k^T Omega J_l and
    # -g_k = -J_k^T Omega r are quadratic forms r^T F r in r: their 12
    # matrices F, laid out [j, (i, form)] (M, 9, 108), give the Gauss-Newton
    # system of every start in two products.
    lift_omega = _LIFT.swapaxes(1, 2) @ omega[:, None]  # (M, 3, 9, 9)
    forms = np.concatenate([(lift_omega[:, :, None] @ _LIFT).reshape(m, 9, 9, 9), -lift_omega], 1)
    forms = np.ascontiguousarray(forms.transpose(0, 3, 2, 1)).reshape(m, 9, 108)
    for _ in range(SQP_STEPS):
        r = rot.reshape(m, 18, 9)
        system = (r[..., None, :] @ (r @ forms).reshape(m, 18, 9, 12))[..., 0, :]
        step = _solve_each(system[..., :9].reshape(m, 18, 3, 3), system[..., 9:])
        rot = _rotations(rot + (step @ _HAT).reshape(m, 18, 3, 3) @ rot)
    r = rot.reshape(m, 18, 9)
    costs = ((r @ omega) * r).sum(axis=-1)
    t = r @ np.ascontiguousarray(p.swapaxes(1, 2))  # (M, 18, 3), principal frame
    # Each candidate's depth row [R_z, t_z] on the homogeneous points, counted
    # in front per member.
    depth_rows = np.concatenate([rot[..., 2, :], t[..., 2:]], axis=-1)  # (M, 18, 4)
    front = _apply_each(depth_rows, hom, pts) > MIN_DEPTH  # (18, N)
    n_front = np.add.reduceat(front, pts.starts, axis=-1, dtype=np.intp)  # (18, M)
    costs = np.where(2 * n_front.T < pts.counts[:, None], math.inf, costs)
    # Back to the object frame: R p = R A^T (x - c0) for the axes A.
    rot = rot @ axes.swapaxes(1, 2)[:, None]
    t -= (rot @ np.ascontiguousarray(c0.T)[:, None, :, None])[..., 0]
    return rot, t, costs


def _rodrigues(wx: float, wy: float, wz: float) -> list:
    """The rotation matrix (nested lists) of one rotation vector."""
    angle = math.sqrt(wx * wx + wy * wy + wz * wz)
    if angle == 0:
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    x, y, z = wx / angle, wy / angle, wz / angle
    s, c = math.sin(angle), 1.0 - math.cos(angle)
    return [
        [1.0 - c * (y * y + z * z), c * x * y - s * z, c * x * z + s * y],
        [c * x * y + s * z, 1.0 - c * (x * x + z * z), c * y * z - s * x],
        [c * x * z - s * y, c * y * z + s * x, 1.0 - c * (x * x + y * y)],
    ]


def retract(pose, delta):
    """Apply a local increment (rotation vector, translation) to a pose.

    Also takes a PoseStack with increments (M, 6) and returns a PoseStack.
    Each increment's rotation comes from Python floats: for stacks of a few
    poses that is cheaper than the same formula in array arithmetic.
    """
    d = np.asarray(delta, dtype=float)
    rotvecs = d[..., :3].reshape(-1, 3).tolist()
    dr = np.array([_rodrigues(*v) for v in rotvecs]).reshape(*d.shape[:-1], 3, 3)
    rotation, translation = dr @ pose.rotation, pose.translation + d[..., 3:]
    if isinstance(pose, Pose):
        return Pose(rotation, translation)
    return PoseStack(rotation, translation)


def _project(
    rot: np.ndarray, trans: np.ndarray, pts: RaggedPoints, pix: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, ...]:
    """Residual rows (..., 2, N) of the poses (..., M, 3, 3), (..., M, 3) of
    the members over their pairs, zero for points at or behind the camera
    plane, with the depths (..., N), whether each point is in front, the
    normalized image coordinates (..., 2, N) (x, y as if at depth 1 where
    behind) and the rotated points (..., 3, N).  Not ``geometry.pixels``:
    the Jacobian reuses these x / z, and this (x / z) * f rounds differently
    from its f * x / z, which would move nearly every refined pose in its
    last digits."""
    rotated = _apply_each(rot, pts.xyz, pts)
    pc = rotated + _per_pair(trans.swapaxes(-1, -2), pts)
    depth = pc[..., 2, :]
    front = depth > MIN_DEPTH
    xy = pc[..., :2, :] / np.where(front, depth, 1.0)[..., None, :]
    focal, centre = _camera(k)
    resid = xy * focal + centre - pix
    np.copyto(resid, 0.0, where=~front[..., None, :])
    return resid, depth, front, xy, rotated


_EYE2 = np.eye(2)[:, :, None]


@functools.lru_cache(maxsize=16)
def _camera(k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """The focal lengths and the principal point of k as read-only columns
    (2, 1)."""
    focal, centre = np.array([[k.fx], [k.fy]]), np.array([[k.cx], [k.cy]])
    focal.setflags(write=False)
    centre.setflags(write=False)
    return focal, centre


def _linearize(pose, pts: RaggedPoints, pix: np.ndarray, k: CameraIntrinsics) -> tuple:
    """``linearize_reprojection`` of a PoseStack over a ragged stack."""
    resid, z, front, xy, (qx, qy, qz) = _project(pose.rotation, pose.translation, pts, pix, k)
    # d(pixel)/d(increment) = diag(f / z) [[1, 0, -x], [0, 1, -y]] [-[q]x | I] with
    # q the rotated point, in closed form; zero (f / inf) at or behind the camera.
    jac = np.empty((2, 6, len(z)))  # pixel axis, increment component, pair
    np.multiply(xy, -qy, out=jac[:, 0])  # -qy x, -qy y - qz
    jac[1, 0] -= qz
    np.multiply(xy, qx, out=jac[:, 1])  # qz + qx x, qx y
    jac[0, 1] += qz
    np.negative(qy, out=jac[0, 2])
    jac[1, 2] = qx
    jac[:, 3:5] = _EYE2
    np.negative(xy, out=jac[:, 5])
    jac *= (_camera(k)[0] / np.where(front, z, math.inf))[:, None]
    return resid, jac, z


def linearize_reprojection(
    pose, pts3, pix, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals and Jacobian of the pixel error w.r.t. a local increment.

    Takes a Pose, (n, 3) object points and (n, 2) pixels, and returns
    (residuals (n, 2), jacobian (n, 2, 6), depth (n,)); the increment
    convention matches ``retract``.  Rows for points at or behind the camera
    plane are zeroed and must be masked by the caller.  A PoseStack of M
    poses over a RaggedPoints stack, with pixel rows (2, N), gives the
    structure-of-arrays outputs over the stack's N pairs: residual rows
    (2, N), the Jacobian's u and v rows (2, 6, N) and depths (N,).
    """
    if isinstance(pts3, RaggedPoints):
        return _linearize(pose, pts3, pix, k)
    pts, rows = _alone(pts3, pix)
    resid, jac, z = _linearize(_one_pose(pose), pts, rows, k)
    return resid.T, jac.transpose(2, 0, 1), z


def _squared(resid: np.ndarray) -> np.ndarray:
    """Squared norms (..., N) of residual rows (..., 2, N)."""
    u, v = resid[..., 0, :], resid[..., 1, :]
    return u * u + v * v


def _cost(
    sq: np.ndarray, z: np.ndarray, admitted: np.ndarray, robust: bool, pts: RaggedPoints
) -> np.ndarray:
    """Each member's cost (..., M): the sum of the squared residual norms sq
    (..., N), optionally Huber, over its admitted points (a mask (N,)); inf
    where an admitted point is behind the camera, or most of the member's
    points are, at depths z (..., N).  A NaN depth counts as behind."""
    if robust:
        s = HUBER_SCALE_PX
        norms = np.sqrt(sq)
        rho = np.where(norms <= s, sq, s * (2.0 * norms - s))
    else:
        rho = sq
    cost = _segment_sums(admitted * rho, pts)
    behind = ~(z > MIN_DEPTH)
    if np.count_nonzero(behind):
        n_behind = np.add.reduceat(behind, pts.starts, axis=-1, dtype=np.intp)
        active = np.logical_or.reduceat(behind & admitted, pts.starts, axis=-1)
        cost = np.where((2 * n_behind > pts.counts) | active, math.inf, cost)
    return cost


def _normal_equations(
    resid: np.ndarray,
    jac: np.ndarray,
    sq: np.ndarray,
    admitted: np.ndarray,
    robust: bool,
    pts: RaggedPoints,
    wanted: np.ndarray,
    system: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Write into ``system`` (Gauss-Newton matrices (M, 6, 6), gradients
    (M, 6) and damping diagonals (M, 6)) the rows of the wanted members
    (a mask (M,)), from the residual rows (2, N) and Jacobian rows
    (2, 6, N) of the admitted points (a mask (N,)), Huber-weighted when
    robust.  Each member's matrix and gradient come from one Gram matrix of
    its own columns of those Jacobian and residual rows, stacked (14, n):
    the u rows' Gram block plus the v rows'."""
    n_wanted = np.count_nonzero(wanted)
    if not n_wanted:
        return
    idx = None if n_wanted == len(wanted) else wanted.nonzero()[0].tolist()
    rows_of = slice(None) if idx is None else idx
    h, g, damp = system
    scale = admitted
    if robust:
        s = HUBER_SCALE_PX
        norms = np.sqrt(sq)
        scale = np.sqrt(admitted * np.where(norms <= s, 1.0, s / np.maximum(norms, 1e-30)))
    rows = np.empty((2, 7, len(admitted)))
    rows[:, :6] = jac
    rows[:, 6] = resid
    rows *= scale
    gram = _segment_products(rows.reshape(14, -1), pts, idx)
    h[rows_of] = hessian = gram[:, :6, :6] + gram[:, 7:13, 7:13]
    g[rows_of] = gram[:, :6, 6] + gram[:, 7:13, 13]
    damp[rows_of] = np.maximum(np.diagonal(hessian, axis1=1, axis2=2), 1e-12)


_EYE6 = np.eye(6)


def refine_pose(initial, pts3, pix, k: CameraIntrinsics, *, robust: bool = False):
    """Damped least-squares (Levenberg-Marquardt) reprojection refinement.

    Takes an initial Pose, (n, 3) object points and (n, 2) pixels;
    ``robust`` swaps the squared loss for a Huber loss of scale
    HUBER_SCALE_PX.  Points behind the camera at the initial pose are held
    out of the cost and re-admitted after an accepted step that brings them
    back in front; accepted steps never increase the cost.  Each trial pose
    is linearized once: an accepted trial's normal equations, residual
    norms and depths serve the next step and the result.  A member stops
    when a trial, accepted or rejected (which leaves its state as it was),
    moves its cost by less than FN_TOL relative, when its cost is at or
    below an absolute floor of 1e-16 per pair (1e-8 px rms: a noiseless fit
    at rounding level, checked at the start too), after MAX_ITERS accepted
    steps, or when its damping reaches 1e12.  Raises DivergedBehindCamera
    when the majority of points sit at non-positive depth, and
    NumericalFailure when a step leaves the float range.

    ``initial`` may also be a PoseStack of M poses with a RaggedPoints stack
    of M members and pixel rows (2, N), which is taken as validated.  Every
    round takes one batched trial step for the running members, each with
    its own damping, admitted points and stop test; a member that has
    stopped keeps its state, and the normal equations are rebuilt only for
    members that accepted a trial and keep running, so each takes exactly
    the steps it would take alone.  The result is then a list with one
    PnPSolution or DivergedBehindCamera per member.
    """
    if isinstance(pts3, RaggedPoints):
        if len(initial.rotation) != len(pts3.counts):
            raise ValueError("expected one initial pose per member of the stack")
        return _refine(initial, pts3, pix, k, robust)
    start = _one_pose(initial)
    with _in_float_range():
        outcome = _refine(start, *_alone(pts3, pix, check_degeneracy), k, robust)[0]
    return _raised(outcome)


def _refine(initial, pts: RaggedPoints, pix, k: CameraIntrinsics, robust: bool) -> list:
    """The Levenberg-Marquardt loop of ``refine_pose`` over a ragged stack."""
    m = len(pts.counts)
    if m == 0:
        return []
    rot = np.array(initial.rotation, dtype=float)
    trans = np.array(initial.translation, dtype=float)
    floor = 1e-16 * pts.counts
    resid, jac, z = linearize_reprojection(PoseStack(rot, trans), pts, pix, k)
    sq = _squared(resid)
    admitted = ~(z <= MIN_DEPTH)  # points behind the camera are held out until they come back
    cost = _cost(sq, z, admitted, robust, pts)
    diverged = ~np.isfinite(cost)
    cost[diverged] = 0.0  # a diverged member never runs; zero keeps its masked arithmetic finite
    running = ~diverged & (cost > floor)
    system = (np.zeros((m, 6, 6)), np.zeros((m, 6)), np.ones((m, 6)))
    _normal_equations(resid, jac, sq, admitted, robust, pts, running, system)
    h, g, damp = system
    lam = np.full(m, DAMPING_INIT)
    n_steps = np.zeros(m, dtype=int)  # accepted steps
    while n_live := np.count_nonzero(running):
        every = n_live == m
        live = slice(None) if every else running.nonzero()[0]
        step = _solve_each(h[live] + _EYE6 * (lam[live, None] * damp[live])[:, None, :], -g[live])
        if every:
            trial = retract(PoseStack(rot, trans), step)
        else:  # a stopped member is evaluated where it is
            trial = PoseStack(rot.copy(), trans.copy())
            moved = retract(PoseStack(rot[live], trans[live]), step)
            trial.rotation[live], trial.translation[live] = moved
        t_resid, t_jac, t_z = linearize_reprojection(trial, pts, pix, k)
        t_sq = _squared(t_resid)
        new_cost = _cost(t_sq, t_z, admitted, robust, pts)
        better = running & (new_cost < cost)
        rel_drop = (cost - new_cost) / np.maximum(cost, 1e-300)
        n_better = np.count_nonzero(better)
        took = _per_pair(better, pts)
        if not admitted.all():  # re-admit points that have come back in front of the camera
            revived = ~admitted & took & (t_z > MIN_DEPTH)
            admitted |= revived
            again = np.logical_or.reduceat(revived, pts.starts)
            new_cost = np.where(again, _cost(t_sq, t_z, admitted, robust, pts), new_cost)
        n_steps += better
        done = (rel_drop < FN_TOL) | (new_cost <= floor) | (n_steps >= MAX_ITERS)
        if n_better == m:  # every member takes its trial's state
            rot, trans, sq, z, cost = *trial, t_sq, t_z, new_cost
        elif n_better:  # a member that did not improve keeps its state
            rot[better], trans[better] = trial.rotation[better], trial.translation[better]
            sq = np.where(took, t_sq, sq)
            z = np.where(took, t_z, z)
            cost = np.where(better, new_cost, cost)
        if n_better:
            _normal_equations(t_resid, t_jac, t_sq, admitted, robust, pts, better & ~done, system)
        # The cap changes no running member's stop test; it keeps a stopped
        # member's damping from overflowing however long the rest run.
        lam = np.where(better, np.maximum(lam / 3.0, 1e-12), np.minimum(lam * 10.0, 1e12))
        running &= ~np.where(better, done, (lam >= 1e12) | (np.abs(rel_drop) < FN_TOL))

    sq = np.where(z > MIN_DEPTH, sq, math.inf)
    norms = np.sqrt(sq)
    rms = np.sqrt(_segment_sums(sq, pts) / pts.counts)  # inf with any point behind
    outcomes = []
    for j, (lo, n, report) in enumerate(zip(pts.starts.tolist(), pts.counts.tolist(), pts.reports)):
        if diverged[j]:
            outcomes.append(
                DivergedBehindCamera(f"the initial pose puts most of the {n} points behind it")
            )
        else:
            pose = Pose(rot[j], trans[j])
            outcomes.append(PnPSolution(pose, float(rms[j]), norms[lo : lo + n], report))
    return outcomes


_NO_START = "every linear candidate puts most points behind the camera"


@contextlib.contextmanager
def _in_float_range():
    """Turn a float overflow, division by zero or invalid operation (points
    or focal lengths whose squares pass the float range either way) into a
    NumericalFailure."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalFailure(f"the solve left the float range: {exc}") from exc


def solve_pnp_linear(pts3, pix, k: CameraIntrinsics) -> Pose:
    """The linear stage's pose estimate (no refinement): the SQPnP candidate
    of the least object-space cost, the earlier on a tie."""
    with _in_float_range():
        r, t, costs = _sqp_candidates(*_alone(pts3, pix, _checked_points), k)
    best = int(np.argmin(costs[0]))
    if not math.isfinite(costs[0, best]):
        raise NumericalFailure(_NO_START)
    return Pose(r[0, best], t[0, best])


def solve_pnp(pts3, pix, k: CameraIntrinsics, *, robust: bool = False):
    """Full pipeline: degeneracy check, linear solve, refinement.

    Takes (n, 3) object points and (n, 2) pixels, every pair counting once.
    Levenberg-Marquardt refines the linear stage's cheapest SQPnP candidate;
    it takes no other start.  A refined pose that leaves any point behind
    the camera is a DivergedBehindCamera, and one whose median reprojection
    error passes WILD_FIT_SHARE of the image diagonal a NumericalFailure:
    never a solution.

    A ragged stack is a list (or tuple) of M point sets (n_i, 3), with a
    list of M pixel sets (n_i, 2): each member has its own pairs, and the
    result is a list with one PnPSolution or CalibrationError per member,
    each exactly the outcome of that member's solve alone.  Members given
    the same points array share one degeneracy check.  The stack is solved
    in one pass, every member's start refined as a member of one
    ``refine_pose`` stack; a stack whose solve leaves the float range is
    re-solved member by member, so the error lands on the members that fail
    alone.  Invalid input (ValueError) still raises.  A single problem is
    solved as the ragged stack of one.
    """
    if isinstance(pts3, (list, tuple)) and (not pts3 or np.ndim(pts3[0]) == 2):
        return _solve_ragged(pts3, pix, k, robust)
    return _raised(_solve_ragged([pts3], [pix], k, robust)[0])


def _solve_ragged(pts3, pix, k: CameraIntrinsics, robust: bool) -> list:
    """``solve_pnp`` of a ragged stack given as lists of per-member arrays."""
    m = len(pts3)
    if len(pix) != m:
        raise ValueError(f"expected one pixel set per point set, got {m} and {len(pix)}")
    outcomes: list = [None] * m
    checked: dict = {}  # id of a validated points array: (the array, its report or error)
    kept, members = [], []
    for i in range(m):
        try:
            points, pixels = _validated(pts3[i], pix[i])
        except CalibrationError as exc:
            outcomes[i] = exc
            continue
        if id(points) not in checked:
            try:
                with _in_float_range():
                    checked[id(points)] = (points, _checked_points(points))
            except CalibrationError as exc:
                checked[id(points)] = (points, exc)
        report = checked[id(points)][1]
        if isinstance(report, CalibrationError):
            outcomes[i] = report
            continue
        kept.append(i)
        members.append((points, pixels, report))
    if kept:
        for i, outcome in zip(kept, _solve_isolated(*_stacked(members), k, robust)):
            outcomes[i] = outcome
    return outcomes


def _solve_isolated(pts: RaggedPoints, pix, k: CameraIntrinsics, robust: bool) -> list:
    """The outcomes of a stack's solve; a NumericalFailure that the stack
    raises as a whole is pinned, by solving each member alone, on the
    members that raise it alone."""
    try:
        return _solve_stack(pts, pix, k, robust)
    except NumericalFailure as exc:
        if len(pts.counts) == 1:
            return [exc]
        return [
            outcome
            for j in range(len(pts.counts))
            for outcome in _solve_isolated(*_member(pts, pix, j), k, robust)
        ]


def _solve_stack(pts: RaggedPoints, pix, k: CameraIntrinsics, robust: bool) -> list:
    """One PnPSolution or CalibrationError per member of a checked stack of at
    least one; a step that leaves the float range raises NumericalFailure."""
    with _in_float_range():
        r, t, costs = _sqp_candidates(pts, pix, k)
        best = np.arange(len(costs)), np.argmin(costs, axis=-1)  # the first on a tie
        refined = refine_pose(PoseStack(r[best], t[best]), pts, pix, k, robust=robust)
    found, wild = np.isfinite(costs[best]), WILD_FIT_SHARE * math.hypot(k.width, k.height)
    for j, sol in enumerate(refined):
        if not found[j]:
            refined[j] = NumericalFailure(_NO_START)
        elif isinstance(sol, PnPSolution):
            residuals, rms = sol.per_point_residuals, sol.rms_reprojection_error
            if not math.isfinite(rms):
                refined[j] = DivergedBehindCamera(
                    f"the refined pose leaves {int(np.isinf(residuals).sum())} of "
                    f"{len(residuals)} points behind it"
                )
            # Half the residuals are at least the median, so it is at most
            # sqrt(2) times the rms: a smaller rms needs no median.
            elif rms > wild / math.sqrt(2.0) and np.median(residuals) > wild:
                refined[j] = NumericalFailure(
                    f"the refined pose is a wild fit: its median reprojection error, "
                    f"{np.median(residuals):.4g} px, passes {WILD_FIT_SHARE:.0%} of the "
                    f"image diagonal"
                )
    return refined
