"""Perspective-n-Point pose estimation from 2D-3D correspondences.

The solver is self-contained: a control-point (EPnP-style) closed-form
stage provides the initial pose, and damped least squares on the pixel
reprojection error refines it.  Degeneracy of the 3D point arrangement is
diagnosed before solving; collinear or too-small point sets are rejected
because they admit no well-conditioned unique pose.

Every stage runs on a stack: S pixel sets (S, n, 2) that share one point
set (n, 3) and its weights are solved in one pass, each exactly as it
would be alone.  A single solve is a stack of one.

Pose convention: the returned pose maps object-frame points into the
camera frame, so ``project(k, apply(pose, p3))`` reproduces the pixel.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (
    CalibrationError,
    DegenerateConfiguration,
    DivergedBehindCamera,
    EmptyInput,
    NumericalFailure,
)
from .geometry import MIN_DEPTH, CameraIntrinsics, Pose, freeze, orthonormalize, skew

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
    """S poses as rotations (S, 3, 3) and translations (S, 3): the stacked
    form of ``Pose`` that ``retract``, ``linearize_reprojection`` and
    ``refine_pose`` also take."""

    rotation: np.ndarray
    translation: np.ndarray


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


def _validated(pts3, pix, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, 3) points, (n, 2) pixels or a stack (S, n, 2) of them, and (n,)
    weights (all ones when None) as float arrays, less the pairs of zero
    weight; rejects mismatched shapes, non-finite coordinates and negative
    weights, and raises EmptyInput when n is zero and NumericalFailure when
    every weight is zero."""
    pts3 = np.asarray(pts3, dtype=float)
    pix = np.asarray(pix, dtype=float)
    n = len(pts3) if pts3.ndim else 0
    w = np.ones(n) if w is None else np.asarray(w, dtype=float)
    if pts3.shape != (n, 3) or pix.shape[-2:] != (n, 2) or pix.ndim > 3 or w.shape != (n,):
        raise ValueError(
            f"expected (n, 3) points, (n, 2) or (S, n, 2) pixels and (n,) weights, got "
            f"{pts3.shape}, {pix.shape} and {w.shape}"
        )
    if n == 0:
        raise EmptyInput("no correspondences given")
    if not (np.all(np.isfinite(pts3)) and np.all(np.isfinite(pix))):
        raise ValueError("correspondence coordinates must be finite")
    if not np.all(w >= 0):
        raise ValueError("correspondence weights must be nonnegative")
    if not w.all():  # a zero weight removes its pair
        if not w.any():
            raise NumericalFailure("all correspondence weights are zero")
        keep = w > 0
        pts3, pix, w = pts3[keep], pix[..., keep, :], w[keep]
    return pts3, pix, w


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


def _control_points(pts3: np.ndarray, w: np.ndarray, planar: bool) -> np.ndarray:
    """Centroid plus principal-direction points scaled by the spread."""
    wsum = float(w.sum())
    c0 = (w[:, None] * pts3).sum(axis=0) / wsum
    centered = pts3 - c0
    cov = (centered * w[:, None]).T @ centered / wsum
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    n_dirs = 2 if planar else 3
    dirs = np.sqrt(np.maximum(evals[:n_dirs], 1e-16)) * evecs[:, :n_dirs]
    return np.vstack([c0, c0 + dirs.T])


def _barycentric(pts3: np.ndarray, ctrl: np.ndarray) -> np.ndarray:
    """Affine coordinates w.r.t. the control points, rows summing to one.

    Expansion in the orthogonal principal basis is exact for the full basis
    and projects out the (tiny) off-plane component in the planar case.
    """
    c0 = ctrl[0]
    dirs = ctrl[1:] - c0
    norms2 = (dirs**2).sum(axis=1)
    coords = (pts3 - c0) @ dirs.T / norms2
    alphas = np.empty((pts3.shape[0], ctrl.shape[0]))
    alphas[:, 0] = 1.0 - coords.sum(axis=1)
    alphas[:, 1:] = coords
    return alphas


def _kernel_basis(
    alphas: np.ndarray, pix: np.ndarray, w: np.ndarray, k: CameraIntrinsics, n_vecs: int
) -> np.ndarray:
    """Smallest right-singular vectors (..., n_vecs, m, 3) of the 2n x 3m
    projection system of each pixel set (..., n, 2)."""
    n, m = alphas.shape
    lead = pix.shape[:-2]
    rows = np.zeros((*lead, n, 2, m, 3))  # point, pixel axis, control point, coordinate
    sw = np.sqrt(w)[:, None]
    rows[..., 0, :, 0] = alphas * k.fx * sw
    rows[..., 0, :, 2] = alphas * (k.cx - pix[..., :1]) * sw
    rows[..., 1, :, 1] = alphas * k.fy * sw
    rows[..., 1, :, 2] = alphas * (k.cy - pix[..., 1:]) * sw
    rows = rows.reshape(*lead, 2 * n, 3 * m)
    try:
        _, evecs = np.linalg.eigh(np.swapaxes(rows, -1, -2) @ rows)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("null-space extraction failed") from exc
    return np.swapaxes(evecs[..., :n_vecs], -1, -2).reshape(*lead, n_vecs, m, 3)


def _initial_betas(gram: np.ndarray, rho: np.ndarray, n_cases: int) -> np.ndarray:
    """Linearized distance-constraint betas (..., C, 3) of kernel cases
    1..n_cases, zero-padded; a case with a degenerate kernel vector gets NaN.

    ``gram`` (..., P, 3, 3), read nowhere else, holds the Gram matrix of
    each control-point pair's kernel differences.  Case 1 fits one scale to
    the distances; cases 2 and 3 fit the first three or all six columns of
    one system in b11, b12, b22, b13, b23, b33, through its normal equations.
    """
    betas = np.zeros((*gram.shape[:-3], n_cases, 3))
    norms2 = gram[..., 0, 0]
    denom = norms2.sum(axis=-1)
    ok = denom >= 1e-30
    scale = (np.sqrt(rho) * np.sqrt(norms2)).sum(axis=-1) / np.where(ok, denom, 1.0)
    betas[..., 0, 0] = np.where(ok, scale, np.nan)
    # C order whatever the stack size, so each member's products run alike.
    cols = np.multiply(
        gram[..., [0, 0, 1, 0, 1, 2], [0, 1, 1, 2, 2, 2]], [1.0, 2.0, 1.0, 2.0, 2.0, 1.0], order="C"
    )
    cols_t = np.swapaxes(cols, -1, -2)
    used = np.repeat(np.tri(n_cases - 1, 2, dtype=bool), 3, axis=1)  # (C - 1, 6)
    lhs = np.where(used[:, :, None] & used[:, None, :], (cols_t @ cols)[..., None, :, :], np.eye(6))
    sol = _solve_each(lhs, np.where(used, (cols_t @ rho)[..., None, :], 0.0))
    signs = sol[..., [0, 1, 3]]
    signs[..., 0] = 1.0
    # Case 2 keeps b1, b2 and case 3 all three; b1 comes out positive.
    betas[..., 1:, :] = np.copysign(np.sqrt(np.abs(sol[..., [0, 2, 5]])), signs) * np.tri(
        n_cases - 1, 3, 1
    )
    return betas


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


def _linear_candidates(
    pts3: np.ndarray,
    pix: np.ndarray,
    w: np.ndarray,
    k: CameraIntrinsics,
    planar: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (..., C, 3, 3) and translations (..., C, 3) of the kernel
    cases of each pixel set (..., n, 2), in case order, NaN for a case
    without a solution: the shared control points, then one weighted Kabsch
    alignment (R @ pts3 + t ~= camera-frame points) per case."""
    ctrl = _control_points(pts3, w, planar)
    alphas = _barycentric(pts3, ctrl)
    kernel = _kernel_basis(alphas, pix, w, k, n_vecs=3)  # (..., 3, m, 3)
    i, j = np.array(list(combinations(range(len(ctrl)), 2))).T
    rho = ((ctrl[i] - ctrl[j]) ** 2).sum(axis=1)
    dv = kernel[..., i, :] - kernel[..., j, :]  # (..., 3, P, 3)
    gram = np.einsum("...apd,...bpd->...pab", dv, dv)
    betas = _initial_betas(gram, rho, 2 if planar else 3)
    solved = np.all(np.isfinite(betas), axis=-1)
    betas = np.where(solved[..., None], betas, 0.0)
    lead = pix.shape[:-2]
    m = len(ctrl)
    ctrl_cam = (betas @ kernel.reshape(*lead, 3, 3 * m)).reshape(*betas.shape[:-1], m, 3)
    xc = alphas @ ctrl_cam  # (..., C, n, 3)
    wsum = float(w.sum())
    xc = np.where((xc[..., 2] @ w < 0)[..., None, None], -xc, xc)
    c_src = w @ pts3 / wsum
    c_dst = w @ xc / wsum  # (..., C, 3)
    cross = np.swapaxes((xc - c_dst[..., None, :]) * w[:, None], -1, -2) @ (pts3 - c_src)
    try:
        r = orthonormalize(cross)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("pose alignment SVD failed") from exc
    t = c_dst - r @ c_src
    r[~solved] = np.nan
    t[~solved] = np.nan
    return r, t


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

    Also takes a PoseStack with increments (S, 6) and returns a PoseStack.
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


def _pixel_residuals(
    pc: np.ndarray, pix: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals (..., n, 2) of camera-frame points (..., n, 3) against the
    pixels, zero for points at or behind the camera plane, with the depths
    (..., n) and the normalized image coordinates (..., n, 2) (x, y as if
    at depth 1 where behind).  Not ``geometry.pixels``: the Jacobian reuses
    these x / z, and this (x / z) * f rounds differently from its f * x / z,
    which would move nearly every refined pose in its last digits."""
    z = pc[..., 2]
    good = z > MIN_DEPTH
    xy = pc[..., :2] / np.where(good, z, 1.0)[..., None]
    resid = xy * (k.fx, k.fy) + (k.cx, k.cy) - pix
    resid[~good] = 0.0
    return resid, z, xy


# -[v]x = v @ _NEG_SKEW, reshaped to 3 x 3: the cross-product matrices of
# many vectors in one product.
_NEG_SKEW = -np.array([skew(e) for e in np.eye(3)]).reshape(3, 9)


def linearize_reprojection(
    pose, pts3: np.ndarray, pix: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals and Jacobian of the pixel error w.r.t. a local increment.

    Returns (residuals (n, 2), jacobian (n, 2, 6), depth (n,)); the
    increment convention matches ``retract``.  Rows for points at or behind
    the camera plane are zeroed and must be masked by the caller.  A
    PoseStack of S poses with pixels (S, n, 2) gives every output a leading
    S axis.
    """
    rotated = pts3 @ np.swapaxes(pose.rotation, -1, -2)
    pc = rotated + pose.translation[..., None, :]
    resid, z, xy = _pixel_residuals(pc, pix, k)
    # d(pixel)/d(camera point) = diag(fx, fy) / z @ [[1, 0, -x], [0, 1, -y]],
    # zero (1 / inf) for points at or behind the camera plane
    a = np.zeros((*z.shape, 2, 3))
    a[..., 0, 0] = 1.0
    a[..., 1, 1] = 1.0
    a[..., 2] = -xy
    a *= ((k.fx, k.fy) / np.where(z > MIN_DEPTH, z, math.inf)[..., None])[..., None]
    jac = np.empty((*z.shape, 2, 6))
    # d(camera point)/d(rotation increment) = -[R p]x
    jac[..., :3] = a @ (rotated @ _NEG_SKEW).reshape(*z.shape, 3, 3)
    jac[..., 3:] = a
    return resid, jac, z


def _cost(norms: np.ndarray, z: np.ndarray, w_eff: np.ndarray, robust: bool) -> np.ndarray:
    """Weighted (optionally Huber) cost (...,) of each member's residual
    norms (..., n) at depths (..., n); inf where an active point is behind
    the camera or most of the cloud is.  A NaN depth counts as behind."""
    if robust:
        s = HUBER_SCALE_PX
        rho = np.where(norms <= s, norms**2, s * (2.0 * norms - s))
    else:
        rho = norms**2
    cost = (w_eff * rho).sum(axis=-1)
    behind = ~(z > MIN_DEPTH)
    if behind.any():
        blocked = (2 * behind.sum(axis=-1) > z.shape[-1]) | np.any(behind & (w_eff > 0), axis=-1)
        cost = np.where(blocked, math.inf, cost)
    return cost


def _normal_equations(
    resid: np.ndarray, jac: np.ndarray, norms: np.ndarray, w_eff: np.ndarray, robust: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Newton matrices (M, 6, 6), gradients (M, 6) and damping
    diagonals (M, 6) of each member's (optionally Huber-)weighted residuals
    (M, n, 2) with Jacobians (M, n, 2, 6)."""
    if robust:
        s = HUBER_SCALE_PX
        w_eff = w_eff * np.where(norms <= s, 1.0, s / np.maximum(norms, 1e-30))
    sw = np.sqrt(w_eff)
    m, n = sw.shape
    jw = (jac * sw[..., None, None]).reshape(m, 2 * n, 6)
    jt = np.swapaxes(jw, 1, 2)
    h = jt @ jw
    g = (jt @ (resid * sw[..., None]).reshape(m, 2 * n, 1))[..., 0]
    return h, g, np.maximum(np.diagonal(h, axis1=1, axis2=2), 1e-12)


_EYE6 = np.eye(6)


def refine_pose(
    initial,
    pts3,
    pix,
    k: CameraIntrinsics,
    w=None,
    *,
    robust: bool = False,
    report: DegeneracyReport | None = None,
):
    """Damped least-squares (Levenberg-Marquardt) reprojection refinement.

    Takes an initial Pose, (n, 3) object points, (n, 2) pixels and optional
    (n,) weights, a zero weight removing its pair; ``robust`` swaps the
    squared loss for a Huber loss of scale HUBER_SCALE_PX.  Points behind
    the camera at the initial pose are down-weighted to zero and re-checked
    after each accepted step; accepted steps never increase the cost.  Each
    trial pose is linearized once: an accepted trial's normal equations,
    residual norms and depths serve the next step and the result.  A member
    stops when a trial, accepted or rejected (which leaves its state as it
    was), moves its cost by less than FN_TOL relative, when its cost is at
    or below an absolute floor of 1e-16 per unit weight (1e-8 px rms: a
    noiseless fit at rounding level, checked at the start too), after
    MAX_ITERS accepted steps, or when its damping reaches 1e12.  Raises
    DivergedBehindCamera when the majority of points sit at non-positive
    depth.

    ``initial`` may also be a PoseStack of M poses, with pixels (M, n, 2).
    Every round takes one batched trial step for all members, each with its
    own damping, admitted points and stop test.  A ``running`` mask gates
    every update: a member that has stopped keeps its row and rides along
    unchanged, so each takes exactly the steps it would take alone.  The
    result is then a list with one PnPSolution or DivergedBehindCamera per
    member.  A caller that has validated its inputs passes the points'
    DegeneracyReport as ``report``, which skips both the validation and the
    check.
    """
    if report is None:
        pts3, pix, w = _validated(pts3, pix, w)
        report = check_degeneracy(pts3)
    if pix.shape[:-2] != np.shape(initial.rotation)[:-2]:
        raise ValueError("expected one (n, 2) pixel set per initial pose")
    n = len(pts3)
    rot = np.asarray(initial.rotation, dtype=float).reshape(-1, 3, 3)
    trans = np.asarray(initial.translation, dtype=float).reshape(-1, 3)
    px = pix.reshape(-1, n, 2)
    m = len(rot)
    floor = 1e-16 * w.sum()
    resid, jac, z = linearize_reprojection(PoseStack(rot, trans), pts3, px, k)
    norms = np.hypot(resid[..., 0], resid[..., 1])
    w_eff = np.where(z <= MIN_DEPTH, 0.0, w)
    held_out = w_eff == 0.0  # points behind the camera, until they come back
    cost = _cost(norms, z, w_eff, robust)
    diverged = ~np.isfinite(cost)
    cost[diverged] = 0.0  # a diverged member never runs; zero keeps its masked arithmetic finite
    # Each member's state: pose, normal equations, residual norms, depths and
    # cost.  An accepted trial replaces a member's whole state at once.
    state = (rot, trans, *_normal_equations(resid, jac, norms, w_eff, robust), norms, z, cost)
    lam = np.full(m, DAMPING_INIT)
    n_steps = np.zeros(m, dtype=int)  # accepted steps
    running = ~diverged & (cost > floor)
    while running.any():
        rot, trans, h, g, damp, norms, z, cost = state
        step = _solve_each(h + _EYE6 * (lam[:, None] * damp)[:, None, :], -g)
        trial = retract(PoseStack(rot, trans), step)
        t_resid, t_jac, t_z = linearize_reprojection(trial, pts3, px, k)
        t_norms = np.hypot(t_resid[..., 0], t_resid[..., 1])
        new_cost = _cost(t_norms, t_z, w_eff, robust)
        better = running & (new_cost < cost)
        rel_drop = (cost - new_cost) / np.maximum(cost, 1e-300)
        if held_out.any():  # re-admit points that have come back in front of the camera
            revived = held_out & better[:, None] & (t_z > MIN_DEPTH)
            w_eff = np.where(revived, w, w_eff)
            held_out &= ~revived
            new_cost = np.where(revived.any(axis=-1), _cost(t_norms, t_z, w_eff, robust), new_cost)
        n_steps += better
        done = (rel_drop < FN_TOL) | (new_cost <= floor) | (n_steps >= MAX_ITERS)
        if better.any():
            system = _normal_equations(t_resid, t_jac, t_norms, w_eff, robust)
            trial_state = (*trial, *system, t_norms, t_z, new_cost)
            if not better.all():  # a member that did not improve keeps its state
                for new, kept in zip(trial_state, state):
                    np.copyto(new, kept, where=~better.reshape(-1, *(1,) * (new.ndim - 1)))
            state = trial_state
        # The cap changes no running member's stop test; it keeps a stopped
        # member's damping from overflowing however long the rest run.
        lam = np.where(better, np.maximum(lam / 3.0, 1e-12), np.minimum(lam * 10.0, 1e12))
        running &= ~np.where(better, done, (lam >= 1e12) | (np.abs(rel_drop) < FN_TOL))

    rot, trans, _, _, _, norms, z, _ = state
    norms = np.where(z > MIN_DEPTH, norms, math.inf)
    rms = np.sqrt(np.mean(norms**2, axis=-1))  # inf with any point behind the camera
    outcomes = [
        DivergedBehindCamera(f"the initial pose puts most of the {n} points behind it")
        if diverged[j]
        else PnPSolution(Pose(rot[j], trans[j]), float(rms[j]), norms[j], report)
        for j in range(m)
    ]
    return _raised(outcomes[0]) if isinstance(initial, Pose) else outcomes


def _linear_stage(
    pts3: np.ndarray, pix: np.ndarray, w: np.ndarray, k: CameraIntrinsics, report: DegeneracyReport
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The control-point candidates of each pixel set of a stack (S, n, 2):
    rotations (S, C, 3, 3), translations (S, C, 3) and costs (S, C).

    All candidates are scored in one projection by the plain cost
    ``refine_pose`` starts from: the points behind the camera weigh zero,
    and a candidate with most points behind the camera (or a case without
    a solution) costs inf.
    """
    r, t = _linear_candidates(pts3, pix, w, k, planar=report.classification == NEAR_PLANAR)
    pc = pts3 @ np.swapaxes(r, -1, -2) + t[..., None, :]
    resid, z, _ = _pixel_residuals(pc, pix[:, None], k)
    norms = np.hypot(resid[..., 0], resid[..., 1])
    return r, t, _cost(norms, z, np.where(z <= MIN_DEPTH, 0.0, w), robust=False)


def _no_candidate(t: np.ndarray) -> NumericalFailure:
    """The failure of a pixel set whose candidates, with translations t
    (C, 3), all cost inf."""
    if np.isfinite(t[:, 0]).any():
        return NumericalFailure("every control-point candidate puts most points behind the camera")
    return NumericalFailure("no usable control-point solution")


@contextlib.contextmanager
def _in_float_range():
    """Turn a float overflow or invalid operation (points or focal lengths
    whose squares pass the float range) into a NumericalFailure."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalFailure(f"the solve left the float range: {exc}") from exc


def solve_pnp_linear(pts3, pix, k: CameraIntrinsics, w=None) -> Pose:
    """Closed-form control-point pose estimate (no refinement).

    Each kernel case gives the pose of its linearized betas, unpolished;
    the one with the smallest reprojection cost wins, the earlier on a tie.
    """
    pts3, pix, w = _validated(pts3, pix, w)
    if pix.ndim != 2:
        raise ValueError(f"expected (n, 2) pixels, got {pix.shape}")
    with _in_float_range():
        r, t, costs = _linear_stage(pts3, pix[None], w, k, _checked_points(pts3))
    best = int(np.argmin(costs[0]))
    if not math.isfinite(costs[0, best]):
        raise _no_candidate(t[0])
    return Pose(r[0, best], t[0, best])


def solve_pnp(pts3, pix, k: CameraIntrinsics, w=None, *, robust: bool = False):
    """Full pipeline: degeneracy check, linear solve, refinement.

    Takes (n, 3) object points, (n, 2) pixels and optional (n,) weights.
    A zero weight removes its pair before anything else sees it, so the
    solution's per_point_residuals and its report's n_points count only the
    pairs of positive weight.  Near-planar point sets refine from every
    linear candidate (multi-start) because the planar problem has a
    two-fold ambiguity the closed form may land on the wrong side of.
    Candidates rank by cost, equal costs in case order; the best-ranked
    start's outcome stands unless a later start refines to a lower rms.  A
    refined pose that leaves any point behind the camera is a
    DivergedBehindCamera, never a solution.

    ``pix`` may also be a stack (S, n, 2) of pixel sets that share the
    points and weights.  The stack is solved in one pass, the multi-start
    candidates of every set refined as members of one ``refine_pose``
    stack, and the result is a list with one PnPSolution or
    CalibrationError per set.  Invalid input, a degenerate point set and
    a step that leaves float range still raise: they fail every set alike.
    """
    pts3, pix, w = _validated(pts3, pix, w)
    with _in_float_range():
        report = _checked_points(pts3)
        stack = pix.reshape(-1, *pix.shape[-2:])
        r, t, costs = _linear_stage(pts3, stack, w, k, report)
        n_starts = None if report.classification == NEAR_PLANAR else 1
        ranked = np.argsort(costs, axis=-1, kind="stable")[:, :n_starts]
        # Each set's usable starts, cheapest first: inf costs sort last.
        owner, rank = np.nonzero(np.isfinite(np.take_along_axis(costs, ranked, axis=-1)))
        case = ranked[owner, rank]
        starts = PoseStack(r[owner, case], t[owner, case])
        refined = refine_pose(starts, pts3, stack[owner], k, w, robust=robust, report=report)
    outcomes = [_no_candidate(ts) for ts in t]
    for s, first, sol in zip(owner.tolist(), (rank == 0).tolist(), refined):
        if isinstance(sol, PnPSolution) and not math.isfinite(sol.rms_reprojection_error):
            n_behind = int(np.isinf(sol.per_point_residuals).sum())
            sol = DivergedBehindCamera(
                f"the refined pose leaves {n_behind} of {len(pts3)} points behind it"
            )
        best = getattr(outcomes[s], "rms_reprojection_error", math.inf)
        if first or (isinstance(sol, PnPSolution) and sol.rms_reprojection_error < best):
            outcomes[s] = sol
    return outcomes if pix.ndim == 3 else _raised(outcomes[0])
