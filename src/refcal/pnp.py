"""Perspective-n-Point pose estimation from 2D-3D correspondences.

The solver is self-contained: a control-point (EPnP-style) closed-form
stage provides the initial pose, and damped least squares on the pixel
reprojection error refines it.  Degeneracy of the 3D point arrangement is
diagnosed before solving; collinear or too-small point sets are rejected
because they admit no well-conditioned unique pose.

Pose convention: the returned pose maps object-frame points into the
camera frame, so ``project(k, apply(pose, p3))`` reproduces the pixel.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DivergedBehindCamera,
    EmptyInput,
    NumericalFailure,
)
from .geometry import MIN_DEPTH, CameraIntrinsics, Pose, skew

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


@dataclass(frozen=True)
class DegeneracyReport:
    n_points: int
    spread_singular_values: np.ndarray
    classification: str

    def __post_init__(self):
        sv = np.array(self.spread_singular_values, dtype=float).reshape(3)
        sv.setflags(write=False)
        object.__setattr__(self, "spread_singular_values", sv)


@dataclass(frozen=True)
class PnPSolution:
    pose: Pose
    rms_reprojection_error: float
    per_point_residuals: np.ndarray
    condition_report: DegeneracyReport


@dataclass(frozen=True)
class RefineOptions:
    max_iters: int = 100
    fn_tol: float = 1e-10
    damping_init: float = 1e-3
    robust: bool = False
    huber_scale_px: float = 3.0


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
    """(n, 3) points, (n, 2) pixels and (n,) weights (all ones when None) as
    float arrays; rejects mismatched shapes, non-finite coordinates and
    negative weights, and raises EmptyInput when n is zero."""
    pts3 = np.asarray(pts3, dtype=float)
    pix = np.asarray(pix, dtype=float)
    n = len(pts3) if pts3.ndim else 0
    w = np.ones(n) if w is None else np.asarray(w, dtype=float)
    if pts3.shape != (n, 3) or pix.shape != (n, 2) or w.shape != (n,):
        raise ValueError(
            f"expected (n, 3) points, (n, 2) pixels and (n,) weights, got "
            f"{pts3.shape}, {pix.shape} and {w.shape}"
        )
    if n == 0:
        raise EmptyInput("no correspondences given")
    if not (np.all(np.isfinite(pts3)) and np.all(np.isfinite(pix))):
        raise ValueError("correspondence coordinates must be finite")
    if not np.all(w >= 0):
        raise ValueError("correspondence weights must be nonnegative")
    return pts3, pix, w


def _control_points(pts3: np.ndarray, w: np.ndarray, planar: bool) -> np.ndarray:
    """Centroid plus principal-direction points scaled by the spread."""
    wsum = float(w.sum())
    if wsum <= 0:
        raise NumericalFailure("all correspondence weights are zero")
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
    """Smallest right-singular vectors of the 2n x 3m projection system."""
    n, m = alphas.shape
    rows = np.zeros((n, 2, m, 3))  # point, pixel axis, control point, coordinate
    sw = np.sqrt(w)[:, None]
    rows[:, 0, :, 0] = alphas * k.fx * sw
    rows[:, 0, :, 2] = alphas * (k.cx - pix[:, :1]) * sw
    rows[:, 1, :, 1] = alphas * k.fy * sw
    rows[:, 1, :, 2] = alphas * (k.cy - pix[:, 1:]) * sw
    rows = rows.reshape(2 * n, 3 * m)
    try:
        _, evecs = np.linalg.eigh(rows.T @ rows)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("null-space extraction failed") from exc
    return evecs[:, :n_vecs].T.reshape(n_vecs, m, 3)


def _initial_betas(gram: np.ndarray, rho: np.ndarray, n_cases: int) -> np.ndarray:
    """Linearized distance-constraint betas of kernel cases 1..n_cases,
    zero-padded to (C, 3); a case with a degenerate kernel vector gets NaN.

    ``gram`` (P, 3, 3) holds the Gram matrix of each control-point pair's
    kernel differences.  Case 1 fits one scale to the distances; cases 2
    and 3 fit the first three or all six columns of one system in the
    products b11, b12, b22, b13, b23, b33, through its normal equations.
    """
    betas = np.zeros((n_cases, 3))
    norms2 = gram[:, 0, 0]
    denom = float(norms2.sum())
    betas[0, 0] = (np.sqrt(rho) * np.sqrt(norms2)).sum() / denom if denom >= 1e-30 else np.nan
    cols = gram[:, [0, 0, 1, 0, 1, 2], [0, 1, 1, 2, 2, 2]] * [1.0, 2.0, 1.0, 2.0, 2.0, 1.0]
    used = np.repeat(np.tri(n_cases - 1, 2, dtype=bool), 3, axis=1)  # (C - 1, 6)
    lhs = np.where(used[:, :, None] & used[:, None, :], cols.T @ cols, np.eye(6))
    sol = _solve_each(lhs, np.where(used, cols.T @ rho, 0.0))
    signs = sol[:, [0, 1, 3]]
    signs[:, 0] = 1.0
    # Case 2 keeps b1, b2 and case 3 all three; b1 comes out positive.
    betas[1:] = np.copysign(np.sqrt(np.abs(sol[:, [0, 2, 5]])), signs) * np.tri(n_cases - 1, 3, 1)
    return betas


def _solve_each(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x (C, k) with h[c] @ x[c] = g[c]; a zero row where h[c] is singular."""
    try:
        return np.linalg.solve(h, g[..., None])[..., 0]
    except np.linalg.LinAlgError:  # some system is singular: solve one by one
        x = np.zeros_like(g)
        for c in range(len(g)):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[c] = np.linalg.solve(h[c], g[c])
        return x


def _refine_betas(gram: np.ndarray, rho: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the squared control-point distance constraints, run on
    all kernel cases at once.

    ``gram`` (P, 3, 3) is as in ``_initial_betas``; row c of ``betas`` (C, 3)
    holds case c + 1's betas, zero-padded.  A case stops once its step falls
    below 1e-12; a case whose normal equations are singular takes no step
    and keeps its current betas.
    """
    used = np.tri(len(betas), 3, dtype=bool)  # case c + 1 moves its first c + 1 betas
    gram = gram * (used[:, :, None] & used[:, None, :])[:, None]  # (C, P, 3, 3)
    pad = np.eye(3) * ~used[:, None, :]  # unit rows for the unused betas: zero steps
    betas = betas.copy()
    active = np.ones(len(betas), dtype=bool)
    for _ in range(8):
        jac = 2.0 * (gram @ betas[:, None, :, None])[..., 0]  # (C, P, 3)
        resid = 0.5 * (jac * betas[:, None]).sum(axis=2) - rho  # squared distances - rho
        jt = np.swapaxes(jac, 1, 2)
        step = _solve_each(jt @ jac + pad, -(jt @ resid[..., None])[..., 0])
        step[~active] = 0.0
        betas += step
        active &= np.max(np.abs(step), axis=1) >= 1e-12
        if not active.any():
            break
    return betas


def _linear_candidates(
    pts3: np.ndarray,
    pix: np.ndarray,
    w: np.ndarray,
    k: CameraIntrinsics,
    planar: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (C, 3, 3) and translations (C, 3) of the kernel cases with a
    solution, in case order: each case's control points, then one weighted
    Kabsch alignment (R @ pts3 + t ~= camera-frame points) per case."""
    ctrl = _control_points(pts3, w, planar)
    alphas = _barycentric(pts3, ctrl)
    kernel = _kernel_basis(alphas, pix, w, k, n_vecs=3)
    i, j = np.array(list(combinations(range(len(ctrl)), 2))).T
    rho = ((ctrl[i] - ctrl[j]) ** 2).sum(axis=1)
    dv = kernel[:, i] - kernel[:, j]  # (3, P, 3)
    gram = np.einsum("apd,bpd->pab", dv, dv)
    betas = _refine_betas(gram, rho, _initial_betas(gram, rho, 2 if planar else 3))
    betas = betas[np.all(np.isfinite(betas), axis=1)]
    if not len(betas):
        raise NumericalFailure("no usable control-point solution")
    xc = alphas @ (betas @ kernel.reshape(3, -1)).reshape(len(betas), -1, 3)  # (C, n, 3)
    wsum = float(w.sum())
    xc = np.where((xc[..., 2] @ w < 0)[:, None, None], -xc, xc)
    c_src = w @ pts3 / wsum
    c_dst = w @ xc / wsum  # (C, 3)
    cross = np.swapaxes((xc - c_dst[:, None]) * w[:, None], 1, 2) @ (pts3 - c_src)
    try:
        u, _, vt = np.linalg.svd(cross)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("pose alignment SVD failed") from exc
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[:, None]
    r = u @ vt
    return r, c_dst - r @ c_src


def retract(pose: Pose, delta: np.ndarray) -> Pose:
    """Apply a local increment (rotation vector, translation) to a pose."""
    d = np.asarray(delta, dtype=float).reshape(6)
    wx, wy, wz = float(d[0]), float(d[1]), float(d[2])
    angle = math.sqrt(wx * wx + wy * wy + wz * wz)
    if angle == 0:
        return Pose(pose.rotation, pose.translation + d[3:])
    x, y, z = wx / angle, wy / angle, wz / angle
    s, c = math.sin(angle), 1.0 - math.cos(angle)
    dr = np.array(
        [
            [1.0 - c * (y * y + z * z), c * x * y - s * z, c * x * z + s * y],
            [c * x * y + s * z, 1.0 - c * (x * x + z * z), c * y * z - s * x],
            [c * x * z - s * y, c * y * z + s * x, 1.0 - c * (x * x + y * y)],
        ]
    )
    return Pose(dr @ pose.rotation, pose.translation + d[3:])


def _pixel_residuals(
    pc: np.ndarray, pix: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals (..., n, 2) of camera-frame points (..., n, 3) against the
    pixels, zero for points at or behind the camera plane, with the depths
    (..., n) and the depths used as divisors (1 where behind)."""
    z = pc[..., 2]
    good = z > MIN_DEPTH
    zs = np.where(good, z, 1.0)
    resid = pc[..., :2] * (k.fx, k.fy) / zs[..., None] + (k.cx, k.cy) - pix
    resid[~good] = 0.0
    return resid, z, zs


# -[v]x = v @ _NEG_SKEW, reshaped to 3 x 3: the cross-product matrices of
# many vectors in one product.
_NEG_SKEW = -np.array([skew(e) for e in np.eye(3)]).reshape(3, 9)


def linearize_reprojection(
    pose: Pose, pts3: np.ndarray, pix: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals and Jacobian of the pixel error w.r.t. a local increment.

    Returns (residuals (n, 2), jacobian (n, 2, 6), depth (n,)); the
    increment convention matches ``retract``.  Rows for points at or behind
    the camera plane are zeroed and must be masked by the caller.
    """
    rotated = pts3 @ pose.rotation.T
    pc = rotated + pose.translation
    resid, z, zs = _pixel_residuals(pc, pix, k)
    n = pts3.shape[0]
    # d(pixel)/d(camera point)
    a = np.zeros((n, 2, 3))
    a[:, 0, 0] = k.fx / zs
    a[:, 0, 2] = -k.fx * pc[:, 0] / zs**2
    a[:, 1, 1] = k.fy / zs
    a[:, 1, 2] = -k.fy * pc[:, 1] / zs**2
    jac = np.empty((n, 2, 6))
    # d(camera point)/d(rotation increment) = -[R p]x
    jac[:, :, :3] = a @ (rotated @ _NEG_SKEW).reshape(n, 3, 3)
    jac[:, :, 3:] = a
    jac[~(z > MIN_DEPTH)] = 0.0
    return resid, jac, z


def _robust_weights(resid_norms: np.ndarray, opts: RefineOptions) -> np.ndarray:
    if not opts.robust:
        return np.ones_like(resid_norms)
    s = opts.huber_scale_px
    return np.where(resid_norms <= s, 1.0, s / np.maximum(resid_norms, 1e-30))


def _cost(norms: np.ndarray, z: np.ndarray, w_eff: np.ndarray, opts: RefineOptions) -> float:
    """Weighted (optionally Huber) cost of the residual norms (n,) at depths
    (n,); inf if an active point is behind the camera or most of the cloud
    is."""
    behind = z <= MIN_DEPTH
    n_behind = np.count_nonzero(behind)
    if n_behind and (2 * n_behind > len(z) or np.any(w_eff[behind] > 0)):
        return math.inf
    if opts.robust:
        s = opts.huber_scale_px
        rho = np.where(norms <= s, norms**2, s * (2.0 * norms - s))
    else:
        rho = norms**2
    return float((w_eff * rho).sum())


def refine_pose(
    initial: Pose, pts3, pix, k: CameraIntrinsics, w=None, opts: RefineOptions | None = None
) -> PnPSolution:
    """Damped least-squares (Levenberg-Marquardt) reprojection refinement.

    Takes (n, 3) object points, (n, 2) pixels and optional (n,) weights.
    Points behind the camera at the initial pose are down-weighted to zero
    and re-checked after each accepted step; accepted steps never increase
    the cost.  Each trial pose is linearized once: an accepted trial's
    residuals, Jacobian and depths serve the next step and the result.
    Raises DivergedBehindCamera when the majority of points sit at
    non-positive depth.
    """
    opts = opts or RefineOptions()
    pts3, pix, w_user = _validated(pts3, pix, w)
    report = check_degeneracy(pts3)
    n = len(pts3)
    pose = initial
    resid, jac, z = linearize_reprojection(pose, pts3, pix, k)
    norms = np.linalg.norm(resid, axis=1)
    w_eff = np.where(z <= MIN_DEPTH, 0.0, w_user)
    cost = _cost(norms, z, w_eff, opts)
    if not math.isfinite(cost):
        raise DivergedBehindCamera(f"the initial pose puts most of the {n} points behind it")
    lam = opts.damping_init
    for _ in range(opts.max_iters):
        w_total = w_eff * _robust_weights(norms, opts)
        sw = np.sqrt(w_total)[:, None]
        jw = (jac * sw[..., None]).reshape(2 * n, 6)
        rw = (resid * sw).reshape(2 * n)
        g = jw.T @ rw
        if np.max(np.abs(g)) < 1e-14:
            break
        h = jw.T @ jw
        diag = np.maximum(np.diag(h), 1e-12)
        accepted = False
        while lam < 1e12:
            try:
                step = np.linalg.solve(h + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = retract(pose, step)
            t_resid, t_jac, t_z = linearize_reprojection(trial, pts3, pix, k)
            t_norms = np.linalg.norm(t_resid, axis=1)
            new_cost = _cost(t_norms, t_z, w_eff, opts)
            if new_cost < cost:
                rel_drop = (cost - new_cost) / max(cost, 1e-300)
                pose, resid, jac, z, norms = trial, t_resid, t_jac, t_z, t_norms
                cost = new_cost
                lam = max(lam / 3.0, 1e-12)
                # Re-admit points that have come back in front of the camera.
                revived = (w_eff == 0.0) & (w_user > 0.0) & (z > MIN_DEPTH)
                if np.any(revived):
                    w_eff = np.where(revived, w_user, w_eff)
                    cost = _cost(norms, z, w_eff, opts)
                accepted = True
                break
            lam *= 10.0
        if not accepted or rel_drop < opts.fn_tol:
            break

    norms = np.where(z > MIN_DEPTH, norms, math.inf)
    rms = math.sqrt(float(np.mean(norms**2))) if np.all(np.isfinite(norms)) else math.inf
    return PnPSolution(
        pose=pose,
        rms_reprojection_error=rms,
        per_point_residuals=norms,
        condition_report=report,
    )


def _linear_stage(
    pts3: np.ndarray, pix: np.ndarray, w: np.ndarray, k: CameraIntrinsics
) -> tuple[DegeneracyReport, list[Pose]]:
    """Degeneracy guard, then the control-point candidates cheapest first.

    All candidates are scored in one projection by their plain reprojection
    cost, with the points behind the camera zeroed as ``refine_pose`` zeroes
    them at its start; a candidate with most points behind the camera scores
    inf and is left out.  Equal costs keep case order.
    """
    report = check_degeneracy(pts3)
    if report.classification in (DEGENERATE, NEAR_COLLINEAR):
        raise DegenerateConfiguration(
            f"point arrangement is {report.classification} "
            f"(n={report.n_points}); sweep a wider, non-collinear volume",
            report=report,
        )
    r, t = _linear_candidates(pts3, pix, w, k, planar=report.classification == NEAR_PLANAR)
    resid, z, _ = _pixel_residuals(pts3 @ np.swapaxes(r, 1, 2) + t[:, None], pix, k)
    front = z > MIN_DEPTH
    costs = (np.where(front, w, 0.0) * (resid**2).sum(axis=2)).sum(axis=1)
    costs[2 * (~front).sum(axis=1) > len(pts3)] = math.inf
    ranked = [Pose(r[c], t[c]) for c in np.argsort(costs, kind="stable") if math.isfinite(costs[c])]
    if not ranked:
        raise NumericalFailure("every control-point candidate puts most points behind the camera")
    return report, ranked


def solve_pnp_linear(pts3, pix, k: CameraIntrinsics, w=None) -> Pose:
    """Closed-form control-point pose estimate (no refinement).

    Among the kernel-combination cases, the pose with the smallest
    reprojection cost wins.
    """
    pts3, pix, w = _validated(pts3, pix, w)
    return _linear_stage(pts3, pix, w, k)[1][0]


def solve_pnp(
    pts3, pix, k: CameraIntrinsics, w=None, opts: RefineOptions | None = None
) -> PnPSolution:
    """Full pipeline: degeneracy check, linear solve, refinement.

    Takes (n, 3) object points, (n, 2) pixels and optional (n,) weights.
    Near-planar point sets refine from every linear candidate (multi-start)
    because the planar problem has a two-fold ambiguity the closed form may
    land on the wrong side of.
    """
    pts3, pix, w = _validated(pts3, pix, w)
    report, candidates = _linear_stage(pts3, pix, w, k)
    if report.classification != NEAR_PLANAR:
        candidates = candidates[:1]
    best: PnPSolution | None = None
    for cand in candidates:
        try:
            sol = refine_pose(cand, pts3, pix, k, w, opts)
        except (DivergedBehindCamera, NumericalFailure):
            continue
        if best is None or sol.rms_reprojection_error < best.rms_reprojection_error:
            best = sol
    if best is None:
        raise NumericalFailure("refinement failed from every linear candidate")
    return best
