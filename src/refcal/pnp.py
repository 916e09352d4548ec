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
from .geometry import MIN_DEPTH, CameraIntrinsics, Pose, rotation_about_axis

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
    ctrl = [c0]
    for i in range(n_dirs):
        ctrl.append(c0 + math.sqrt(max(evals[i], 1e-16)) * evecs[:, i])
    return np.array(ctrl)


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
    rows = np.zeros((2 * n, 3 * m))
    sw = np.sqrt(w)
    for j in range(m):
        a = alphas[:, j]
        rows[0::2, 3 * j] = a * k.fx * sw
        rows[0::2, 3 * j + 2] = a * (k.cx - pix[:, 0]) * sw
        rows[1::2, 3 * j + 1] = a * k.fy * sw
        rows[1::2, 3 * j + 2] = a * (k.cy - pix[:, 1]) * sw
    try:
        _, evecs = np.linalg.eigh(rows.T @ rows)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("null-space extraction failed") from exc
    return evecs[:, :n_vecs].T.reshape(n_vecs, m, 3)


def _beta_init(dv: np.ndarray, rho: np.ndarray, case: int) -> np.ndarray:
    """Linearized distance-constraint solution for the first `case` betas.

    ``dv`` (N, P, 3) holds each kernel vector's control-point differences.
    """
    if case == 1:
        norms2 = (dv[0] ** 2).sum(axis=1)
        denom = float(norms2.sum())
        if denom < 1e-30:
            raise NumericalFailure("degenerate kernel vector")
        return np.array([float((np.sqrt(rho) * np.sqrt(norms2)).sum() / denom)])

    def dot(a: int, b: int) -> np.ndarray:
        return (dv[a] * dv[b]).sum(axis=1)

    # Unknowns b11, b12, b22 (case 2), then b13, b23, b33 (case 3).
    cols = [dot(0, 0), 2 * dot(0, 1), dot(1, 1), 2 * dot(0, 2), 2 * dot(1, 2), dot(2, 2)]
    sol, *_ = np.linalg.lstsq(np.column_stack(cols[: 3 * (case - 1)]), rho, rcond=None)
    betas = [math.sqrt(abs(sol[0])), math.copysign(math.sqrt(abs(sol[2])), sol[1])]
    if case == 3:
        betas.append(math.copysign(math.sqrt(abs(sol[5])), sol[3]))
    return np.array(betas)


def _refine_betas(dv: np.ndarray, rho: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the squared control-point distance constraints."""
    dv = dv[: len(betas)]
    flat = dv.reshape(len(betas), -1)  # (k, P * 3)
    for _ in range(8):
        dcc = (betas @ flat).reshape(-1, 3)  # (P, 3)
        resid = (dcc**2).sum(axis=1) - rho
        jac = 2.0 * (dv * dcc).sum(axis=2).T  # (P, k)
        try:
            step = np.linalg.solve(jac.T @ jac, -(jac.T @ resid))
        except np.linalg.LinAlgError:
            break  # a singular system: keep the current betas
        betas = betas + step
        if np.max(np.abs(step)) < 1e-12:
            break
    return betas


def _pose_from_betas(
    kernel: np.ndarray,
    betas: np.ndarray,
    alphas: np.ndarray,
    pts3: np.ndarray,
    w: np.ndarray,
) -> Pose:
    cc = np.tensordot(betas, kernel[: len(betas)], axes=1)  # (m, 3)
    xc = alphas @ cc
    wsum = float(w.sum())
    if (w * xc[:, 2]).sum() / wsum < 0:
        xc = -xc
    # Weighted Kabsch alignment: R @ pts3 + t ~= xc.
    c_src = (w[:, None] * pts3).sum(axis=0) / wsum
    c_dst = (w[:, None] * xc).sum(axis=0) / wsum
    cross = ((xc - c_dst) * w[:, None]).T @ (pts3 - c_src)
    try:
        u, _, vt = np.linalg.svd(cross)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("pose alignment SVD failed") from exc
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    return Pose(r, c_dst - r @ c_src)


def _linear_candidates(
    pts3: np.ndarray,
    pix: np.ndarray,
    w: np.ndarray,
    k: CameraIntrinsics,
    planar: bool,
) -> list[Pose]:
    ctrl = _control_points(pts3, w, planar)
    alphas = _barycentric(pts3, ctrl)
    kernel = _kernel_basis(alphas, pix, w, k, n_vecs=3)
    i, j = np.array(list(combinations(range(len(ctrl)), 2))).T
    rho = ((ctrl[i] - ctrl[j]) ** 2).sum(axis=1)
    dv = kernel[:, i] - kernel[:, j]  # (N, P, 3)
    cases = (1, 2) if planar else (1, 2, 3)
    candidates = []
    for case in cases:
        try:
            betas = _refine_betas(dv, rho, _beta_init(dv, rho, case))
            pose = _pose_from_betas(kernel, betas, alphas, pts3, w)
        except NumericalFailure:
            continue
        if np.all(np.isfinite(pose.rotation)) and np.all(np.isfinite(pose.translation)):
            candidates.append(pose)
    if not candidates:
        raise NumericalFailure("no usable control-point solution")
    return candidates


def retract(pose: Pose, delta: np.ndarray) -> Pose:
    """Apply a local increment (rotation vector, translation) to a pose."""
    d = np.asarray(delta, dtype=float).reshape(6)
    angle = float(np.linalg.norm(d[:3]))
    if angle > 0:
        dr = rotation_about_axis(d[:3] / angle, angle)
    else:
        dr = np.eye(3)
    return Pose(dr @ pose.rotation, pose.translation + d[3:])


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
    z = pc[:, 2]
    good = z > MIN_DEPTH
    zs = np.where(good, z, 1.0)
    u = k.fx * pc[:, 0] / zs + k.cx
    v = k.fy * pc[:, 1] / zs + k.cy
    resid = np.column_stack([u, v]) - pix
    resid[~good] = 0.0
    n = pts3.shape[0]
    # d(pixel)/d(camera point)
    a = np.zeros((n, 2, 3))
    a[:, 0, 0] = k.fx / zs
    a[:, 0, 2] = -k.fx * pc[:, 0] / zs**2
    a[:, 1, 1] = k.fy / zs
    a[:, 1, 2] = -k.fy * pc[:, 1] / zs**2
    # d(camera point)/d(rotation increment) = -[R p]x
    sk = np.zeros((n, 3, 3))
    sk[:, 0, 1] = -rotated[:, 2]
    sk[:, 0, 2] = rotated[:, 1]
    sk[:, 1, 0] = rotated[:, 2]
    sk[:, 1, 2] = -rotated[:, 0]
    sk[:, 2, 0] = -rotated[:, 1]
    sk[:, 2, 1] = rotated[:, 0]
    jac = np.zeros((n, 2, 6))
    jac[:, :, :3] = np.einsum("nij,njk->nik", a, -sk)
    jac[:, :, 3:] = a
    jac[~good] = 0.0
    return resid, jac, z


def _residuals(
    pose: Pose, pts3: np.ndarray, pix: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """The residuals (n, 2) and depths (n,) of ``linearize_reprojection``,
    without the Jacobian."""
    pc = pts3 @ pose.rotation.T + pose.translation
    z = pc[:, 2]
    good = z > MIN_DEPTH
    zs = np.where(good, z, 1.0)
    resid = np.column_stack([k.fx * pc[:, 0] / zs + k.cx, k.fy * pc[:, 1] / zs + k.cy]) - pix
    resid[~good] = 0.0
    return resid, z


def _robust_weights(resid_norms: np.ndarray, opts: RefineOptions) -> np.ndarray:
    if not opts.robust:
        return np.ones_like(resid_norms)
    s = opts.huber_scale_px
    return np.where(resid_norms <= s, 1.0, s / np.maximum(resid_norms, 1e-30))


def _cost(
    pose: Pose, pts3, pix, w_eff, k, opts
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted (optionally Huber) reprojection cost; inf if an active point
    falls behind the camera or most of the cloud does."""
    resid, z = _residuals(pose, pts3, pix, k)
    behind = z <= MIN_DEPTH
    if 2 * int(behind.sum()) > len(z) or np.any(behind & (w_eff > 0)):
        return math.inf, resid, z
    norms = np.linalg.norm(resid, axis=1)
    if opts.robust:
        s = opts.huber_scale_px
        rho = np.where(norms <= s, norms**2, s * (2.0 * norms - s))
    else:
        rho = norms**2
    return float((w_eff * rho).sum()), resid, z


def _front_weights(pose: Pose, pts3: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w`` with the points at or behind the camera plane at ``pose`` zeroed."""
    z = (pts3 @ pose.rotation.T + pose.translation)[:, 2]
    return np.where(z <= MIN_DEPTH, 0.0, w)


def refine_pose(
    initial: Pose, pts3, pix, k: CameraIntrinsics, w=None, opts: RefineOptions | None = None
) -> PnPSolution:
    """Damped least-squares (Levenberg-Marquardt) reprojection refinement.

    Takes (n, 3) object points, (n, 2) pixels and optional (n,) weights.
    Points behind the camera at the initial pose are down-weighted to zero
    and re-checked after each accepted step; accepted steps never increase
    the cost.  Raises DivergedBehindCamera when the majority of points sit
    at non-positive depth.
    """
    opts = opts or RefineOptions()
    pts3, pix, w_user = _validated(pts3, pix, w)
    report = check_degeneracy(pts3)
    n = len(pts3)
    w_eff = _front_weights(initial, pts3, w_user)

    pose = initial
    cost, _, _ = _cost(pose, pts3, pix, w_eff, k, opts)
    if not math.isfinite(cost):
        raise DivergedBehindCamera(f"the initial pose puts most of the {n} points behind it")
    lam = opts.damping_init
    for _ in range(opts.max_iters):
        resid, jac, _ = linearize_reprojection(pose, pts3, pix, k)
        norms = np.linalg.norm(resid, axis=1)
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
            candidate = retract(pose, step)
            new_cost, _, z_new = _cost(candidate, pts3, pix, w_eff, k, opts)
            if new_cost < cost:
                rel_drop = (cost - new_cost) / max(cost, 1e-300)
                pose, cost = candidate, new_cost
                lam = max(lam / 3.0, 1e-12)
                # Re-admit points that have come back in front of the camera.
                revived = (w_eff == 0.0) & (w_user > 0.0) & (z_new > MIN_DEPTH)
                if np.any(revived):
                    w_eff = np.where(revived, w_user, w_eff)
                    cost, _, _ = _cost(pose, pts3, pix, w_eff, k, opts)
                accepted = True
                break
            lam *= 10.0
        if not accepted or rel_drop < opts.fn_tol:
            break

    resid, z = _residuals(pose, pts3, pix, k)
    norms = np.where(z > MIN_DEPTH, np.linalg.norm(resid, axis=1), math.inf)
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

    Each candidate is scored by its plain reprojection cost, with the points
    behind the camera zeroed as ``refine_pose`` zeroes them at its start; a
    candidate with most points behind the camera scores inf and is left out.
    """
    report = check_degeneracy(pts3)
    if report.classification in (DEGENERATE, NEAR_COLLINEAR):
        raise DegenerateConfiguration(
            f"point arrangement is {report.classification} "
            f"(n={report.n_points}); sweep a wider, non-collinear volume",
            report=report,
        )
    candidates = _linear_candidates(pts3, pix, w, k, planar=report.classification == NEAR_PLANAR)
    plain = RefineOptions()
    costs = [_cost(p, pts3, pix, _front_weights(p, pts3, w), k, plain)[0] for p in candidates]
    ranked = [candidates[i] for i in np.argsort(costs, kind="stable") if math.isfinite(costs[i])]
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
