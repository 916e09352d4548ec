"""Rigid-body transforms, pinhole projection, and pose error metrics.

Conventions:

- A ``Pose`` maps points from its source frame into its target frame,
  ``apply(pose, p) = R @ p + t``.  Composition ``compose(a, b)`` applies
  ``b`` first, then ``a``.
- Rotations are stored as 3x3 orthonormal matrices; quaternions use the
  (w, x, y, z) order and appear only at serialization boundaries.
- 3D points are plain float arrays of shape (3,) or (N, 3); pixels are
  arrays of shape (2,) or (N, 2).  Units are meters, radians, and pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDepth

# Orthonormality drift beyond this triggers re-projection onto SO(3).
ORTHONORMAL_TOL = 1e-9
# Depth at or below this counts as "behind the camera".
MIN_DEPTH = 1e-9


@dataclass(frozen=True)
class Pose:
    """Rigid transform: 3x3 rotation plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float).reshape(3, 3)
        t = np.array(self.translation, dtype=float).reshape(3)
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def matrix(self) -> np.ndarray:
        """The equivalent 4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got {self.fx}, {self.fy}")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    @classmethod
    def from_horizontal_fov(cls, fov_deg: float, width: int, height: int) -> "CameraIntrinsics":
        """Square-pixel intrinsics from a horizontal field of view in degrees."""
        if not 0 < fov_deg < 180:
            raise ValueError(f"horizontal FOV must be in (0, 180) degrees, got {fov_deg}")
        f = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
        return cls(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


def identity() -> Pose:
    return Pose(np.eye(3), np.zeros(3))


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (polar projection)."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=float))
    if np.linalg.det(u @ vt) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
    return u @ vt


def compose_stack(ra, ta, rb, tb) -> tuple[np.ndarray, np.ndarray]:
    """compose() over stacks of rotations (N, 3, 3) and translations (N, 3),
    either side possibly one transform for all N; each product rotation is
    re-projected onto SO(3) on its own if it drifts past ORTHONORMAL_TOL."""
    r = np.matmul(ra, rb)
    # The Gram product of a contiguous transpose takes BLAS's fast path; one
    # global max (0 for an empty stack) clears a stack in which no rotation
    # has drifted.
    drift = np.matmul(np.ascontiguousarray(np.swapaxes(r, -1, -2)), r)
    drift -= np.eye(3)
    np.abs(drift, out=drift)
    if drift.max(initial=0.0) > ORTHONORMAL_TOL:
        for i in np.flatnonzero(drift.max(axis=(-2, -1)) > ORTHONORMAL_TOL):
            r[i] = orthonormalize(r[i])
    return r, np.matmul(ra, np.asarray(tb)[..., None])[..., 0] + ta


def invert_stack(r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """invert() over stacks: rotations (N, 3, 3) and translations (N, 3)."""
    rt = np.swapaxes(r, -1, -2)
    return rt, -(rt @ np.asarray(t)[..., None])[..., 0]


def apply_stack(r: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Transform one point (3,) or one point per frame (N, 3) by each of a
    stack of transforms, rotations (N, 3, 3) and translations (N, 3)."""
    return (r @ np.asarray(points, dtype=float)[..., None])[..., 0] + t


def compose(a: Pose, b: Pose) -> Pose:
    """a . b: apply b first, then a."""
    r, t = compose_stack(
        a.rotation[None], a.translation[None], b.rotation[None], b.translation[None]
    )
    return Pose(r[0], t[0])


def invert(p: Pose) -> Pose:
    rt = p.rotation.T
    return Pose(rt, -(rt @ p.translation))


def apply(p: Pose, points: np.ndarray) -> np.ndarray:
    """Transform one (3,) point or a batch (N, 3) of points."""
    pts = np.asarray(points, dtype=float)
    return pts @ p.rotation.T + p.translation


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix (3, 3) of a vector (3,), or a stack of them
    (..., 3, 3) of vectors (..., 3)."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    k = np.zeros((*v.shape, 3))
    k[..., 0, 1], k[..., 0, 2] = -z, y
    k[..., 1, 0], k[..., 1, 2] = z, -x
    k[..., 2, 0], k[..., 2, 1] = -y, x
    return k


def rotation_about_axis(axis: np.ndarray, angle) -> np.ndarray:
    """Rodrigues rotation about a unit axis; arrays of axes (..., 3) and
    angles broadcast to a stack of rotations, shape (..., 3, 3)."""
    k = skew(axis)
    a = np.asarray(angle, dtype=float)[..., None, None]
    return np.eye(3) + np.sin(a) * k + (1.0 - np.cos(a)) * (k @ k)


def quaternion_to_matrix(q_wxyz: np.ndarray) -> np.ndarray:
    w, x, y, z = np.asarray(q_wxyz, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0, via the max-pivot branch."""
    m = np.asarray(r, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def pose_from_quaternion(translation: np.ndarray, q_wxyz: np.ndarray) -> Pose:
    """Build a pose from a serialized (w, x, y, z) quaternion.

    The quaternion actually used (normalized only when measurably off unit
    norm) is cached on the pose so that re-serialization reproduces the
    ingested value bit for bit.
    """
    q = np.array(q_wxyz, dtype=float).reshape(4)
    n2 = float(q @ q)
    if n2 < 1e-12:
        raise ValueError("quaternion norm too small to define a rotation")
    if abs(n2 - 1.0) > 1e-12:
        q = q / math.sqrt(n2)
    p = Pose(quaternion_to_matrix(q), translation)
    q.setflags(write=False)
    object.__setattr__(p, "_quat_cache", q)
    return p


def pose_quaternion(p: Pose) -> np.ndarray:
    """(w, x, y, z) quaternion of a pose, reusing the ingested one if any."""
    cached = getattr(p, "_quat_cache", None)
    if cached is not None:
        return cached
    return matrix_to_quaternion(p.rotation)


def pose_from_matrix(m: np.ndarray) -> Pose:
    m = np.asarray(m, dtype=float).reshape(4, 4)
    if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-9:
        raise ValueError("last row of a homogeneous transform must be (0, 0, 0, 1)")
    return Pose(m[:3, :3], m[:3, 3])


def project(k: CameraIntrinsics, p_cam: np.ndarray) -> np.ndarray:
    """Perspective projection of camera-frame points onto the image plane.

    Raises NonPositiveDepth if any point has z <= 1e-9.
    """
    pts = np.asarray(p_cam, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    z = pts[:, 2]
    if np.any(z <= MIN_DEPTH):
        raise NonPositiveDepth(
            f"{int(np.sum(z <= MIN_DEPTH))} point(s) at or behind the camera plane"
        )
    uv = np.empty((pts.shape[0], 2))
    uv[:, 0] = k.fx * pts[:, 0] / z + k.cx
    uv[:, 1] = k.fy * pts[:, 1] / z + k.cy
    return uv[0] if single else uv


def unproject(k: CameraIntrinsics, pixel: np.ndarray, depth: float) -> np.ndarray:
    """Camera-frame point for a pixel at a given positive depth."""
    if depth <= MIN_DEPTH:
        raise NonPositiveDepth(f"depth must exceed {MIN_DEPTH}, got {depth}")
    u, v = np.asarray(pixel, dtype=float)
    return np.array([(u - k.cx) * depth / k.fx, (v - k.cy) * depth / k.fy, depth])


def rotation_error(a: Pose, b: Pose) -> float:
    """Geodesic angle between two rotations, in [0, pi] radians.

    atan2 of the sine (from the skew part) and the cosine (from the trace)
    stays accurate at every angle, where acos of the trace alone cannot
    resolve angles below about 2e-8 rad.
    """
    r = a.rotation @ b.rotation.T
    s = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return math.atan2(float(np.linalg.norm(s)) / 2.0, (np.trace(r) - 1.0) / 2.0)


def translation_error(a: Pose, b: Pose) -> np.ndarray:
    """Per-axis absolute translation differences (e_x, e_y, e_z) in meters."""
    return np.abs(a.translation - b.translation)
