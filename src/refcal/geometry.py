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


def freeze(obj, name: str, dtype=float, shape=None, ndmin: int = 0) -> np.ndarray:
    """Set a frozen dataclass's field to a read-only C-order copy (equal values,
    equal bits in BLAS products) of dtype, ndmin dimensions and shape; an
    array whose trailing dimensions differ from a multi-dimensional shape's
    raises ValueError instead of being reshaped."""
    a = np.array(getattr(obj, name), dtype=dtype, order="C", ndmin=ndmin)
    if isinstance(shape, tuple) and a.shape[1:] != shape[1:]:
        raise ValueError(f"{name} must have shape {str(shape).replace('-1', 'n')}, got {a.shape}")
    if shape is not None:
        a = a.reshape(shape)
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


@dataclass(frozen=True)
class Pose:
    """Rigid transform: 3x3 rotation plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        freeze(self, "rotation", shape=(3, 3))
        freeze(self, "translation", shape=3)

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
        for name, size in (("width", self.width), ("height", self.height)):
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {size!r}")
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError(f"focal lengths must be finite and positive, got {self.fx}, {self.fy}")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):  # hence finite
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )

    @classmethod
    def from_horizontal_fov(cls, fov_deg: float, width: int, height: int) -> "CameraIntrinsics":
        """Square-pixel intrinsics from a horizontal field of view in degrees."""
        if not 0 < fov_deg < 180:
            raise ValueError(f"horizontal FOV must be in (0, 180) degrees, got {fov_deg}")
        tan_half = math.tan(math.radians(fov_deg) / 2.0)  # 0 if it underflows: no finite f
        f = (width / 2.0) / tan_half if tan_half > 0 else math.inf
        return cls(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


def identity() -> Pose:
    return Pose(np.eye(3), np.zeros(3))


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (polar projection, or
    the Kabsch rotation of a cross-covariance) of each matrix (..., 3, 3);
    raises np.linalg.LinAlgError when the SVD does not converge."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=float))
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]  # a reflection becomes a rotation
    return u @ vt


def reproject_drifted(r: np.ndarray) -> np.ndarray:
    """Re-project onto SO(3), in place, each rotation of a stack (..., 3, 3)
    whose Gram matrix r.T r is off the identity by more than ORTHONORMAL_TOL
    in some entry; returns r."""
    # The Gram product of a contiguous transpose takes BLAS's fast path; one
    # global max (0 for an empty stack) clears a stack in which no rotation
    # has drifted.
    drift = np.matmul(np.ascontiguousarray(np.swapaxes(r, -1, -2)), r)
    drift -= np.eye(3)
    np.abs(drift, out=drift)
    if drift.max(initial=0.0) > ORTHONORMAL_TOL:
        bad = drift.max(axis=(-2, -1)) > ORTHONORMAL_TOL
        r[bad] = orthonormalize(r[bad])
    return r


def invert_stack(r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """invert() over stacks: rotations (N, 3, 3) and translations (N, 3)."""
    rt = np.swapaxes(r, -1, -2)
    return rt, -(rt @ np.asarray(t)[..., None])[..., 0]


def compose(a: Pose, b: Pose) -> Pose:
    """a . b: apply b first, then a; the product rotation is re-projected
    onto SO(3) if it drifts past ORTHONORMAL_TOL."""
    r = reproject_drifted(a.rotation @ b.rotation)
    return Pose(r, a.rotation @ b.translation + a.translation)


def invert(p: Pose) -> Pose:
    r, t = invert_stack(p.rotation[None], p.translation[None])
    return Pose(r[0], t[0])


def apply(p: Pose, points: np.ndarray) -> np.ndarray:
    """Transform one (3,) point or a batch (N, 3) of points."""
    pts = np.asarray(points, dtype=float)
    return pts @ p.rotation.T + p.translation


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
    with np.errstate(over="ignore"):
        n2 = float(q @ q)
    # Past about 1e154 the square overflows; math.hypot does not.
    norm = math.sqrt(n2) if n2 < math.inf else math.hypot(*q)
    if not (n2 >= 1e-12 and norm < math.inf):  # NaN fails too
        raise ValueError(f"quaternion must be finite with a norm of at least 1e-6, got {q}")
    if abs(n2 - 1.0) > 1e-12:
        q = q / norm
    p = Pose(quaternion_to_matrix(q), translation)
    if not np.isfinite(p.translation).all():
        raise ValueError(f"translation must be finite, got {p.translation}")
    q.setflags(write=False)
    object.__setattr__(p, "_quat_cache", q)
    return p


def pose_quaternion(p: Pose) -> np.ndarray:
    """(w, x, y, z) quaternion of a pose, reusing the ingested one if any."""
    cached = getattr(p, "_quat_cache", None)
    if cached is not None:
        return cached
    return matrix_to_quaternion(p.rotation)


def pixels(k: CameraIntrinsics, p_cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole pixels (..., 2) of camera-frame points (..., 3), NaN at or behind
    the camera plane (z <= MIN_DEPTH), and whether each point is in front."""
    pts = np.asarray(p_cam, dtype=float)
    z = pts[..., 2]
    front = z > MIN_DEPTH
    zs = np.where(front, z, 1.0)
    uv = np.stack([k.fx * pts[..., 0] / zs + k.cx, k.fy * pts[..., 1] / zs + k.cy], axis=-1)
    uv[~front] = np.nan
    return uv, front


def project(k: CameraIntrinsics, p_cam: np.ndarray) -> np.ndarray:
    """Perspective projection of camera-frame points (3,) or (N, 3) onto the
    image plane; raises NonPositiveDepth unless every z exceeds MIN_DEPTH."""
    uv, front = pixels(k, p_cam)
    if not front.all():
        raise NonPositiveDepth(f"{int((~front).sum())} point(s) at or behind the camera plane")
    return uv


def unproject(k: CameraIntrinsics, pixel: np.ndarray, depth: float) -> np.ndarray:
    """Camera-frame point for a pixel at a depth; raises NonPositiveDepth
    unless MIN_DEPTH < depth < inf, and ValueError for a non-finite pixel."""
    if not MIN_DEPTH < depth < math.inf:  # NaN fails too, as in project
        raise NonPositiveDepth(f"depth must be finite and exceed {MIN_DEPTH}, got {depth}")
    u, v = np.asarray(pixel, dtype=float)
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"pixel must be finite, got ({u}, {v})")
    return np.array([(u - k.cx) * depth / k.fx, (v - k.cy) * depth / k.fy, depth])


def _skew_and_angle(r: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Skew part s = 2 sin(angle) axis of a rotation matrix, its norm, and the
    angle in [0, pi]: atan2 of sine and cosine (the trace) stays accurate at
    every angle, where acos of the trace cannot resolve below about 2e-8 rad."""
    s = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    norm = float(np.linalg.norm(s))
    return s, norm, math.atan2(norm / 2.0, (np.trace(r) - 1.0) / 2.0)


def log_so3(r: np.ndarray) -> np.ndarray:
    """Rotation vector (angle times unit axis) of a rotation matrix, with the
    angle ``rotation_error`` measures.  Past a quarter turn the skew part fades
    toward a half turn, so (r + r.T) / 2 - cos(angle) I = (1 - cos(angle))
    axis axis.T gives the axis there, and the skew part only its sign."""
    r = np.asarray(r, dtype=float)
    s, norm, angle = _skew_and_angle(r)
    if angle <= math.pi / 2:
        return s * (angle / norm) if norm > 0 else np.zeros(3)
    m = (r + r.T) / 2.0 - math.cos(angle) * np.eye(3)
    axis = m[:, int(np.argmax(np.diagonal(m)))]
    return math.copysign(angle, axis @ s) * (axis / np.linalg.norm(axis))


def rotation_error(a: Pose, b: Pose) -> float:
    """Geodesic angle between two rotations, in [0, pi] radians."""
    return _skew_and_angle(a.rotation @ b.rotation.T)[2]


def translation_error(a: Pose, b: Pose) -> np.ndarray:
    """Per-axis absolute translation differences (e_x, e_y, e_z) in meters."""
    return np.abs(a.translation - b.translation)
