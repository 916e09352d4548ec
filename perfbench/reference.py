"""Independent reference computation for the benchmark.

A homogeneous-matrix forward kinematics that reads the chain JSON itself,
a pinhole projection, pose errors, and the synthetic captures built from
them.  Nothing here imports refcal: the benchmark makes refcal's inputs
with this module and checks refcal's outputs against it.

Conventions match the refcal file formats: a chain joint carries an origin
(translation ``t``, quaternion ``q`` in w, x, y, z order), a kind and a unit
axis; link 0 is the base and joint i connects link i to link i + 1.  A
camera pose is a 4x4 matrix mapping base (or end-effector) coordinates into
the camera frame.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOT_VISIBLE = "not_visible"
NOT_SYNCED = "not_synced"


@dataclass(frozen=True)
class Chain:
    name: str
    origins: np.ndarray  # (J, 4, 4) parent-link to joint frame
    kinds: tuple[str, ...]
    axes: np.ndarray  # (J, 3)
    limits: tuple[tuple[float, float] | None, ...]  # per actuated joint
    ref_link: int
    ref_offset: np.ndarray  # (3,)

    @property
    def n_actuated(self) -> int:
        return sum(k != "fixed" for k in self.kinds)


@dataclass(frozen=True)
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def as_json(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
                "width": self.width, "height": self.height}


# The capture camera: a 1920x1080 sensor with a slightly off-centre
# principal point, so a solver that assumed the image centre would show.
CAMERA = Camera(fx=1380.0, fy=1376.0, cx=955.25, cy=541.75, width=1920, height=1080)


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = (float(v) for v in q)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def homogeneous(rotation, translation) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def load_chain(path) -> Chain:
    doc = json.loads(Path(path).read_text())
    origins, kinds, axes, limits = [], [], [], []
    for j in doc["joints"]:
        origins.append(homogeneous(quat_to_matrix(j["origin"]["q"]), j["origin"]["t"]))
        kinds.append(j["kind"])
        axes.append(np.asarray(j.get("axis", (0.0, 0.0, 1.0)), dtype=float))
        if j["kind"] != "fixed":
            lim = j.get("limits")
            limits.append(None if lim is None else (float(lim[0]), float(lim[1])))
    rp = doc["reference_point"]
    return Chain(
        name=doc["name"],
        origins=np.array(origins),
        kinds=tuple(kinds),
        axes=np.array(axes),
        limits=tuple(limits),
        ref_link=int(rp["link"]),
        ref_offset=np.asarray(rp["offset"], dtype=float),
    )


def _motion(kind: str, axis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(N, 4, 4) joint motions: Rodrigues rotation or translation along axis."""
    n = len(values)
    m = np.tile(np.eye(4), (n, 1, 1))
    if kind == "revolute":
        k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
        s, c = np.sin(values), np.cos(values)
        m[:, :3, :3] += s[:, None, None] * k + (1.0 - c)[:, None, None] * (k @ k)
    elif kind == "prismatic":
        m[:, :3, 3] = values[:, None] * axis
    return m


def link_transforms(chain: Chain, q) -> np.ndarray:
    """(N, J + 1, 4, 4) base-to-link transforms for joint vectors q (N, A)."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = q.shape[0]
    out = np.empty((n, len(chain.kinds) + 1, 4, 4))
    out[:, 0] = np.eye(4)
    col = 0
    for i, kind in enumerate(chain.kinds):
        if kind == "fixed":
            step = np.broadcast_to(chain.origins[i], (n, 4, 4))
        else:
            step = chain.origins[i] @ _motion(kind, chain.axes[i], q[:, col])
            col += 1
        out[:, i + 1] = out[:, i] @ step
    return out


def reference_points(chain: Chain, q) -> np.ndarray:
    """(N, 3) reference point in base coordinates (eye-on-base 3D points)."""
    t = link_transforms(chain, q)[:, chain.ref_link]
    return t[:, :3, :3] @ chain.ref_offset + t[:, :3, 3]


def base_point_in_ee(chain: Chain, q, p_base) -> np.ndarray:
    """(N, 3) a base-frame point seen from the end-effector frame."""
    ee = link_transforms(chain, q)[:, -1]
    r, t = ee[:, :3, :3], ee[:, :3, 3]
    return np.einsum("nji,nj->ni", r, np.asarray(p_base, dtype=float) - t)


def transform(pose: np.ndarray, pts: np.ndarray) -> np.ndarray:
    return pts @ pose[:3, :3].T + pose[:3, 3]


def project(cam: Camera, pose: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixels of object points under a camera pose, and their depths."""
    pc = transform(pose, pts)
    z = pc[:, 2]
    uv = np.column_stack([cam.fx * pc[:, 0] / z + cam.cx, cam.fy * pc[:, 1] / z + cam.cy])
    return uv, z


def reprojection_cost(cam: Camera, pose: np.ndarray, pts: np.ndarray, pix: np.ndarray) -> float:
    """Sum of squared pixel residuals; infinite if a point is behind the camera."""
    uv, z = project(cam, pose, pts)
    if np.any(z <= 0):
        return math.inf
    return float(((uv - pix) ** 2).sum())


def reprojection_rms(cam: Camera, pose: np.ndarray, pts: np.ndarray, pix: np.ndarray) -> float:
    return math.sqrt(reprojection_cost(cam, pose, pts, pix) / len(pts))


def pose_error(est: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(translation error in cm, geodesic rotation error in rad)."""
    e_t = float(np.linalg.norm(est[:3, 3] - gt[:3, 3])) * 100.0
    c = (np.trace(est[:3, :3].T @ gt[:3, :3]) - 1.0) / 2.0
    return e_t, float(math.acos(min(1.0, max(-1.0, c))))


def perturbed(pose: np.ndarray, shift_m=(0.0, 0.0, 0.0), angle_rad: float = 0.0,
              axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """A camera pose turned by angle_rad about a unit camera axis, then
    moved by shift_m along the camera axes."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    rot = _motion("revolute", a, np.array([angle_rad]))[0]
    out = rot @ pose
    out[:3, 3] += shift_m
    return out


# ---------------------------------------------------------------- captures ---

# A capture is 10 s at 30 fps, with 12 frames flagged invisible and 12
# flagged unsynced, so that frame selection has real work.
N_FRAMES = 300
FPS = 30.0
N_INVISIBLE = 12
N_UNSYNCED = 12


@dataclass(frozen=True)
class Capture:
    """A synthetic eye-on-base capture with its ground truth.

    Every frame projects inside the image.  ``dropped`` lists the frames the
    capture flags invisible (empty pixels) or unsynced (pixels of a late
    exposure), each with the reason a calibration must report.
    """

    seed: int
    joints: np.ndarray  # (N, A)
    timestamps: np.ndarray  # (N,)
    points: np.ndarray  # (N, 3) reference point in base coordinates
    uv: np.ndarray  # (N, 2), NaN where invisible
    visible: np.ndarray  # (N,) bool
    sync: np.ndarray  # (N,) bool
    t_gt: np.ndarray  # (4, 4) camera-to-base
    dropped: tuple[tuple[int, str], ...]

    @property
    def usable(self) -> np.ndarray:
        return np.flatnonzero(self.visible & self.sync)


def _trajectory(chain: Chain, rng: np.random.Generator, n: int, fps: float) -> np.ndarray:
    """Sum-of-sines joint motion kept inside the middle of each joint range."""
    t = np.arange(n) / fps
    q = np.empty((n, chain.n_actuated))
    for j, lim in enumerate(chain.limits):
        lo, hi = lim if lim is not None else (-math.pi, math.pi)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        freqs = rng.uniform(0.04, 0.25, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, 3)
        weights = rng.uniform(0.5, 1.0, 3)
        wave = (weights[:, None] * np.sin(2 * math.pi * freqs[:, None] * t + phases[:, None])).sum(0)
        q[:, j] = mid + 0.55 * half * wave / weights.sum()
    return q


def _look_at(position: np.ndarray, target: np.ndarray, roll: float) -> np.ndarray:
    """Camera-to-base pose of a camera at position with its z axis on target."""
    z = target - position
    z /= np.linalg.norm(z)
    down = np.array([0.0, 0.0, -1.0])
    y = down - (down @ z) * z
    y /= np.linalg.norm(y)
    x = np.cross(y, z)
    c, s = math.cos(roll), math.sin(roll)
    x, y = c * x + s * y, -s * x + c * y
    r = np.vstack([x, y, z])  # rows: camera axes in base coordinates
    return homogeneous(r, -r @ position)


def make_capture(chain: Chain, seed: int, sigma: float) -> Capture:
    """One reproducible eye-on-base capture; the camera backs off until the
    whole trajectory, with a 5% border, lies in the image."""
    cam, n_frames = CAMERA, N_FRAMES
    rng = np.random.default_rng([seed, 1])
    q = _trajectory(chain, rng, n_frames, FPS)
    pts = reference_points(chain, q)
    centre = pts.mean(axis=0)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    elevation = rng.uniform(math.radians(15.0), math.radians(50.0))
    direction = np.array([math.cos(elevation) * math.cos(azimuth),
                          math.cos(elevation) * math.sin(azimuth), math.sin(elevation)])
    roll = rng.uniform(-0.2, 0.2)
    radius = 1.6
    while True:
        t_gt = _look_at(centre + radius * direction, centre, roll)
        uv, z = project(cam, t_gt, pts)
        inside = (np.all(z > 0.2) and np.all(uv[:, 0] > 0.05 * cam.width)
                  and np.all(uv[:, 0] < 0.95 * cam.width) and np.all(uv[:, 1] > 0.05 * cam.height)
                  and np.all(uv[:, 1] < 0.95 * cam.height))
        if inside:
            break
        radius *= 1.1
    noise = sigma * rng.standard_normal(uv.shape)
    picked = rng.choice(np.arange(3, n_frames), N_INVISIBLE + N_UNSYNCED, replace=False)
    invisible, unsynced = np.sort(picked[:N_INVISIBLE]), np.sort(picked[N_INVISIBLE:])
    # An unsynced frame is a late exposure: the pixel shows the point where
    # it was three frames earlier.
    uv[unsynced] = uv[unsynced - 3]
    uv = uv + noise
    uv[invisible] = np.nan
    visible = np.ones(n_frames, dtype=bool)
    sync = np.ones(n_frames, dtype=bool)
    visible[invisible] = False
    sync[unsynced] = False
    dropped = sorted([(int(f), NOT_VISIBLE) for f in invisible]
                     + [(int(f), NOT_SYNCED) for f in unsynced])
    return Capture(seed=seed, joints=q, timestamps=np.arange(n_frames) / FPS, points=pts,
                   uv=uv, visible=visible, sync=sync, t_gt=t_gt, dropped=tuple(dropped))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_capture(capture: Capture, chain_text: str, out_dir: Path) -> dict:
    """Write the capture as the files a real recording produces; returns paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / name for name in
             ("chain.json", "joints.csv", "track.csv", "intrinsics.json")}
    paths["chain.json"].write_text(chain_text)
    n_j = capture.joints.shape[1]
    lines = ["frame,t," + ",".join(f"j{i + 1}" for i in range(n_j))]
    for f in range(len(capture.joints)):
        lines.append(f"{f},{_fmt(capture.timestamps[f])},"
                     + ",".join(_fmt(v) for v in capture.joints[f]))
    paths["joints.csv"].write_text("\n".join(lines) + "\n")
    lines = ["frame,u,v,visible,sync"]
    for f in range(len(capture.uv)):
        u, v = ("", "") if not capture.visible[f] else (_fmt(capture.uv[f, 0]), _fmt(capture.uv[f, 1]))
        lines.append(f"{f},{u},{v},{int(capture.visible[f])},{int(capture.sync[f])}")
    paths["track.csv"].write_text("\n".join(lines) + "\n")
    paths["intrinsics.json"].write_text(json.dumps(CAMERA.as_json()) + "\n")
    return paths


def pose_from_result(doc: dict) -> np.ndarray:
    """Camera pose of a refcal result document; its quaternion is authoritative."""
    pose = doc["pose"]
    return homogeneous(quat_to_matrix(pose["quaternion_wxyz"]), pose["translation_m"])
