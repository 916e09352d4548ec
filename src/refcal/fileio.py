"""File formats: chain JSON, joint-log CSV, track CSV, result documents.

All floats are written with 17 significant digits and dictionaries keep a
fixed key order, so every format round-trips bit-exactly and golden-file
comparisons are stable.  Poses serialize as translation plus (w, x, y, z)
quaternion and, redundantly, a 4x4 row-major matrix; the quaternion is
authoritative on ingestion.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .calibration import CalibrationResult, Mode, Track2D
from .errors import NonMonotoneFrames, ParseError, SchemaMismatch
from .geometry import (
    CameraIntrinsics,
    Pose,
    pose_from_quaternion,
    pose_quaternion,
    quaternion_to_matrix,
)
from .kinematics import Joint, JointLog, KinematicChain, ReferencePoint

ROTATION_ERROR_METRIC = "geodesic_angle_rad"


def fmt_float(x: float) -> str:
    """Shortest-or-17-digit decimal that parses back to the same float."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def _emit(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(k)}: {_emit(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
        if flat:
            return "[" + ", ".join(_emit(v) for v in obj) + "]"
        items = [f"{pad}  {_emit(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(_emit(doc) + "\n")


def _load_json(path) -> dict:
    """A JSON object from path; NaN, Infinity and overflowing numbers such as
    1e999 (all of which Python's json accepts) raise ParseError."""

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ParseError(f"non-finite number {text}", path=path)
        return value

    try:
        doc = json.loads(Path(path).read_text(), parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), path=path, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object", path=path)
    return doc


def file_digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- poses ---


def _pose_doc(pose: Pose) -> dict:
    # The matrix is derived from the emitted quaternion, not the in-memory
    # rotation, so a written pose is a pure function of (quaternion,
    # translation) and write . parse is the identity on files.
    q = pose_quaternion(pose)
    m = np.eye(4)
    m[:3, :3] = quaternion_to_matrix(q)
    m[:3, 3] = pose.translation
    return {
        "translation_m": [float(v) for v in pose.translation],
        "quaternion_wxyz": [float(v) for v in q],
        "matrix_row_major": [[float(v) for v in row] for row in m],
    }


def _pose_from_doc(doc: dict, path) -> Pose:
    try:
        t = np.array(doc["translation_m"], dtype=float)
        q = np.array(doc["quaternion_wxyz"], dtype=float)
    except KeyError as exc:
        raise ParseError(f"pose object missing field: {exc}", path=path) from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad pose object: {exc}", path=path) from exc
    if t.shape != (3,) or q.shape != (4,):
        raise ParseError("pose needs a 3-vector translation and 4-vector quaternion", path=path)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
        raise ParseError("pose translation and quaternion must be finite", path=path)
    if abs(math.sqrt(sum(float(v) ** 2 for v in q)) - 1.0) > 1e-9:
        raise ParseError("quaternion is not unit-norm within 1e-9", path=path)
    return pose_from_quaternion(t, q)


def write_pose_file(pose: Pose, path) -> None:
    _write_json(_pose_doc(pose), path)


def parse_pose_file(path) -> Pose:
    doc = _load_json(path)
    if "pose" in doc:  # accept a full result document as well
        return _pose_from_doc(doc["pose"], path)
    return _pose_from_doc(doc, path)


# ----------------------------------------------------------- chain files ---


def parse_chain_file(path) -> tuple[KinematicChain, ReferencePoint]:
    doc = _load_json(path)
    try:
        joints = []
        for j in doc["joints"]:
            origin = j["origin"]
            limits = j.get("limits")
            if limits is not None and len(limits) != 2:
                raise ValueError(f"joint {j['name']!r}: limits must be [lo, hi], got {limits!r}")
            joints.append(
                Joint(
                    name=str(j["name"]),
                    kind=str(j["kind"]),
                    origin=pose_from_quaternion(origin["t"], origin["q"]),
                    axis=j.get("axis", (0.0, 0.0, 1.0)),
                    limits=None if limits is None else (float(limits[0]), float(limits[1])),
                )
            )
        chain = KinematicChain(name=str(doc["name"]), joints=tuple(joints))
        rp = doc["reference_point"]
        ref = ReferencePoint(link_index=int(rp["link"]), offset=rp["offset"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad chain file: {exc}", path=path) from exc
    if not 0 <= ref.link_index < chain.n_links:
        raise ParseError(
            f"reference_point.link {ref.link_index} out of range "
            f"(chain has {chain.n_links} link frames)",
            path=path,
        )
    return chain, ref


def _chain_doc(chain: KinematicChain, ref: ReferencePoint) -> dict:
    """The chain file's content as a dict, in its fixed key order."""
    joints = []
    for j in chain.joints:
        entry = {
            "name": j.name,
            "kind": j.kind,
            "axis": [float(v) for v in j.axis],
            "origin": {
                "t": [float(v) for v in j.origin.translation],
                "q": [float(v) for v in pose_quaternion(j.origin)],
            },
        }
        if j.limits is not None:
            entry["limits"] = [j.limits[0], j.limits[1]]
        joints.append(entry)
    return {
        "name": chain.name,
        "joints": joints,
        "reference_point": {"link": ref.link_index, "offset": [float(v) for v in ref.offset]},
    }


def write_chain_file(chain: KinematicChain, ref: ReferencePoint, path) -> None:
    _write_json(_chain_doc(chain, ref), path)


# ------------------------------------------------------------- CSV files ---


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


def parse_joint_log_csv(path) -> JointLog:
    rows = _read_rows(path)
    if not rows:
        raise ParseError("empty file, expected a 'frame,t,j1,...' header", path=path, line=1)
    header = [h.strip() for h in rows[0]]
    if header[:2] != ["frame", "t"] or len(header) < 3:
        raise ParseError("header must be 'frame,t,j1,...,jJ'", path=path, line=1)
    for i, name in enumerate(header[2:], start=1):
        if name != f"j{i}":
            raise ParseError(
                f"joint column {i} must be named 'j{i}', got {name!r}",
                path=path,
                line=1,
                column=i + 2,
            )
    n_joints = len(header) - 2
    frames, ts, qs = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", path=path, line=lineno
            )
        try:
            frame = int(row[0])
        except ValueError as exc:
            raise ParseError(f"bad frame index {row[0]!r}", path=path, line=lineno, column=1) from exc
        if frames and frame <= frames[-1]:
            raise NonMonotoneFrames(
                f"frame {frame} does not increase past {frames[-1]}", path=path, line=lineno
            )
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {exc}", path=path, line=lineno) from exc
        for col, v in enumerate(values, start=2):
            if not math.isfinite(v):
                raise ParseError(
                    f"non-finite {header[col - 1]!r} value {row[col - 1]!r}",
                    path=path,
                    line=lineno,
                    column=col,
                )
        frames.append(frame)
        ts.append(values[0])
        qs.append(values[1:])
    return JointLog(
        frame_index=np.array(frames, dtype=np.int64),
        timestamps=np.array(ts),
        positions=np.array(qs).reshape(len(frames), n_joints),
    )


def write_joint_log_csv(log: JointLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "t"] + [f"j{i + 1}" for i in range(log.n_joints)])
        for i in range(log.n_frames):
            writer.writerow(
                [int(log.frame_index[i]), fmt_float(log.timestamps[i])]
                + [fmt_float(v) for v in log.positions[i]]
            )


_TRACK_HEADER = ["frame", "u", "v", "visible", "sync"]


def parse_track_csv(path) -> Track2D:
    rows = _read_rows(path)
    if not rows:
        raise ParseError("empty file, expected 'frame,u,v,visible,sync' header", path=path, line=1)
    if [h.strip() for h in rows[0]] != _TRACK_HEADER:
        raise ParseError("header must be 'frame,u,v,visible,sync'", path=path, line=1)
    frames, uv, vis, sync = [], [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}", path=path, line=lineno)
        try:
            frame = int(row[0])
        except ValueError as exc:
            raise ParseError(f"bad frame index {row[0]!r}", path=path, line=lineno, column=1) from exc
        if frames and frame <= frames[-1]:
            raise NonMonotoneFrames(
                f"frame {frame} does not increase past {frames[-1]}", path=path, line=lineno
            )
        if row[3] not in ("0", "1") or row[4] not in ("0", "1"):
            raise ParseError("visible and sync must be 0 or 1", path=path, line=lineno, column=4)
        visible = row[3] == "1"
        coords = []
        for col, text in ((2, row[1]), (3, row[2])):
            text = text.strip()
            if text == "":
                if visible:
                    raise ParseError(
                        "u and v may be empty only when visible=0",
                        path=path,
                        line=lineno,
                        column=col,
                    )
                coords.append(math.nan)
            else:
                try:
                    value = float(text)
                except ValueError as exc:
                    raise ParseError(
                        f"bad pixel coordinate {text!r}", path=path, line=lineno, column=col
                    ) from exc
                if visible and not math.isfinite(value):
                    raise ParseError(
                        f"non-finite pixel coordinate {text!r} on a visible row",
                        path=path,
                        line=lineno,
                        column=col,
                    )
                coords.append(value)
        frames.append(frame)
        uv.append(coords)
        vis.append(visible)
        sync.append(row[4] == "1")
    return Track2D(
        frame_index=np.array(frames, dtype=np.int64),
        uv=np.array(uv).reshape(len(frames), 2),
        visible=np.array(vis, dtype=bool),
        sync=np.array(sync, dtype=bool),
    )


def write_track_csv(track: Track2D, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACK_HEADER)
        for i in range(track.n_frames):
            u, v = track.uv[i]
            writer.writerow(
                [
                    int(track.frame_index[i]),
                    "" if math.isnan(u) else fmt_float(u),
                    "" if math.isnan(v) else fmt_float(v),
                    int(track.visible[i]),
                    int(track.sync[i]),
                ]
            )


# ------------------------------------------------------------ intrinsics ---


def parse_intrinsics_file(path) -> CameraIntrinsics:
    doc = _load_json(path)
    try:
        if "fov_deg_horizontal" in doc:
            return CameraIntrinsics.from_horizontal_fov(
                float(doc["fov_deg_horizontal"]), int(doc["width"]), int(doc["height"])
            )
        return CameraIntrinsics(
            fx=float(doc["fx"]),
            fy=float(doc["fy"]),
            cx=float(doc["cx"]),
            cy=float(doc["cy"]),
            width=int(doc["width"]),
            height=int(doc["height"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad intrinsics file: {exc}", path=path) from exc


def write_intrinsics_file(k: CameraIntrinsics, path) -> None:
    _write_json(
        {"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy, "width": k.width, "height": k.height},
        path,
    )


# ---------------------------------------------------------------- results ---


@dataclass(frozen=True)
class ResultDocument:
    """Serializable calibration outcome with provenance."""

    mode: str
    pose: Pose
    rms_reprojection_px: float
    n_pairs_used: int
    dropped: tuple[tuple[int, str], ...]
    condition: str
    rotation_error_metric: str = ROTATION_ERROR_METRIC
    tool_version: str = __version__
    input_digests: dict = field(default_factory=dict)

    @classmethod
    def from_calibration(
        cls, mode: Mode, result: CalibrationResult, input_digests: dict | None = None
    ) -> "ResultDocument":
        return cls(
            mode=mode.value,
            pose=result.pose,
            rms_reprojection_px=result.solution.rms_reprojection_error,
            n_pairs_used=result.n_pairs_used,
            dropped=result.dropped,
            condition=result.solution.condition_report.classification,
            input_digests=dict(input_digests or {}),
        )


def write_result(doc: ResultDocument, path) -> None:
    _write_json(
        {
            "mode": doc.mode,
            "pose": _pose_doc(doc.pose),
            "rms_reprojection_px": doc.rms_reprojection_px,
            "n_pairs_used": doc.n_pairs_used,
            "dropped": [{"frame": f, "reason": r} for f, r in doc.dropped],
            "condition": doc.condition,
            "rotation_error_metric": doc.rotation_error_metric,
            "tool_version": doc.tool_version,
            "inputs": dict(doc.input_digests),
        },
        path,
    )


def parse_result_file(path) -> ResultDocument:
    doc = _load_json(path)
    try:
        return ResultDocument(
            mode=str(doc["mode"]),
            pose=_pose_from_doc(doc["pose"], path),
            rms_reprojection_px=float(doc["rms_reprojection_px"]),
            n_pairs_used=int(doc["n_pairs_used"]),
            dropped=tuple((int(d["frame"]), str(d["reason"])) for d in doc["dropped"]),
            condition=str(doc["condition"]),
            rotation_error_metric=str(doc["rotation_error_metric"]),
            tool_version=str(doc["tool_version"]),
            input_digests=dict(doc["inputs"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad result file: {exc}", path=path) from exc


# ------------------------------------------------------------ sweep CSVs ---


def write_sweep_csv(sweep, path) -> None:
    """Sweep table with '# meta:' provenance lines before the header."""

    def cell_float(x: float) -> str:
        # A cell whose every repeat failed has no mean.
        return fmt_float(x) if math.isfinite(x) else "nan"

    with open(path, "w", newline="") as fh:
        fh.write(f"# meta: kind={sweep.kind}\n")
        for key, value in sweep.metadata.items():
            fh.write(f"# meta: {key}={value}\n")
        writer = csv.writer(fh)
        names = ("e_x_cm", "e_y_cm", "e_z_cm", "e_trans_cm", "e_r_rad")
        writer.writerow(["param", *(f"mean_{name}" for name in names), "n_fail"])
        for cell in sweep.cells:
            means = [cell_float(cell.mean(name)) for name in names]
            writer.writerow([fmt_float(cell.param), *means, cell.n_fail])


# ----------------------------------------------------------- consistency ---


def check_joint_count(chain: KinematicChain, log: JointLog) -> None:
    """Raise SchemaMismatch when a log's joint count differs from the chain's."""
    if log.n_frames and log.n_joints != chain.n_actuated:
        raise SchemaMismatch(
            f"joint log has {log.n_joints} joints per frame but chain "
            f"{chain.name!r} has {chain.n_actuated} actuated joints"
        )


def builtin_chain_path(name: str) -> Path:
    """Path of a chain file shipped with the package (e.g. 'panda')."""
    p = Path(__file__).parent / "data" / f"{name}.json"
    if not p.exists():
        available = sorted(q.stem for q in (Path(__file__).parent / "data").glob("*.json"))
        raise FileNotFoundError(f"no builtin chain {name!r}; available: {available}")
    return p
