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
import io
import json
import math
import re
from dataclasses import dataclass, field
from itertools import zip_longest
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


def _read_text(path) -> str:
    """The file's text; input that is not UTF-8 raises ParseError at its line,
    counting \r\n, \r and \n line ends as csv does."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(re.findall(rb"\r\n?|\n", data[: exc.start])) + 1
        raise ParseError(f"not UTF-8: {exc}", path=path, line=line) from exc


def _load_json(path) -> dict:
    """A JSON object from path; NaN, Infinity and numbers past float range
    such as 1e999 or a 400-digit integer (all of which Python's json
    accepts) raise ParseError at their line and column."""
    text = _read_text(path)

    def integer(token: str) -> int:
        if len(token) > 300:  # a shorter integer always fits a float
            finite(token)
        return int(token)

    def finite(token: str) -> float:
        value = float(token)
        if math.isfinite(value):
            return value
        # json's hooks get no position: find the token's first whole
        # occurrence, stepping over string literals.
        pattern = r'"(?:[^"\\]|\\.)*"|(?<![\w.+-])' + re.escape(token) + r"(?![\w.+-])"
        pos = next(m.start() for m in re.finditer(pattern, text) if m.group() == token)
        line = text.count("\n", 0, pos) + 1
        column = pos - text.rfind("\n", 0, pos)
        raise ParseError(f"non-finite number {token}", path=path, line=line, column=column)

    try:
        doc = json.loads(text, parse_float=finite, parse_int=integer, parse_constant=finite)
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
    m = Pose(quaternion_to_matrix(q), pose.translation).matrix()
    return {
        "translation_m": [float(v) for v in pose.translation],
        "quaternion_wxyz": [float(v) for v in q],
        "matrix_row_major": [[float(v) for v in row] for row in m],
    }


def _pose_from_doc(doc: dict, path) -> Pose:
    try:
        t = np.array(doc["translation_m"], dtype=float)
        q = np.array(doc["quaternion_wxyz"], dtype=float)
        if t.shape != (3,) or q.shape != (4,):
            raise ValueError("pose needs a 3-vector translation and 4-vector quaternion")
        if abs(math.hypot(*q) - 1.0) > 1e-9:
            raise ValueError("quaternion is not unit-norm within 1e-9")
        return pose_from_quaternion(t, q)
    except KeyError as exc:
        raise ParseError(f"pose object missing field: {exc}", path=path) from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad pose object: {exc}", path=path) from exc


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


def _record_line(path, k: int) -> int:
    """Line on which CSV record k (0: the header) starts; a record may span lines."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    for _ in zip(range(k), reader):
        pass
    return reader.line_num + 1


def _frame_table(path, header) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Frames (N,) int64, body column names and body cells (N, C) of a CSV file
    whose first column is a strictly increasing frame index; header(n) is the
    header expected when the first row has n names."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(str(exc), path=path, line=reader.line_num) from exc
    names = [h.strip() for h in rows[0]] if rows else []
    want = header(len(names))
    if names != want:
        column = next(c for c, (a, b) in enumerate(zip_longest(names, want), 1) if a != b)
        message = f"header must be {','.join(want)!r}, got {','.join(names)!r}"
        raise ParseError(message, path=path, line=1, column=column)
    for k, row in enumerate(rows[1:], start=1):
        if len(row) != len(want):
            column = 1 + min(len(row), len(want))
            message = f"expected {len(want)} fields, got {len(row)}"
            raise ParseError(message, path=path, line=_record_line(path, k), column=column)
    table = np.array(rows[1:], dtype=object).reshape(-1, len(want))
    frames = _cells_as(path, table[:, :1], 1, np.int64, "int64 frame index")[:, 0]
    back = np.flatnonzero(frames[1:] <= frames[:-1])
    if back.size:
        k = int(back[0]) + 1
        message = f"frame {frames[k]} does not increase past {frames[k - 1]}"
        raise NonMonotoneFrames(message, path=path, line=_record_line(path, k + 1), column=1)
    return frames, want[1:], table[:, 1:]


def _cells_as(path, cells: np.ndarray, col: int, dtype, what: str) -> np.ndarray:
    """cells as one dtype array, each read as int() or float() reads it.  On a
    failure the first cell that fails alone is named; cells[0, 0] is in the
    first body record, column col."""
    try:
        return cells.astype(dtype)
    except (ValueError, OverflowError):
        for (i, j), text in np.ndenumerate(cells):
            try:
                cells[i, j : j + 1].astype(dtype)
            except (ValueError, OverflowError) as exc:
                line, message = _record_line(path, i + 1), f"bad {what} {text!r}"
                raise ParseError(message, path=path, line=line, column=col + j) from exc
        raise


def _reject(path, bad: np.ndarray, col: int, message) -> None:
    """ParseError at the first true cell of bad, whose [0, 0] is in the first
    body record, column col; message(i, j) says what is wrong there."""
    if bad.any():
        i, j = (int(k) for k in np.argwhere(bad)[0])
        raise ParseError(message(i, j), path=path, line=_record_line(path, i + 1), column=col + j)


def parse_joint_log_csv(path) -> JointLog:
    """A joint log: header 'frame,t,j1,...,jJ', then per frame its index, a
    timestamp and J joint readings, all finite.  Faults of structure (header,
    field count, frame column) are reported before faults of value."""
    frames, names, cells = _frame_table(
        path, lambda n: ["frame", "t"] + [f"j{i}" for i in range(1, max(n - 1, 2))]
    )
    values = _cells_as(path, cells, 2, float, "number")
    _reject(
        path, ~np.isfinite(values), 2, lambda i, j: f"non-finite {names[j]!r} value {cells[i, j]!r}"
    )
    return JointLog(frame_index=frames, timestamps=values[:, 0], positions=values[:, 1:])


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
    """A 2D track: header 'frame,u,v,visible,sync', then per frame its index,
    pixel u and v, and visible and sync flags of 0 or 1; u and v may be empty
    only when visible=0 and are finite when visible=1.  Faults of structure
    (header, field count, frame column) are reported before faults of value."""
    frames, names, cells = _frame_table(path, lambda n: _TRACK_HEADER)
    flags, text = cells[:, 2:], np.frompyfunc(str.strip, 1, 1)(cells[:, :2])
    bad = (flags != "0") & (flags != "1")
    _reject(path, bad, 4, lambda i, j: f"{names[2 + j]} must be 0 or 1, got {flags[i, j]!r}")
    visible, blank = flags[:, :1] == "1", text == ""  # (N, 1) and (N, 2)
    _reject(path, blank & visible, 2, lambda i, j: "u and v may be empty only when visible=0")
    uv = _cells_as(path, np.where(blank, "nan", text), 2, float, "pixel coordinate")
    bad = ~np.isfinite(uv) & visible
    _reject(
        path, bad, 2, lambda i, j: f"non-finite pixel coordinate {text[i, j]!r} on a visible row"
    )
    return Track2D(frame_index=frames, uv=uv, visible=visible, sync=flags[:, 1] == "1")


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
        rms = float(doc["rms_reprojection_px"])
        if not math.isfinite(rms):  # the JSON text was a string such as "nan"
            raise ValueError(f"rms_reprojection_px must be finite, got {rms}")
        return ResultDocument(
            mode=str(doc["mode"]),
            pose=_pose_from_doc(doc["pose"], path),
            rms_reprojection_px=rms,
            n_pairs_used=int(doc["n_pairs_used"]),
            dropped=tuple((int(d["frame"]), str(d["reason"])) for d in doc["dropped"]),
            condition=str(doc["condition"]),
            rotation_error_metric=str(doc["rotation_error_metric"]),
            tool_version=str(doc["tool_version"]),
            input_digests=dict(doc["inputs"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
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
