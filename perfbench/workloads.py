"""The benchmark's workloads: inputs, one operation each, output checks.

Every workload is a fixed pool of operations built from fixed seeds, so
its accuracy metrics repeat exactly; the run's ``--seed`` only sets the
order in which each round visits the pool.

- capture-eob: ``refcal calibrate`` (in-process) on full 300-frame
  eye-on-base captures written to disk by the reference model: files in,
  result JSON out.  FK dominates; the only workload with file I/O.
- few-frames-eob: in-memory ``refcal.calibrate`` on 6 to 12 evenly spaced
  frames of such captures.  The fixed per-solve PnP work dominates.
- sweep-noise-eih: ``refcal sweep-noise --mode eih`` on the base-point
  chain: scene generation, the inverted end-effector FK, and FK again for
  every sigma of the same scenes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref

CAPTURE_SEEDS = tuple(range(1, 9))
CAPTURE_SIGMA_PX = 2.0
FEW_FRAME_SEEDS = tuple(range(101, 109))
FRAME_COUNTS = tuple(range(6, 13))
SWEEP_SEEDS = (1,)
SWEEP_SIGMAS = (0, 2, 4, 6, 8, 10)
SWEEP_REPEATS = 4


class OpFailed(Exception):
    """The program reported an error for one operation."""


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    ``check`` returns (poses solved, summed translation error in cm, summed
    rotation error in rad) or raises checks.CheckFailed.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, float, float]]
    cli: bool


def _chain_path(root: Path, name: str) -> Path:
    return root / "src" / "refcal" / "data" / f"{name}.json"


def _cli_call(argv: list[str]) -> Callable[[], None]:
    cli = sys.modules["refcal.cli"]

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"refcal {argv[0]} exited {code}: {sink.getvalue().strip()}")
    return run


# ------------------------------------------------------------ capture-eob ---


def _capture_op(cap: ref.Capture, paths: dict, out: Path) -> Op:
    argv = ["calibrate", "--mode", "eob", "--chain", str(paths["chain.json"]),
            "--joints", str(paths["joints.csv"]), "--track", str(paths["track.csv"]),
            "--intrinsics", str(paths["intrinsics.json"]), "-o", str(out)]
    used = cap.usable

    def check(_):
        doc = json.loads(out.read_text())
        out.unlink()
        checks.check_drops([(d["frame"], d["reason"]) for d in doc["dropped"]], cap.dropped)
        if doc["n_pairs_used"] != len(used):
            raise checks.CheckFailed(f"used {doc['n_pairs_used']} pairs, expected {len(used)}")
        est = ref.pose_from_result(doc)
        pts, pix = cap.points[used], cap.uv[used]
        checks.check_least_squares(ref.CAMERA, est, cap.t_gt, pts, pix)
        checks.check_reported_rms(ref.CAMERA, est, pts, pix, doc["rms_reprojection_px"])
        return (1, *ref.pose_error(est, cap.t_gt))

    return Op(f"capture seed {cap.seed}", _cli_call(argv), check, cli=True)


def setup_capture_eob(root: Path, work: Path) -> list[Op]:
    chain_file = _chain_path(root, "panda")
    chain = ref.load_chain(chain_file)
    text = chain_file.read_text()
    ops = []
    for seed in CAPTURE_SEEDS:
        cap = ref.make_capture(chain, seed, CAPTURE_SIGMA_PX)
        paths = ref.write_capture(cap, text, work / f"capture-{seed}")
        ops.append(_capture_op(cap, paths, work / f"capture-{seed}" / "result.json"))
    return ops


# --------------------------------------------------------- few-frames-eob ---


def _few_frames_op(cap: ref.Capture, request, frames: np.ndarray) -> Op:
    refcal = sys.modules["refcal"]
    pts, pix = cap.points[frames], cap.uv[frames]

    def check(result):
        if result.n_pairs_used != len(frames):
            raise checks.CheckFailed(f"used {result.n_pairs_used} pairs, expected {len(frames)}")
        checks.check_drops(result.dropped, ())
        est = result.pose.matrix()
        checks.check_least_squares(ref.CAMERA, est, cap.t_gt, pts, pix)
        checks.check_reported_rms(ref.CAMERA, est, pts, pix,
                                  result.solution.rms_reprojection_error)
        return (1, *ref.pose_error(est, cap.t_gt))

    # Looked up on every call, so the traced run sees its wrapper.
    return Op(f"seed {cap.seed}, {len(frames)} frames",
              lambda: refcal.calibrate(request), check, cli=False)


def setup_few_frames_eob(root: Path, work: Path) -> list[Op]:
    refcal = sys.modules["refcal"]
    from refcal.fileio import parse_chain_file

    chain_file = _chain_path(root, "panda")
    chain = ref.load_chain(chain_file)
    rc_chain, rc_ref = parse_chain_file(chain_file)
    intrinsics = refcal.CameraIntrinsics(**ref.CAMERA.as_json())
    options = refcal.CalibrationOptions(min_pairs=4)
    ops = []
    for seed in FEW_FRAME_SEEDS:
        cap = ref.make_capture(chain, seed, CAPTURE_SIGMA_PX)
        joints = refcal.JointLog(np.arange(len(cap.joints)), cap.timestamps, cap.joints)
        usable = cap.usable
        for n in FRAME_COUNTS:
            frames = usable[(np.arange(n) * len(usable)) // n]
            track = refcal.Track2D(frames, cap.uv[frames], cap.visible[frames], cap.sync[frames])
            request = refcal.CalibrationRequest(
                mode=refcal.Mode.EYE_ON_BASE, chain=rc_chain, ref=rc_ref,
                intrinsics=intrinsics, track=track, joints=joints, options=options,
            )
            ops.append(_few_frames_op(cap, request, frames))
    return ops


# -------------------------------------------------------- sweep-noise-eih ---


def _sweep_op(seed: int, chain_path: Path, out: Path) -> Op:
    argv = ["sweep-noise", "--mode", "eih", "--seed", str(seed), "--chain", str(chain_path),
            "--sigmas", ",".join(str(s) for s in SWEEP_SIGMAS),
            "--repeats", str(SWEEP_REPEATS), "-o", str(out)]

    def check(_):
        meta, rows = checks.parse_sweep_csv(out.read_text())
        out.unlink()
        checks.check_noise_sweep(meta, rows, SWEEP_SIGMAS, SWEEP_REPEATS)
        solved = [SWEEP_REPEATS - int(r["n_fail"]) for r in rows]
        return (sum(solved),
                sum(n * r["mean_e_trans_cm"] for n, r in zip(solved, rows)),
                sum(n * r["mean_e_r_rad"] for n, r in zip(solved, rows)))

    return Op(f"sweep seed {seed}", _cli_call(argv), check, cli=True)


def setup_sweep_noise_eih(root: Path, work: Path) -> list[Op]:
    chain_file = _chain_path(root, "panda_base_ref")
    if ref.load_chain(chain_file).ref_link != 0:
        raise ValueError(f"{chain_file}: eye-in-hand needs a reference point on the base link")
    work.mkdir(parents=True, exist_ok=True)
    chain_copy = work / "chain.json"
    chain_copy.write_text(chain_file.read_text())
    return [_sweep_op(seed, chain_copy, work / f"sweep-{seed}.csv") for seed in SWEEP_SEEDS]


WORKLOADS = {
    "capture-eob": setup_capture_eob,
    "few-frames-eob": setup_few_frames_eob,
    "sweep-noise-eih": setup_sweep_noise_eih,
}
