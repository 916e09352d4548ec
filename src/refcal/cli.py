"""Command-line surface: a thin shell over the library pipelines.

Exit codes: 0 success, 2 bad input (files or arguments), 3 degenerate or
insufficient data.  Diagnostics go to stderr; results go to the output
path (or stdout for `eval`).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from ._version import __version__
from .calibration import CalibrationOptions, CalibrationRequest, Mode, calibrate
from .errors import CalibrationError, ParseError, SchemaMismatch
from .fileio import (
    ResultDocument,
    check_joint_count,
    file_digest,
    parse_chain_file,
    parse_intrinsics_file,
    parse_joint_log_csv,
    parse_pose_file,
    parse_track_csv,
    write_result,
)
from .simulation import (
    NoiseModel,
    ScenarioConfig,
    corrupt_track,
    evaluate,
    export_scene,
    generate_scene,
    run_frames_sweep,
    run_noise_sweep,
)

_MODES = {"eob": Mode.EYE_ON_BASE, "eih": Mode.EYE_IN_HAND}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and building it costs more than a parse."""
    parser = argparse.ArgumentParser(
        prog="refcal",
        description="Markerless camera-to-robot calibration from a tracked reference point.",
    )
    parser.add_argument("--version", action="version", version=f"refcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="solve a calibration from recorded files")
    cal.add_argument("--mode", choices=sorted(_MODES), required=True)
    cal.add_argument("--chain", required=True, help="chain JSON file")
    cal.add_argument("--joints", required=True, help="joint log CSV")
    cal.add_argument("--track", required=True, help="2D track CSV")
    cal.add_argument("--intrinsics", required=True, help="camera intrinsics JSON")
    cal.add_argument("--all-frames", action="store_true", help="use non-sync frames too")
    cal.add_argument("--robust", action="store_true", help="Huber loss in refinement")
    cal.add_argument("--min-pairs", type=int, default=10)
    cal.add_argument("-o", "--output", required=True, help="result JSON path")

    sim = sub.add_parser("simulate", help="generate a synthetic scene as files")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--mode", choices=sorted(_MODES), default="eob")
    sim.add_argument("--chain", required=True)
    sim.add_argument("--sigma", type=float, default=0.0, help="pixel noise stddev")
    sim.add_argument("-o", "--output", required=True, help="output directory")

    sn = sub.add_parser("sweep-noise", help="error vs. pixel-noise sigma")
    sn.add_argument("--seed", type=int, required=True)
    sn.add_argument("--mode", choices=sorted(_MODES), default="eob")
    sn.add_argument("--chain", required=True)
    sn.add_argument("--sigmas", required=True, help="comma-separated, e.g. 2,4,6,8,10")
    sn.add_argument("--repeats", type=int, default=10)
    sn.add_argument("-o", "--output", required=True, help="CSV path")

    sf = sub.add_parser("sweep-frames", help="error vs. number of frames used")
    sf.add_argument("--seed", type=int, required=True)
    sf.add_argument("--mode", choices=sorted(_MODES), default="eob")
    sf.add_argument("--chain", required=True)
    sf.add_argument("--counts", required=True, help="comma-separated, e.g. 4,6,10,20,50")
    sf.add_argument("--sigma", type=float, default=2.0, help="scene pixel noise stddev")
    sf.add_argument("--repeats", type=int, default=10)
    sf.add_argument("-o", "--output", required=True, help="CSV path")

    ev = sub.add_parser("eval", help="compare an estimated pose against ground truth")
    ev.add_argument("--est", required=True, help="result or pose JSON")
    ev.add_argument("--gt", required=True, help="pose JSON")
    return parser


def _parse_values(text: str, cast):
    try:
        values = [cast(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"bad list {text!r}: {exc}") from exc
    if not values:
        raise ParseError(f"empty value list {text!r}")
    return values


def _cmd_calibrate(args) -> int:
    chain, ref = parse_chain_file(args.chain)
    joints = parse_joint_log_csv(args.joints)
    check_joint_count(chain, joints)
    track = parse_track_csv(args.track)
    intrinsics = parse_intrinsics_file(args.intrinsics)
    req = CalibrationRequest(
        mode=_MODES[args.mode],
        chain=chain,
        ref=ref,
        intrinsics=intrinsics,
        track=track,
        joints=joints,
        options=CalibrationOptions(
            use_only_sync=not args.all_frames,
            min_pairs=args.min_pairs,
            robust=args.robust,
        ),
    )
    result = calibrate(req)
    digests = {
        "chain": file_digest(args.chain),
        "joints": file_digest(args.joints),
        "track": file_digest(args.track),
        "intrinsics": file_digest(args.intrinsics),
    }
    write_result(ResultDocument.from_calibration(req.mode, result, digests), args.output)
    print(
        f"calibrated {args.mode} from {result.n_pairs_used} pairs "
        f"(dropped {len(result.dropped)}), rms "
        f"{result.solution.rms_reprojection_error:.3f} px -> {args.output}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    chain, ref = parse_chain_file(args.chain)
    cfg = ScenarioConfig(seed=args.seed, mode=_MODES[args.mode], noise=NoiseModel(sigma=args.sigma))
    scene = generate_scene(cfg, chain, ref)
    track = None
    if args.sigma > 0:
        track = corrupt_track(scene.clean_track, cfg.noise, seed=args.seed)
    paths = export_scene(scene, cfg.camera, args.output, track=track)
    n_vis = int(np.sum(scene.clean_track.visible))
    print(
        f"simulated {args.mode} scene seed={args.seed}: "
        f"{scene.clean_track.n_frames} frames ({n_vis} visible) -> {paths['chain'].parent}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_sweep_noise(args) -> int:
    chain, ref = parse_chain_file(args.chain)
    cfg = ScenarioConfig(seed=args.seed, mode=_MODES[args.mode])
    sweep = run_noise_sweep(cfg, chain, ref, _parse_values(args.sigmas, float), args.repeats)
    sweep.to_csv(args.output)
    print(f"noise sweep over {len(sweep.cells)} sigmas -> {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep_frames(args) -> int:
    chain, ref = parse_chain_file(args.chain)
    cfg = ScenarioConfig(
        seed=args.seed, mode=_MODES[args.mode], noise=NoiseModel(sigma=args.sigma)
    )
    sweep = run_frames_sweep(cfg, chain, ref, _parse_values(args.counts, int), args.repeats)
    sweep.to_csv(args.output)
    print(f"frame-count sweep over {len(sweep.cells)} counts -> {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_eval(args) -> int:
    est = parse_pose_file(args.est)
    gt = parse_pose_file(args.gt)
    err = evaluate(est, gt)
    print(
        "{"
        f'"e_x_cm": {err.e_x_cm:.6g}, "e_y_cm": {err.e_y_cm:.6g}, '
        f'"e_z_cm": {err.e_z_cm:.6g}, "e_trans_cm": {err.e_trans_cm:.6g}, '
        f'"e_r_rad": {err.e_r_rad:.6g}'
        "}"
    )
    return EXIT_OK


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
    "sweep-noise": _cmd_sweep_noise,
    "sweep-frames": _cmd_sweep_frames,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, SchemaMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # an input or output path that cannot be read or written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
