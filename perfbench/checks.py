"""Output checks: properties every correct calibration must have.

Each check compares refcal's output with the independent reference in
``reference.py`` or with a property of the method, never with a saved copy
of an earlier output, and raises CheckFailed on a violation.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

# The reported rms and the benchmark's recomputation differ only by the
# rounding of the written quaternion (about 1e-15 relative).
RMS_REL_TOL = 1e-9
# A noiseless sweep cell recovers the pose to rounding: translations agree
# to ~1e-14 cm, and the arccos in the geodesic angle floors at ~2e-8 rad.
EXACT_TRANS_CM = 1e-8
EXACT_ROT_RAD = 1e-6


class CheckFailed(Exception):
    """A refcal output violates a property the benchmark checks."""


def check_least_squares(cam: ref.Camera, est: np.ndarray, gt: np.ndarray, pts: np.ndarray,
                        pix: np.ndarray) -> None:
    """The estimate's reprojection cost on the pairs it used is no higher
    than the ground truth's, as any least-squares optimum's must be."""
    cost_est = ref.reprojection_cost(cam, est, pts, pix)
    cost_gt = ref.reprojection_cost(cam, gt, pts, pix)
    if not cost_est <= cost_gt:
        raise CheckFailed(
            f"estimate's reprojection cost {cost_est:.6g} px^2 exceeds the ground "
            f"truth's {cost_gt:.6g} px^2 on the same {len(pts)} pairs"
        )


def check_reported_rms(cam: ref.Camera, est: np.ndarray, pts: np.ndarray, pix: np.ndarray,
                       reported: float) -> None:
    """The rms a result reports is the rms of its own pose's residuals."""
    rms = ref.reprojection_rms(cam, est, pts, pix)
    if not abs(rms - reported) <= RMS_REL_TOL * rms:
        raise CheckFailed(f"reported rms {reported!r} px, recomputed {rms!r} px")


def check_drops(reported, expected) -> None:
    """The calibration drops exactly the flagged frames, each for its flag."""
    reported = [(int(f), str(r)) for f, r in reported]
    if reported != list(expected):
        missing = sorted(set(expected) - set(reported))
        extra = sorted(set(reported) - set(expected))
        raise CheckFailed(f"dropped frames differ: missing {missing[:5]}, unexpected {extra[:5]}")


def parse_sweep_csv(text: str) -> tuple[dict, list[dict]]:
    """(metadata, rows) of a refcal sweep CSV."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# meta: "):
            key, _, value = line[len("# meta: "):].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append({k: float(v) for k, v in zip(header, line.split(","))})
    return meta, rows


def check_noise_sweep(meta: dict, rows: list[dict], sigmas, repeats: int) -> None:
    """Every repeat solved, the noiseless cell is exact, and the error rises
    with sigma (the sweep scales one noise draw, so the rise is strict)."""
    if meta.get("n_repeats") != str(repeats):
        raise CheckFailed(f"sweep ran {meta.get('n_repeats')} repeats, asked for {repeats}")
    if [r["param"] for r in rows] != [float(s) for s in sigmas]:
        raise CheckFailed(f"sweep rows {[r['param'] for r in rows]} != sigmas {list(sigmas)}")
    failed = [r["param"] for r in rows if r["n_fail"] != 0]
    if failed:
        raise CheckFailed(f"sweep cells with failed repeats: sigma {failed}")
    zero = rows[0]
    if sigmas[0] != 0 or not (zero["mean_e_trans_cm"] <= EXACT_TRANS_CM
                              and zero["mean_e_r_rad"] <= EXACT_ROT_RAD):
        raise CheckFailed(
            f"noiseless cell misses the ground truth by {zero['mean_e_trans_cm']!r} cm, "
            f"{zero['mean_e_r_rad']!r} rad"
        )
    for key in ("mean_e_trans_cm", "mean_e_r_rad"):
        values = [r[key] for r in rows]
        if not all(a < b for a, b in zip(values, values[1:])):
            raise CheckFailed(f"{key} does not rise with sigma: {values}")
