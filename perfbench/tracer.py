"""Spans and counters around refcal's public functions, for the traced run.

The tracer wraps public functions where their callers look them up (a
module attribute), records one span per call in memory, and turns the
spans into the per-layer metrics when the run ends.  Nothing inside refcal
changes; a call that bypasses the module attribute is not seen.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

# (module, attribute, span name).  A span name is "<layer>.<what>".  The
# same function is wrapped once per namespace its callers use.
SPANS = (
    ("refcal.cli", "parse_chain_file", "fileio.parse"),
    ("refcal.cli", "parse_joint_log_csv", "fileio.parse"),
    ("refcal.cli", "parse_track_csv", "fileio.parse"),
    ("refcal.cli", "parse_intrinsics_file", "fileio.parse"),
    ("refcal.cli", "write_result", "fileio.write"),
    ("refcal.fileio", "write_sweep_csv", "fileio.write"),
    ("refcal.cli", "calibrate", "calibration.calibrate"),
    ("refcal.simulation", "calibrate", "calibration.calibrate"),
    ("refcal", "calibrate", "calibration.calibrate"),
    ("refcal.calibration", "select_frames", "calibration.select"),
    ("refcal.calibration", "reference_point_in_base", "kinematics.point"),
    ("refcal.calibration", "base_point_in_ee_frame", "kinematics.point"),
    ("refcal.kinematics", "forward_kinematics", "kinematics.fk"),
    ("refcal.simulation", "forward_kinematics", "kinematics.fk"),
    ("refcal.calibration", "solve_pnp", "pnp.solve"),
    ("refcal.pnp", "check_degeneracy", "pnp.degeneracy"),
    ("refcal.pnp", "refine_pose", "pnp.refine"),
    ("refcal.cli", "run_noise_sweep", "simulation.sweep"),
    ("refcal.simulation", "generate_scene", "simulation.generate_scene"),
    ("refcal.simulation", "corrupt_track", "simulation.corrupt_track"),
)

# Called too often for a span each (tens of times per solve): counted only.
COUNTED = (("refcal.pnp", "linearize_reprojection", "pnp.linearize"),)

ROOT = "op"
CLI_ROOT = "cli.main"

# Per-layer metrics with their units, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("fileio.parse_ms", "ms"),
    ("fileio.write_ms", "ms"),
    ("fileio.bytes_read", "count"),
    ("kinematics.fk_ms", "ms"),
    ("kinematics.fk_calls", "count"),
    ("kinematics.fk_us_per_frame", "us"),
    ("calibration.select_ms", "ms"),
    ("calibration.pairs", "count"),
    ("pnp.degeneracy_ms", "ms"),
    ("pnp.linear_ms", "ms"),
    ("pnp.refine_ms", "ms"),
    ("pnp.solve_ms", "ms"),
    ("pnp.refine_calls", "count"),
    ("pnp.linearize_calls", "count"),
    ("simulation.generate_scene_ms", "ms"),
    ("simulation.corrupt_track_ms", "ms"),
    ("simulation.calibrate_ms", "ms"),
    ("cli.overhead_ms", "ms"),
)


class Tracer:
    """In-memory spans (name, start, end, parent index, op index) and counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []

    # ------------------------------------------------------------ recording

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)
        if name == "fileio.parse":
            self.counts["fileio.bytes_read"] += os.path.getsize(args[0])
        elif name == "calibration.calibrate":
            self.counts["calibration.pairs"] += result.n_pairs_used
        return result

    def run_op(self, index: int, fn, cli: bool):
        """Run one operation under a root span."""
        self._op = index
        return self.span(CLI_ROOT if cli else ROOT, fn)

    def _wrapped(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, modules) -> None:
        for table, make in ((SPANS, self._wrapped), (COUNTED, self._counted)):
            for mod_name, attr, name in table:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # ------------------------------------------------------------- metrics

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics: times and counts per operation, PnP per solve."""
        spans = self.spans
        total = Counter()
        calls = Counter()
        children = [0.0] * len(spans)
        linear_self = kin_time = cli_self = sim_cal = 0.0
        for name, start, end, parent, _ in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                children[parent] += dur
                pname = spans[parent][0]
            else:
                pname = None
            if name.startswith("kinematics.") and not (pname or "").startswith("kinematics."):
                kin_time += dur
            if name == "calibration.calibrate" and pname == "simulation.sweep":
                sim_cal += dur
        for i, (name, start, end, _, _) in enumerate(spans):
            if name == "pnp.solve":
                linear_self += end - start - children[i]
            elif name == "cli.main":
                cli_self += end - start - children[i]
        n_solves = max(calls["pnp.solve"], 1)
        n_cal = max(calls["calibration.calibrate"], 1)
        per_op = 1000.0 / n_ops
        per_solve = 1000.0 / n_solves
        return {
            "fileio.parse_ms": total["fileio.parse"] * per_op,
            "fileio.write_ms": total["fileio.write"] * per_op,
            "fileio.bytes_read": self.counts["fileio.bytes_read"] / n_ops,
            "kinematics.fk_ms": kin_time * per_op,
            "kinematics.fk_calls": calls["kinematics.fk"] / n_ops,
            "kinematics.fk_us_per_frame": kin_time * 1e6 / max(calls["kinematics.fk"], 1),
            "calibration.select_ms": total["calibration.select"] * per_op,
            "calibration.pairs": self.counts["calibration.pairs"] / n_cal,
            "pnp.degeneracy_ms": total["pnp.degeneracy"] * per_solve,
            "pnp.linear_ms": linear_self * per_solve,
            "pnp.refine_ms": total["pnp.refine"] * per_solve,
            "pnp.solve_ms": total["pnp.solve"] * per_solve,
            "pnp.refine_calls": calls["pnp.refine"] / n_solves,
            "pnp.linearize_calls": self.counts["pnp.linearize"] / n_solves,
            "simulation.generate_scene_ms": total["simulation.generate_scene"] * per_op,
            "simulation.corrupt_track_ms": total["simulation.corrupt_track"] * per_op,
            "simulation.calibrate_ms": sim_cal * per_op,
            "cli.overhead_ms": cli_self * per_op,
        }

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
