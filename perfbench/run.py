"""refcal benchmark: one workload for a fixed time, metrics as JSON.

Usage, from the root of a refcal checkout (nothing needs installing):

    python3 perfbench/run.py --workload capture-eob --seed 1 --seconds 30 --trace 0

Builds the workload's inputs, then runs whole rounds of its operations
until ``--seconds`` have passed, building the inputs again after every
round (``setup_s`` is the median build time), and checks every output
against the reference in ``reference.py``.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced rounds, reports the per-layer metrics of the traced rounds and
prints the tracing overhead.  The last line of standard output is the JSON
result; run results and span files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One process, one thread: BLAS must read these before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def import_refcal():
    """Import refcal from this checkout's src/, never from an installed copy."""
    package = SRC / "refcal"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a refcal checkout")
    sys.path.insert(0, str(SRC))
    import refcal
    import refcal.cli

    if Path(refcal.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported refcal from {refcal.__file__}, not from {package}")
    return refcal


def tail(latencies: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            k = math.ceil(p / 100.0 * n)
            value = sorted(latencies)[k - 1]
            return f"p{p:g} {value * 1000:.4f} ms ({n} samples, {n - k} beyond)"
    return f"median only ({n} samples, fewer than 40)"


def timed_setup(workload: str, work: Path) -> tuple[list, float]:
    """Build the workload's inputs into a fresh directory; (ops, seconds)."""
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    ops = WORKLOADS[workload](ROOT, work)
    return ops, time.perf_counter() - t0


def measure(ops, seconds: float, seed: int, tracer, rebuild):
    """Run whole rounds until `seconds` pass; with a tracer, odd rounds are
    traced.  After each round, `rebuild()` times one more input build.
    Returns (records, outcomes, attempted, failed, problems): a record is
    (traced, op index, latency_s, poses solved); an outcome is the checked
    result of one pool operation, which must repeat exactly."""
    rng = np.random.default_rng(seed)
    records = []
    outcomes: dict[int, tuple] = {}
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install(sys.modules)
        try:
            for i in map(int, rng.permutation(len(ops))):
                op = ops[i]
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = tracer.run_op(i, op.run, op.cli) if traced else op.run()
                except Exception as exc:  # a failed operation is counted, the run goes on
                    failed += 1
                    if failed == 1:
                        traceback.print_exc(file=sys.stderr)
                    problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    continue
                latency = time.perf_counter() - t0
                try:
                    outcome = op.check(out)
                except checks.CheckFailed as exc:
                    problems.append(f"{op.label}: check failed: {exc}")
                    continue
                if outcomes.setdefault(i, outcome) != outcome:
                    problems.append(f"{op.label}: result changed between rounds")
                records.append((traced, i, latency, outcome[0]))
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        rebuild()
        if time.perf_counter() - start >= seconds and (tracer is None or rounds % 2 == 0):
            return records, outcomes, attempted, failed, problems


def end_to_end(records, outcomes: dict, setup_s: float) -> dict:
    lat = [r[2] for r in records]
    # Accuracy takes each pool operation once, in pool order, so it does not
    # depend on how many rounds ran or in which order.
    pool = [outcomes[i] for i in sorted(outcomes)]
    solved = sum(o[0] for o in pool)
    return {
        "latency_ms": (statistics.median(lat) * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
        "calibrations_per_s": (sum(r[3] for r in records) / sum(lat), "1/s"),
        "e_trans_cm": (sum(o[1] for o in pool) / solved, "cm"),
        "e_rot_rad": (sum(o[2] for o in pool) / solved, "rad"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    refcal = import_refcal()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        ops, first = timed_setup(args.workload, work / "inputs")
        setups = [first]

        def rebuild():
            # Host speed drifts over seconds, so set-up is sampled across
            # the whole run, like latency: one more build after every round.
            setups.append(timed_setup(args.workload, work / "rebuild")[1])

        tracer = tracing.Tracer() if args.trace else None
        records, outcomes, attempted, failed, problems = measure(
            ops, args.seconds, args.seed, tracer, rebuild)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    plain = [r for r in records if not r[0]]
    traced = [r[2] for r in records if r[0]]
    if not plain or (tracer is not None and not traced):
        print("error: no operation completed", file=sys.stderr)
        return 1
    checked_failures = len(problems) - failed
    e2e = end_to_end(plain, outcomes, statistics.median(setups))

    print(f"refcal {refcal.__version__} workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}; {len(ops)} operations per round")
    print(f"attempted {attempted} failed {failed} checks failed {checked_failures}")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value!r} {unit}")
    print(f"latency tail: {tail([r[2] for r in plain])}")
    print(f"setup: median of {len(setups)} input builds, "
          f"{min(setups):.6f} to {max(setups):.6f} s")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        layer = tracer.layer_metrics(len(traced))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
        over_ms = (statistics.median(traced) - statistics.median(r[2] for r in plain)) * 1000.0
        print(f"tracing overhead: {over_ms:.4f} ms per operation "
              f"({100.0 * over_ms / e2e['latency_ms'][0]:.2f}% of the untraced median; "
              f"{len(traced)} traced, {len(plain)} untraced operations)")
        tracer.write(OUT / f"spans-{tag}.json")
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}

    result = {"correct": checked_failures == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    saved = dict(result, latencies_ms=[r[2] * 1000.0 for r in plain], setup_runs_s=setups)
    (OUT / f"result-{tag}.json").write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
