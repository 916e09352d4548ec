"""Rebuild the CLI's byte-identity output set and print its digests.

For each mode (eob on the bundled panda chain, eih on panda_base_ref) this
runs, in a temporary directory:

- ``sweep-noise --seed 7 --sigmas 0,1,2,4,8 --repeats 4``;
- ``sweep-frames --seed 7 --counts 4,6,10,20 --repeats 4``;
- ``simulate --seed S --sigma 2`` for S = 1, 2, 3, each followed by
  ``calibrate`` plain and ``calibrate --robust --all-frames``.

It also writes, with ``export_scene``, the scenes of
``generate_dual_view_scenes`` for seeds 0, 1 and 2 (the panda chain's flange
point seen by the fixed camera, and its base point seen from each anchor's
arm-mounted camera), which no CLI command produces.

It prints one ``sha256  path`` line per output file, sorted by path, then
``sha256  total``, the digest of the lines above it.  Two checkouts write
the same bytes when their totals are equal.  A command that does not exit
0 stops the script with exit 1; the commands' own messages go to stderr.

Usage: ``PYTHONPATH=src python tools/output_digest.py`` (or with refcal
installed).
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import refcal
from refcal.cli import main
from refcal.fileio import parse_chain_file
from refcal.simulation import ScenarioConfig, export_scene, generate_dual_view_scenes

CHAINS = {"eob": "panda.json", "eih": "panda_base_ref.json"}
SEEDS = (1, 2, 3)
DUAL_VIEW_SEEDS = (0, 1, 2)


def _run(*argv: str) -> None:
    """Run one refcal command, its stdout sent to stderr; exit 1 unless it
    exits 0."""
    with contextlib.redirect_stdout(sys.stderr):
        code = main(list(argv))
    if code != 0:
        sys.exit(f"refcal {' '.join(argv)} exited {code}")


def build(root: Path) -> None:
    """Write the output set under root, one directory per mode."""
    data = Path(refcal.__file__).parent / "data"
    for mode, chain_file in CHAINS.items():
        out = root / mode
        out.mkdir()
        chain = str(data / chain_file)
        common = ("--mode", mode, "--seed", "7", "--chain", chain, "--repeats", "4")
        _run("sweep-noise", *common, "--sigmas", "0,1,2,4,8", "-o", str(out / "noise.csv"))
        _run("sweep-frames", *common, "--counts", "4,6,10,20", "-o", str(out / "frames.csv"))
        for seed in SEEDS:
            scene = out / f"scene-{seed}"
            sim = ("--mode", mode, "--seed", str(seed), "--sigma", "2", "--chain", chain)
            _run("simulate", *sim, "-o", str(scene))
            inputs = ["--mode", mode, "--chain", str(scene / "chain.json")]
            inputs += ["--joints", str(scene / "joints.csv"), "--track", str(scene / "track.csv")]
            inputs += ["--intrinsics", str(scene / "intrinsics.json")]
            _run("calibrate", *inputs, "-o", str(scene / "result.json"))
            robust = ("--robust", "--all-frames")
            _run("calibrate", *inputs, *robust, "-o", str(scene / "robust-all.json"))
    chain, arm_ref = parse_chain_file(data / CHAINS["eob"])
    base_ref = parse_chain_file(data / CHAINS["eih"])[1]
    for seed in DUAL_VIEW_SEEDS:
        cfg = ScenarioConfig(seed=seed)
        eob_scene, eih_scenes = generate_dual_view_scenes(cfg, chain, arm_ref, base_ref)
        out = root / f"dual-view-{seed}"
        export_scene(eob_scene, cfg.camera, out / "eob")
        for anchor, scene in eih_scenes:
            export_scene(scene, cfg.camera, out / f"eih-{anchor}")


def listing(root: Path) -> list[str]:
    """One ``sha256  path`` line per file under root, sorted by path, and
    the total line."""
    lines = [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
        for path in sorted(p for p in root.rglob("*") if p.is_file())
    ]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return [*lines, f"{total}  total"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="refcal-digest-") as tmp:
        build(Path(tmp))
        print("\n".join(listing(Path(tmp))))
