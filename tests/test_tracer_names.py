"""Every refcal name the traced benchmark wraps must exist and be reached.

perfbench/tracer.py wraps refcal functions where their callers look them
up (module attributes).  A refactor that drops one of those imports would
break `perfbench/run.py --trace 1`; this test catches it in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from helpers import synth_scene
from refcal import calibration, fileio, pnp
from refcal.calibration import Mode
from refcal.geometry import CameraIntrinsics
from refcal.simulation import ScenarioConfig, run_noise_sweep

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    import refcal.cli  # noqa: F401  (imports every module the tracer names)

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    entries = [(mod, attr) for mod, attr, _ in tracer.SPANS + tracer.COUNTED]
    assert entries
    missing = [
        f"{mod}.{attr}"
        for mod, attr in entries
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


def test_solve_pnp_reaches_the_traced_pnp_names(monkeypatch):
    # The traced pnp.refine_ms, pnp.degeneracy_ms and pnp.linearize_calls see
    # only calls made through these module attributes; a solve that bound
    # them any other way would leave those metrics at 0.
    calls = {}
    for name in ("refine_pose", "check_degeneracy", "linearize_reprojection"):

        def counted(*args, _name=name, _original=getattr(pnp, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pnp, name, counted)
    k = CameraIntrinsics.from_horizontal_fov(60.0, 1920, 1080)
    _, pts, pix = synth_scene(np.random.default_rng(5), 12, k)
    pnp.solve_pnp(pts, pix, k)
    assert sorted(calls) == ["check_degeneracy", "linearize_reprojection", "refine_pose"]
    assert min(calls.values()) >= 1


def test_noise_sweep_stays_stacked_and_traced(panda_base, monkeypatch):
    # The traced calibration.select_ms and pnp.solve_ms see the sweep only
    # through these module attributes.  A scene's noise levels keep its
    # frame flags, so they select frames once per scene, and every scene and
    # noise level of the sweep is one member of one ragged stack.
    calls = {"select_frames": [], "solve_pnp": []}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(calibration, name), **kwargs):
            calls[_name].append(len(args[1]) if _name == "solve_pnp" else None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(calibration, name, counted)
    chain, ref = panda_base
    cfg = ScenarioConfig(seed=1, mode=Mode.EYE_IN_HAND)
    sweep = run_noise_sweep(cfg, chain, ref, [0.0, 2.0, 4.0], n_repeats=2)
    assert [cell.n_fail for cell in sweep.cells] == [0, 0, 0]
    assert len(calls["select_frames"]) == 2
    assert calls["solve_pnp"] == [6]


def test_sweep_to_csv_reaches_the_traced_writer(panda, tmp_path, monkeypatch):
    # The traced fileio.write_ms sees sweep files only through this module
    # attribute; a name bound at import would leave it at 0.
    written = []
    monkeypatch.setattr(fileio, "write_sweep_csv", lambda sweep, path: written.append(path))
    chain, ref = panda
    sweep = run_noise_sweep(ScenarioConfig(seed=1, duration=2.0), chain, ref, [0.0], n_repeats=1)
    sweep.to_csv(tmp_path / "noise.csv")
    assert written == [tmp_path / "noise.csv"]
