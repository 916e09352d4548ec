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
from refcal import pnp
from refcal.geometry import CameraIntrinsics

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
