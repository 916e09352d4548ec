"""Every refcal name the traced benchmark wraps must exist.

perfbench/tracer.py wraps refcal functions where their callers look them
up (module attributes).  A refactor that drops one of those imports would
break `perfbench/run.py --trace 1`; this test catches it in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

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
