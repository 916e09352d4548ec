"""Every script in demos/, and the README's library tour, runs to completion
without a RuntimeWarning or DeprecationWarning."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import refcal

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    """Python in a child process; as in the suite, a RuntimeWarning or a
    DeprecationWarning is an error there."""
    env = dict(os.environ, PYTHONPATH=str(Path(refcal.__file__).parents[1]))
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
    return subprocess.run(
        [sys.executable, *warnings, *args], cwd=cwd, capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    # A scratch working directory: 06_sweeps.py writes its CSVs there.
    proc = _run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs(tmp_path):
    # The tour is the first code a reader copies: it must keep up with the API.
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Library tour\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert tour, "README.md has no library-tour python block"
    proc = _run_python(["-c", tour.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PoseError(")
