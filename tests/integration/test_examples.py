"""Every example script runs end to end.

Each ``examples/*.py`` is a documented entry point (README, the
examples' own ``Run:`` lines) that asserts its own results; here each
one runs as a subprocess at a small ``REPRO_SCALE``, in-process and
without artifacts, and must exit 0 with something on stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def example_env():
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in ("REPRO_ARTIFACT_DIR", "REPRO_WORKERS")
    }
    env["REPRO_SCALE"] = "0.05"
    env["PYTHONPATH"] = str(REPO / "src")
    return env


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO,
        env=example_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stdout.strip(), f"{script.name} printed nothing"
