"""The runnable studies in scripts/ run to the end, and the worked example
prints the Fieller tangents that README.md quotes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("script", ["worked_example.py", "failure_modes.py"])
def test_script_runs(script):
    done = _run(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    if script == "worked_example.py":
        assert "tangent slopes through the origin: -0.0180, 497.9452\n" in done.stdout
