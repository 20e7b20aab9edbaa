"""Every demo script runs to completion, and its output does not depend on
Python's string hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script: Path, hash_seed: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    res = _run(script, "1")
    assert res.returncode == 0, res.stderr
    assert res.stdout


def test_reroute_demo_ignores_hash_seed():
    script = ROOT / "demos" / "reroute_and_mirror.py"
    first, second = _run(script, "1"), _run(script, "2")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
