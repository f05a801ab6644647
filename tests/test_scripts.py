"""Smoke test of the scan scripts: each runs at tiny bounds, exits 0 and
reports no mismatch."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmfamilies

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(cmfamilies.__file__).resolve().parent.parent)

RUNS = [
    ["family_grid_scan.py", "--max-n", "2"],
    ["leaf_census.py", "--max-n", "3"],
    ["rigid_scan.py", "--max-n", "2", "--max-m", "6"],
]


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv))
def test_script_runs(argv):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert not any("MISMATCH" in line for line in proc.stdout.splitlines())
