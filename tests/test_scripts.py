"""Smoke runs of the scripts under ``scripts/`` at small sizes."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_classical_suite_runs():
    proc = run_script("classical_suite.py", "--depth", "8", "--bits", "128",
                      "--nodes", "24", "--panels", "32")
    assert proc.returncode == 0, proc.stderr
    assert "kappa one-step ratios" in proc.stdout
    assert "equilibrium constant" in proc.stdout

