"""Smoke runs of the scripts under ``scripts/`` at small sizes."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from nikmop.cli import ExperimentConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "make_configs", ROOT / "scripts" / "make_configs.py"
)
make_configs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_configs)


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


@pytest.mark.parametrize("name", sorted(make_configs.CONFIGS))
def test_shipped_configs_parse(name):
    # The per-kind rules of ExperimentConfig must accept every shipped config.
    config = ExperimentConfig.from_dict(make_configs.CONFIGS[name])
    assert config.kind == name
