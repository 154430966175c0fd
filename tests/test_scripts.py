"""Smoke runs of the scripts under ``scripts/`` at small sizes, and the
configs that those scripts and the benchmark hand to the CLI."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from nikmop.cli import ExperimentConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_configs = load("make_configs", ROOT / "scripts" / "make_configs.py")
workloads = load("workloads", ROOT / "perfbench" / "workloads.py")


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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_configs_parse(workload, seed):
    # A workload config that ExperimentConfig rejects would fail every
    # repetition of the benchmark.
    for data in workloads.configs(workload, seed):
        assert ExperimentConfig.from_dict(data).kind == data["kind"]
