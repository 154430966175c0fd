"""Smoke runs of the scripts under ``scripts/`` at small sizes, and the
configs that those scripts and the benchmark hand to the CLI."""

import collections
import importlib.util
import json
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
identity_runs = load("identity_runs", ROOT / "scripts" / "identity_runs.py")


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


def test_identity_runs_enumerates_22_named_configs(monkeypatch):
    # The 7 make_configs configs plus every workload config at seeds 1-3,
    # under 22 distinct run names; enumerating them starts no run.  The
    # classical interval of vector_equilibrium takes no seed, so its three
    # runs share one config.
    def no_run(*args, **kwargs):
        raise AssertionError("identity_configs started a process")

    monkeypatch.setattr(subprocess, "run", no_run)
    configs = identity_runs.identity_configs()
    assert len(configs) == 22
    assert set(make_configs.CONFIGS) <= set(configs)
    by_content = collections.defaultdict(list)
    for name, data in configs.items():
        by_content[json.dumps(data, sort_keys=True)].append(name)
    shared = [names for names in by_content.values() if len(names) > 1]
    assert shared == [[f"vector_equilibrium-s{seed}-1" for seed in (1, 2, 3)]]
