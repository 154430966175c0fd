#!/usr/bin/env python3
"""Run the identity configs through the CLI and keep everything they write.

    python3 scripts/identity_runs.py OUT_DIR

The identity configs are the seven ``scripts/make_configs.py`` configs
and every config of the four benchmark workloads at seeds 1-3
(``perfbench/workloads.py``), 22 in all.  Each one runs in a fresh
``python -m nikmop.cli`` process on the ``src`` of the checkout that
holds this script.  ``OUT_DIR/<name>/`` receives the config
(``config.json``), the run's output directory (``out/``), its stdout,
its stderr and its exit code (``exit_code``).  Two checkouts give the
same results when

    diff -r -x run_meta.json A B

prints nothing: ``run_meta.json`` holds the timings.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


def _load(name: str, *path: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def identity_configs() -> dict:
    """Run name -> CLI config, in run order: the make_configs configs by
    kind, then ``<workload>-s<seed>-<i>`` for config i of each workload."""
    make_configs = _load("make_configs", "scripts", "make_configs.py")
    workloads = _load("workloads", "perfbench", "workloads.py")
    out = dict(make_configs.CONFIGS)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, data in enumerate(workloads.configs(workload, seed)):
                out[f"{workload}-s{seed}-{i}"] = data
    return out


def run(name: str, data: dict, out_dir: str) -> int:
    """One config in a fresh CLI process; returns its exit code."""
    run_dir = os.path.join(out_dir, name)
    os.makedirs(run_dir, exist_ok=True)
    config = os.path.join(run_dir, "config.json")
    with open(config, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "nikmop.cli", "--config", config,
         "--out", os.path.join(run_dir, "out")],
        env=env, capture_output=True, text=True,
    )
    for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr),
                         ("exit_code", f"{proc.returncode}\n")):
        with open(os.path.join(run_dir, stream), "w") as fh:
            fh.write(text)
    return proc.returncode


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: identity_runs.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = argv[0]
    for name, data in identity_configs().items():
        print(f"{name}: exit {run(name, data, out_dir)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
