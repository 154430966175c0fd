#!/usr/bin/env python3
"""Run every workload on several seeds and print each metric by name and
unit with its median and the spread between its quartiles as a share of
the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/prove.py [--seeds 10] [--first-seed 1] [--workloads a,b]
                               [--trace 0|1]

Run from the root of a checkout.  A spread must stay within the bound
(``setup_s`` is exempt); ``ok`` marks one below a third of it.  Exit
status is 1 when any run is incorrect, exits nonzero or reports other
metrics than BENCHMARK.json lists.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    bad = 0
    for workload in args.workloads.split(","):
        values, lasted = {}, []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
                ],
                cwd=ROOT, capture_output=True, text=True,
            )
            lasted.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                bad += 1
                print(f"{workload} seed {seed}: exit {proc.returncode} {lines[-2:]} "
                      f"{proc.stderr.strip()[-300:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                bad += 1
                print(f"{workload} seed {seed}: metrics differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {len(lasted)} runs, {statistics.median(lasted):.1f} s "
              f"median, {max(lasted):.1f} s max per run")
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"  {name:45s} {med:12.6g} {units.get(name, '?'):10s}"
            if len(vals) >= 4 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                line += f" spread {spread:6.3f}"
                if name in bounds and not args.trace:
                    bound = bounds[name]["bound"]
                    ok = name == "setup_s" or spread < bound / 3
                    line += f"  bound {bound:<5} {'ok' if ok else 'WIDE'}"
            print(line)
            print("    " + " ".join(f"{v:.4g}" for v in vals))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
