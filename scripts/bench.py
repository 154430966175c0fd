#!/usr/bin/env python3
"""Alternated before/after benchmark of the working tree against a commit.

    python3 scripts/bench.py --out BENCH_N.json [--base REV] [--seeds 201-210]

Exports ``--base`` (default HEAD) with ``git archive`` into a temporary
directory.  For each seed, and each workload of ``BENCHMARK.json``
within it, runs ``perfbench/run.py --trace 0`` for the benchmark's
``run_seconds`` once on that export and once on the working tree; which
side runs first switches from one seed to the next, so drift of the
machine over a run does not favour one side.  Writes the raw result
lines of every run (the environment line and the metrics line), the
seeds, the base commit and the working tree's HEAD and content hash to
``--out``, with a summary per workload: the failed runs of each side
and, per end-to-end metric over the seeds where both sides succeeded,
the median of each side, the spread of the base runs (interquartile
range over median) and the number of pairs in which the working tree
was better.  Exits 1 when any run failed.  Run from the root of a
checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True,
        env=env,
    ).stdout.strip()


def worktree_hash() -> str:
    """Git tree hash of the working tree's content.

    Covers tracked files and untracked ones that ``.gitignore`` does not
    exclude, staged or not; on a clean checkout it equals ``HEAD^{tree}``.
    Built in a throwaway index, so the real index is left alone.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "--all", env=env)
        return git("write-tree", env=env)


def export(rev: str, dest: str) -> None:
    """The tree of ``rev`` unpacked into ``dest`` with ``git archive``."""
    archive = os.path.join(dest, "base.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)


def parse_seeds(text: str) -> list:
    """``201-210`` or ``5,9,11``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = {"returncode": proc.returncode, "info": None, "result": None}
    if len(lines) >= 2:
        record["info"] = json.loads(lines[-2])
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = proc.stderr.strip().splitlines()[-5:]
    return record


def failed(record: dict) -> bool:
    """A crash, a missing result line or a result ``run.py`` calls wrong."""
    result = record["result"]
    return (record["returncode"] != 0 or not result or not result["correct"]
            or result["failed"] != 0)


def quartile_spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list, better: dict) -> dict:
    """Per workload: failed runs per side; per metric over the seeds
    where both sides succeeded: medians, base spread, pairs won."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        failed_runs = {s: sum(r["side"] == s and failed(r) for r in mine)
                       for s in SIDES}
        pairs = {}
        for r in mine:
            if not failed(r):
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        table = {
            "pairs": len(pairs),
            "failed_runs": failed_runs,
            "all_correct": bool(pairs) and not any(failed_runs.values()),
        }
        for name, direction in better.items():
            vals = {
                s: [p[s]["metrics"][name]["value"] for p in pairs
                    if name in p[s]["metrics"]]
                for s in SIDES
            }
            if not all(vals.values()) or len(vals["base"]) != len(vals["change"]):
                continue
            sign = -1 if direction == "lower" else 1
            wins = sum(
                sign * (c - b) > 0 for b, c in zip(vals["base"], vals["change"])
            )
            table[name] = {
                "base_median": statistics.median(vals["base"]),
                "change_median": statistics.median(vals["change"]),
                "base_quartile_spread": quartile_spread(vals["base"]),
                "change_better_pairs": wins,
            }
        out[workload] = table
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--seeds", default="201-210")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    head_tree = git("rev-parse", "HEAD^{tree}")
    tree = worktree_hash()
    meta = {
        "base": {
            "rev": args.base,
            "commit": git("rev-parse", args.base),
            "tree": git("rev-parse", f"{args.base}^{{tree}}"),
        },
        "change": {
            "head": git("rev-parse", "HEAD"),
            "tree": tree,
            "clean": tree == head_tree,
        },
        "seeds": seeds,
        "workloads": workloads,
        "seconds": seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    scratch = tempfile.mkdtemp(prefix="bench-")
    runs = []
    try:
        export(args.base, scratch)
        trees = {"base": os.path.join(scratch, "tree"), "change": ROOT}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for position, side in enumerate(order):
                    record = run_once(trees[side], workload, seed, seconds)
                    record.update(side=side, workload=workload, seed=seed,
                                  position=position)
                    runs.append(record)
                    wall = (record["result"] or {}).get("metrics", {}).get("wall_s")
                    print(f"seed {seed} {workload} {side}: "
                          f"wall_s {wall['value'] if wall else None}"
                          f"{' FAILED' if failed(record) else ''}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    meta["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    report = {**meta, "summary": summarize(runs, better), "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report["summary"], indent=1, sort_keys=True))
    return 0 if all(t["all_correct"] for t in report["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
