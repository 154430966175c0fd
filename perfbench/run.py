#!/usr/bin/env python3
"""Benchmark of the ``nikmop`` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the CLI configs of
the workload (``workloads.py``).  Every repetition is a fresh process
(``worker.py``) on one thread, so the module-level caches start cold and
``peak_rss_mb`` is one repetition's; repetitions run back to back until
``S`` seconds are used.  Outputs are verified after the timed region:
every kind check in ``summary.json`` passes, the exit code is 0,
``summary.json`` is byte-identical across repetitions, zero sets re-derived
by ``verify.py`` change sign across every zero, and the classical
equilibrium constant is within 5e-3 of log(4 / (b - a)).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` traced and untraced repetitions alternate and it carries
the per-layer table of the traced ones (``tracing.py``).  The line before
it records the environment and the raw samples.  Exit status is 1 when
any verification fails, 2 when the program is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import tracing  # noqa: E402
import workloads  # noqa: E402

# A run must end within 180 s; children are killed past this point.
DEADLINE_S = 165
SETUP_SAMPLES = 3
ROBIN_TOL = 5e-3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    # Cap the BLAS pool the equilibrium solver uses at the visible cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        cap = nproc()
        env[var] = str(min(int(current), cap) if current.isdigit() else cap)
    return env


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return "unknown"


def environment(env: dict) -> dict:
    import mpmath
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {
            v: env[v]
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
    }


def work_items(config: dict) -> int:
    """Indices, ray samples or equilibrium solves one config completes."""
    from nikmop.mop import decreasing_indices

    kind = config["kind"]
    if kind in ("mop", "diagnostics"):
        m1, m2 = len(config["system1"]) - 1, len(config["system2"]) - 1
        return len(decreasing_indices(m1, m2, config["max_size"]))
    if kind == "ratio":
        return config["ray"]["steps"]
    if kind == "equilibrium":
        return 2  # the uniform start and the random restart
    raise ValueError(f"no work-item count for kind {kind!r}")


class Run:
    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload = workload
        self.tmp = tmp
        self.env = child_env()
        self.start = time.perf_counter()
        self.configs = workloads.configs(workload, seed)
        self.config_paths = []
        for i, config in enumerate(self.configs):
            path = os.path.join(tmp, f"config{i}.json")
            with open(path, "w") as fh:
                json.dump(config, fh, indent=2, sort_keys=True)
            self.config_paths.append(path)
        self.items = sum(work_items(c) for c in self.configs)
        self.children = 0
        self.summaries = None
        self.problems = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def child(self, script: str, args: list) -> dict | None:
        self.children += 1
        result = os.path.join(self.tmp, f"result{self.children}.json")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, script), result] + args,
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
                timeout=max(self.remaining(), 1),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{script} timed out")
            return None
        if proc.returncode != 0 or not os.path.isfile(result):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"{script} exited {proc.returncode}: {tail[0]}")
            return None
        with open(result) as fh:
            return json.load(fh)

    def repetition(self, trace: bool) -> dict:
        out = os.path.join(self.tmp, f"out{self.children + 1}")
        flags = ["--trace"] if trace else []
        rep = self.child("worker.py", [out] + self.config_paths + flags)
        if rep is None:
            return {"ok": False}
        rep["ok"] = self.check_outputs(rep, out)
        if rep["ok"] and self.workload == "vector_equilibrium":
            rep["robin_err"] = self.robin_err(out)
            rep["ok"] = rep["robin_err"] <= ROBIN_TOL
        return rep

    def check_outputs(self, rep: dict, out: str) -> bool:
        from nikmop.cli import CHECK_NAMES

        ok = True
        summaries = []
        for i, (config, code) in enumerate(zip(self.configs, rep["codes"])):
            path = os.path.join(out, str(i), "summary.json")
            if code != 0 or not os.path.isfile(path):
                self.problems.append(f"config {i} exited {code}")
                ok = False
                continue
            with open(path, "rb") as fh:
                raw = fh.read()
            summaries.append(raw)
            checks = {c["name"]: c["passed"] for c in json.loads(raw)["checks"]}
            want = CHECK_NAMES[config["kind"]]
            if sorted(checks) != sorted(want) or not all(checks.values()):
                self.problems.append(f"config {i} checks {checks}")
                ok = False
        if ok and self.summaries is None:
            self.summaries = summaries
        elif ok and summaries != self.summaries:
            self.problems.append("summary.json differs between repetitions")
            ok = False
        return ok

    def robin_err(self, out: str) -> float:
        """|omega - log(4 / (b - a))| of the classical single-interval run."""
        classical = self.configs[-1]
        a, b = classical["system1"][0]["interval"]
        with open(os.path.join(out, str(len(self.configs) - 1), "summary.json")) as fh:
            omega = json.load(fh)["omega"]["0"]
        err = abs(omega - math.log(4.0 / (b - a)))
        if err > ROBIN_TOL:
            self.problems.append(f"equilibrium constant off by {err:.3e}")
        return err

    def verify_zeros(self) -> dict:
        if self.workload not in ("lattice_zeros", "ray_ratio"):
            return {}
        report = self.child("verify.py", [self.workload, self.config_paths[0]])
        if report is None:
            return {"ok": False}
        if report["bad"]:
            self.problems.extend(report["bad"][:5])
        if report["self_test_caught"] is not True:
            self.problems.append("the perturbed zero was not flagged")
        report["ok"] = not report["bad"] and report["self_test_caught"] is True
        return report

    def setup_samples(self, reps: list) -> list:
        """Per config, every construction time seen; fresh setup-only
        processes top each up to SETUP_SAMPLES."""
        samples = [[] for _ in self.configs]

        def add(rep):
            for i, durations in enumerate(rep["setup_s"]):
                samples[i].extend(durations)

        for rep in reps:
            add(rep)
        while min(map(len, samples)) < SETUP_SAMPLES and self.remaining() > 10:
            rep = self.child("worker.py", [self.tmp] + self.config_paths + ["--setup-only"])
            if rep is None:
                break
            add(rep)
        return samples


def repetitions(run: Run, seconds: float, trace: bool) -> tuple:
    """Back-to-back cold repetitions, as many as bring the measured time
    closest to ``seconds`` (at least one); with ``trace`` an untraced and a
    traced one alternate."""
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run.repetition(False)
        plain.append(rep)
        if not rep["ok"]:
            break
        if trace:
            rep = run.repetition(True)
            traced.append(rep)
            if not rep["ok"]:
                break
        took = time.perf_counter() - t0
        if time.perf_counter() - begin + took / 2 >= seconds or run.remaining() < 2 * took:
            break
    return plain, traced


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, reps: list) -> tuple:
    setups = run.setup_samples(reps)
    walls = [sum(r["wall_s"]) for r in reps]
    # Throughput pools the run: all work over all non-setup time.
    busy = sum(wall - sum(map(sum, r["setup_s"])) for wall, r in zip(walls, reps))
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(sum(statistics.median(s) for s in setups), "s"),
        "cpu_s": metric(statistics.median(sum(r["cpu_s"]) for r in reps), "s"),
        "work_items_per_s": metric(run.items * len(reps) / busy, "1/s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }, {"setup_samples": [len(s) for s in setups]}


def per_layer(plain: list, traced: list) -> dict:
    tables = []
    for rep in traced:
        table = tracing.layer_table(rep["spans"], rep["counters"], sum(rep["wall_s"]))
        table["equilibrium.robin_err"] = rep.get("robin_err", 0.0)
        table["trace.wall_s"] = sum(rep["wall_s"])
        tables.append(table)
    table = tracing.median_table(tables)
    table["trace.overhead_frac"] = (
        statistics.median(sum(r["wall_s"]) for r in traced)
        / statistics.median(sum(r["wall_s"]) for r in plain) - 1
    )
    return {name: metric(value, tracing.unit(name)) for name, value in table.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "nikmop")):
        print(f"error: no nikmop package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    scratch = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        run = Run(args.workload, args.seed, tmp)
        plain, traced = repetitions(run, args.seconds, bool(args.trace))
        good = [r for r in plain + traced if r["ok"]]
        attempted = run.items * (len(plain) + len(traced))
        failed = attempted - run.items * len(good)
        verified = run.verify_zeros()
        if verified.get("ok") is False:
            failed = attempted
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(run.env),
            "repetitions": len(plain), "traced_repetitions": len(traced),
            "wall_s_samples": [sum(r["wall_s"]) for r in plain if "wall_s" in r],
            "zero_verification": {k: v for k, v in verified.items() if k != "bad"},
            "problems": run.problems,
        }
        metrics = {}
        if len(good) == len(plain) + len(traced) and plain:
            if args.trace:
                metrics = per_layer(plain, traced)
            else:
                metrics, extra = end_to_end(run, plain)
                info.update(extra)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is still using it
    correct = failed == 0 and not run.problems and bool(metrics)
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
