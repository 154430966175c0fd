"""The summary of ``scripts/bench.py`` on hand-made run records, and the
entry points ``perfbench/tracing.py`` rebinds."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BETTER = {"wall_s": "lower"}


def run(side, seed, wall=None, workload="w"):
    """A run record; ``wall=None`` is a run that crashed before its result."""
    record = {"side": side, "seed": seed, "workload": workload,
              "returncode": 1, "info": None, "result": None}
    if wall is not None:
        record["returncode"] = 0
        record["result"] = {"correct": True, "attempted": 1, "failed": 0,
                            "metrics": {"wall_s": {"value": wall}}}
    return record


def test_summary_of_clean_runs():
    runs = [run(s, seed, wall) for seed in (1, 2, 3)
            for s, wall in (("base", 2.0 + seed), ("change", 1.0 + seed))]
    table = bench.summarize(runs, BETTER)["w"]
    assert table["pairs"] == 3
    assert table["failed_runs"] == {"base": 0, "change": 0}
    assert table["all_correct"]
    assert table["wall_s"]["base_median"] == 4.0
    assert table["wall_s"]["change_median"] == 3.0
    assert table["wall_s"]["change_better_pairs"] == 3


def test_a_crashed_run_is_counted_and_fails_the_workload():
    runs = [run("base", 1, 2.0), run("change", 1, 1.0),
            run("base", 2, 2.0), run("change", 2)]
    table = bench.summarize(runs, BETTER)["w"]
    assert table["pairs"] == 1
    assert table["failed_runs"] == {"base": 0, "change": 1}
    assert not table["all_correct"]


def test_a_wrong_result_is_a_failed_run():
    bad = run("change", 1, 1.0)
    bad["returncode"] = 1
    bad["result"].update(correct=False, failed=1)
    table = bench.summarize([run("base", 1, 2.0), bad], BETTER)["w"]
    assert table["failed_runs"] == {"base": 0, "change": 1}
    assert not table["all_correct"]


def test_every_run_of_one_side_crashed():
    runs = [run("base", seed, 2.0) for seed in (1, 2)]
    runs += [run("change", seed) for seed in (1, 2)]
    table = bench.summarize(runs, BETTER)["w"]
    assert table["pairs"] == 0
    assert table["failed_runs"] == {"base": 0, "change": 2}
    assert not table["all_correct"]
    assert "wall_s" not in table


# ----- the tracer's view of the pipeline --------------------------------

TRACED_SPANS = {
    "cli.build_pair",
    "measures.build_gauss_rule",
    "measures.density",
    "mop.assemble_moment_system",
    "mop.solve_mop",
    "mop.extract_Q",
    "mop.form",
    "mop.compute_varying_data",
    "diagnostics.check_zero_counts",
    "reporting.write",
}


def test_traced_worker_reaches_every_layer(tmp_path):
    """``perfbench/worker.py --trace`` rebinds named entry points of the
    package; each must still exist and still be reached by a run."""
    base = {"family": "chebyshev2", "interval": [-1, 1]}
    config = {
        "kind": "diagnostics", "precision_bits": 64, "quadrature_nodes": 8,
        "max_size": 2,
        "system1": [base, {"family": "chebyshev1", "interval": [2, 3]}],
        "system2": [base, {"family": "legendre", "interval": [-3, -2]}],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result_path = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         str(result_path), str(tmp_path / "out"), str(config_path), "--trace"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["codes"] == [0]
    assert TRACED_SPANS <= {span[0] for span in result["spans"]}
    for name in ("solve_cached", "extract_cached"):
        assert f"mop.{name}.hit_ratio" in result["counters"]
