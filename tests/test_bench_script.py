"""The summary of ``scripts/bench.py`` on hand-made run records."""

import importlib.util
import pathlib

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

