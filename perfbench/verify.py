"""Re-derive zero sets with the public ``solve_mop``/``extract_Q`` and check
each zero, in a fresh process and outside every timed region.

    python3 perfbench/verify.py RESULT WORKLOAD CONFIG

A zero passes when it lies inside its hull and the form changes sign
between ``z - d`` and ``z + d``, with ``d`` a few multiples of
``refine_tolerance(bits)`` scaled like the refinement's stop test, so a
faster but sloppier refinement fails here.  The negative self-test moves
one verified zero far beyond ``d`` and requires the check to reject it.
"""
from __future__ import annotations

import json
import sys

from mpmath import mp

from nikmop import cli
from nikmop.asymptotics import period
from nikmop.mop import decreasing_indices, extract_Q, solve_mop
from nikmop.precision import refine_tolerance, working

MARGIN = 4
SELF_TEST_SHIFT = 1000


def indices_to_verify(workload, config, pair) -> list:
    if workload == "lattice_zeros":
        lattice = decreasing_indices(pair.m1, pair.m2, config.max_size)
        return [i for i in lattice if i.size == config.max_size]
    if workload == "ray_ratio":
        ray = cli.ray_for(config, pair)
        steps = config.ray["steps"]
        last = config.ray.get("shift_position", 0) + (steps - 1) * period(pair.m1, pair.m2)
        lo, hi, _ = ray.pair_at(last)
        return [lo, hi]
    return []


def offset(sol, z, multiple):
    """``multiple`` refinement tolerances at ``z``, scaled like the
    refinement's stop test."""
    return multiple * refine_tolerance(sol.precision_bits) * max(1, abs(z))


def brackets_zero(sol, j, z) -> bool:
    with working(sol.precision_bits):
        d = offset(sol, z, MARGIN)
        return sol.form(j, z - d) * sol.form(j, z + d) <= 0


def main(argv) -> int:
    result_path, workload, config_path = argv
    with open(config_path) as fh:
        config = cli.ExperimentConfig.from_dict(json.load(fh))
    pair = cli.build_pair(config)
    bad, zero_sets, zeros = [], 0, 0
    self_test = None
    for index in indices_to_verify(workload, config, pair):
        sol = solve_mop(pair, index)
        for j in range(-index.m2, index.m1 + 1):
            zs = extract_Q(sol, j)
            zero_sets += 1
            zeros += len(zs.zeros)
            where = f"{index.to_dict()} level {j}"
            if len(zs.zeros) != max(index.zero_count(j), 0):
                bad.append(f"{where}: {len(zs.zeros)} zeros, expected {zs.expected}")
            lo, hi = pair.hull(j)
            for a, b in zip(zs.zeros, zs.zeros[1:]):
                if not a < b:
                    bad.append(f"{where}: zeros not strictly increasing")
            for z in zs.zeros:
                if not (lo < z < hi and brackets_zero(sol, j, z)):
                    bad.append(f"{where}: no sign change around {mp.nstr(z, 20)}")
            if self_test is None and zs.zeros:
                z = zs.zeros[-1]
                with working(sol.precision_bits):
                    moved = z + offset(sol, z, SELF_TEST_SHIFT * MARGIN)
                self_test = not brackets_zero(sol, j, moved)
    with open(result_path, "w") as fh:
        json.dump({
            "zero_sets": zero_sets,
            "zeros": zeros,
            "bad": bad,
            "self_test_caught": self_test,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
