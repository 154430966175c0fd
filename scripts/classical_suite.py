#!/usr/bin/env python3
"""Classical single-measure experiments with closed-form targets.

With one semicircle weight on [-1, 1] everything is known exactly:
the monic polynomials are second-kind Chebyshev, the one-step ratio at
z converges to the exterior conformal factor, the orthonormalizing
constant doubles each step, and the equilibrium constant is log 2.
This script measures all four and prints how far the computed values
sit from the targets at increasing degree.

    python3 scripts/classical_suite.py --depth 40 --bits 512
    python3 scripts/classical_suite.py --depth 60 --out classical.dat
"""

import argparse
import math

from mpmath import mp

from nikmop.asymptotics import classical_ratio_target, equal_ratio_ray, kappa_ratio_harness
from nikmop.cli import ExperimentConfig, build_pair
from nikmop.equilibrium import build_interaction_matrix, solve_equilibrium
from nikmop.mop import IndexPair, solve_cached
from nikmop.precision import working
from nikmop.reporting import write_gnuplot_dat

SEMICIRCLE = {"family": "chebyshev2", "interval": [-1, 1]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=40,
                        help="largest polynomial degree to probe")
    parser.add_argument("--bits", type=int, default=512)
    parser.add_argument("--nodes", type=int, default=96)
    parser.add_argument("--panels", type=int, default=512)
    parser.add_argument("--point", type=float, default=2.0,
                        help="evaluation point outside [-1, 1]")
    parser.add_argument("--out", help="optional gnuplot data file")
    args = parser.parse_args()

    pair = build_pair(ExperimentConfig.from_dict({
        "kind": "mop", "system1": [SEMICIRCLE], "system2": [SEMICIRCLE],
        "precision_bits": args.bits, "quadrature_nodes": args.nodes,
    }))
    degrees = sorted({5, 10, 20, args.depth})

    with working(args.bits):
        target = classical_ratio_target(args.point)
        print(f"ratio target at {args.point}: {mp.nstr(target, 12)}")
        print(f"{'n':>4}  {'ratio error':>12}  {'root error':>12}")
        rows = {"n": [], "ratio_err": [], "root_err": []}
        for n in degrees:
            hi = solve_cached(pair, IndexPair((n + 1,), (n,)))
            lo = solve_cached(pair, IndexPair((n,), (n - 1,)))
            zv = mp.mpf(args.point)
            ratio_err = abs(hi.form(0, zv) / lo.form(0, zv) - target)
            root_err = abs(abs(lo.form(0, zv)) ** (mp.mpf(1) / n) - target)
            print(f"{n:>4}  {mp.nstr(ratio_err, 4):>12}  "
                  f"{mp.nstr(root_err, 4):>12}")
            rows["n"].append(n)
            rows["ratio_err"].append(float(ratio_err))
            rows["root_err"].append(float(root_err))

    kap = kappa_ratio_harness(pair, equal_ratio_ray(0, 0), 0, 0, steps=6)
    print(f"kappa one-step ratios: {[round(v, 12) for v in kap.values[0]]}")

    eq = solve_equilibrium(
        build_interaction_matrix((1.0,), (1.0,)),
        {0: {"interval": (-1.0, 1.0)}},
        panels_per_set=args.panels,
        seed=0,
    )
    print(f"equilibrium constant: {eq.omega[0]:.6f} "
          f"(log 2 = {math.log(2):.6f}, residual {eq.residual:.2e})")

    if args.out:
        write_gnuplot_dat(args.out, rows, comment="classical suite errors")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
