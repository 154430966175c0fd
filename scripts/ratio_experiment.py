#!/usr/bin/env python3
"""Ratio asymptotics along the equal-ratio staircase of the standard
two-chain layout, at adjustable depth.

Tracks the one-step zero-polynomial ratios at off-support points, the
orthonormalizing-constant ratios, the boundary product across the
central interval, and the telescoping identity.  Results land as CSV
and gnuplot data under --out; a short summary goes to stdout.

At 512 bits the conditioning budget runs out a little past |n1| = 50,
so --steps beyond ~24 needs more precision.
"""

import argparse
import os

from nikmop.asymptotics import (
    boundary_product_harness,
    epsilon_ratio_check,
    equal_ratio_ray,
    kappa_ratio_harness,
    ratio_harness,
    telescoping_check,
)
from nikmop.cli import ExperimentConfig, build_pair, default_points
from nikmop.reporting import write_csv, write_gnuplot_dat

BASE = {"family": "chebyshev2", "interval": [-1, 1]}
UP = {"family": "chebyshev1", "interval": [2, 3]}
DOWN = {"family": "legendre", "interval": [-3, -2]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=12)
    parser.add_argument("--bits", type=int, default=512)
    parser.add_argument("--nodes", type=int, default=96)
    parser.add_argument("--level", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="ratio_out")
    args = parser.parse_args()

    pair = build_pair(ExperimentConfig.from_dict({
        "kind": "ratio", "system1": [BASE, UP], "system2": [BASE, DOWN],
        "precision_bits": args.bits, "quadrature_nodes": args.nodes,
    }))
    ray = equal_ratio_ray(1, 1)
    points = default_points(pair, args.seed)
    os.makedirs(args.out, exist_ok=True)

    record = ratio_harness(
        pair, ray, 0, args.level, points, steps=args.steps
    )
    stab = record.stabilization()
    print(f"ratio stabilization: {stab[0]:.3e} -> {stab[-1]:.3e} "
          f"over sizes {record.sample_sizes[0]}..{record.sample_sizes[-1]}")
    write_csv(os.path.join(args.out, "ratio.csv"), record.to_rows())
    write_gnuplot_dat(
        os.path.join(args.out, "stabilization.dat"),
        {"sample_size": record.sample_sizes[1:], "movement": stab},
        comment=f"successive movement, level {args.level}",
    )

    bp = boundary_product_harness(
        pair, ray, 0, args.level, steps=args.steps
    )
    print(f"boundary product: mean {bp['mean']:.6f}, cov {bp['cov']:.4f}")
    write_gnuplot_dat(
        os.path.join(args.out, "boundary_product.dat"),
        {"x": bp["grid"], "value": bp["values"]},
        comment="interior grid of the central interval",
    )

    kap = kappa_ratio_harness(pair, ray, 0, args.level, steps=args.steps)
    print(f"kappa ratio last: {kap.values[0][-1]:.9f} "
          f"(inverse boundary-product square root "
          f"{bp['mean'] ** -0.5:.9f})")
    write_csv(os.path.join(args.out, "kappa.csv"), kap.to_rows())

    eps = epsilon_ratio_check(pair, ray, range(4), args.level)
    print("sign law: "
          + ("all match" if all(e["match"] for e in eps) else "MISMATCH"))

    tel = telescoping_check(pair, ray, 0, args.level, points[:2])
    print(f"telescoping deviation: {float(tel['worst_rel_deviation']):.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
