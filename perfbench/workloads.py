"""Seeded CLI configs for the benchmark workloads.

The seed is the only input: it jitters every non-base interval endpoint by
a few percent (hulls stay disjoint) and becomes the config ``seed``
(except on ``vector_equilibrium``, see there).  The
program under test sees only the generated JSON.  Each workload is sized to
put most of its work into a different module of ``src/nikmop``.
"""
from __future__ import annotations

import random

JITTER = 0.02

BASE = {"family": "chebyshev2", "interval": [-1, 1]}
ATOM_BASE = {"family": "chebyshev2", "interval": [-1, 1], "mass_points": [[1.5, 0.5]]}
UP1 = {"family": "chebyshev1", "interval": [2, 3]}
UP2 = {"family": "jacobi", "interval": [5, 6], "alpha": 0.5, "beta": -0.5}
DOWN1 = {"family": "legendre", "interval": [-3, -2]}


def _jitter(spec: dict, rng: random.Random) -> dict:
    a, b = spec["interval"]
    return dict(spec, interval=[
        round(a * (1 + rng.uniform(-JITTER, JITTER)), 6),
        round(b * (1 + rng.uniform(-JITTER, JITTER)), 6),
    ])


def _systems(base: dict, up: list, down: list, rng: random.Random) -> dict:
    return {
        "system1": [base] + [_jitter(s, rng) for s in up],
        "system2": [base] + [_jitter(s, rng) for s in down],
    }


def lattice_zeros(rng, seed):
    return [{
        "kind": "diagnostics", "precision_bits": 256, "quadrature_nodes": 64,
        "max_size": 5, "seed": seed, **_systems(ATOM_BASE, [UP1], [DOWN1], rng),
    }]


def ray_ratio(rng, seed):
    # 32 nodes keep one cold repetition to a few seconds, three times fewer
    # than 96 nodes take, so a run holds several repetitions and reports
    # their median; the deepest index on the ray has size 15.
    return [{
        "kind": "ratio", "precision_bits": 512, "quadrature_nodes": 32,
        "ray": {"steps": 7}, "seed": seed, **_systems(BASE, [UP1], [DOWN1], rng),
    }]


def solve_lattice(rng, seed):
    return [{
        "kind": "mop", "precision_bits": 256, "quadrature_nodes": 64,
        "max_size": 14, "seed": seed, **_systems(BASE, [UP1, UP2], [DOWN1], rng),
    }]


def vector_equilibrium(rng, seed):
    # The Gauss rules are built but never used by the equilibrium kind, so
    # they are kept small; the second config is the classical single
    # interval whose constant has the closed form log(4 / (b - a)).  The
    # config seed stays at its default: it picks the random restart, whose
    # cost varies fourfold with it (0.6-2.9 s at 256 panels on a 2-core
    # x86 VM), which would make runs on different benchmark seeds
    # incomparable.
    common = {"kind": "equilibrium", "precision_bits": 256,
              "quadrature_nodes": 16, "panels": 320}
    return [
        {**common, **_systems(BASE, [UP1], [DOWN1], rng)},
        {**common, "system1": [BASE], "system2": [BASE]},
    ]


WORKLOADS = {
    "lattice_zeros": lattice_zeros,
    "ray_ratio": ray_ratio,
    "solve_lattice": solve_lattice,
    "vector_equilibrium": vector_equilibrium,
}


def configs(workload: str, seed: int) -> list:
    """The CLI configs one repetition of ``workload`` runs, in order."""
    return WORKLOADS[workload](random.Random(seed), seed)
