"""Config-driven experiment runner.

One JSON document describes the measures, the experiment kind, and the
check tolerances; the runner builds the systems, executes the kind's
check bundle, and writes a deterministic summary plus CSV/gnuplot data
files.  Exit status: 0 all checks passed, 1 a check failed, 2 bad
config, 3 numeric failure inside the pipeline.

Timestamps and solver pass counts live only in run_meta.json, so
summary.json is byte-identical across reruns of the same config and seed
and does not move when a solver takes a different number of passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from mpmath import mp

from . import __version__
from .asymptotics import (
    IndexRay,
    boundary_product_harness,
    epsilon_ratio_check,
    equal_ratio_ray,
    equal_ratio_vectors,
    kappa_ratio_harness,
    nth_root_harness,
    period,
    periodic_product_harness,
    ratio_harness,
    telescoping_check,
)
from .diagnostics import (
    InterlacingIndeterminate,
    check_interlacing,
    check_zero_counts,
    expected_epsilon_ratio,
    sign_configuration,
)
from .equilibrium import (
    EquilibriumError,
    build_interaction_matrix,
    cumulative_ratios,
    solve_equilibrium,
)
from .hermite_pade import (
    MatrixMarkov,
    biorthogonality_matrix,
    compute_D,
    far_field_slope,
    negative_form_via_remainders,
    remainder_integral,
    remainder_matrix_route,
    remainder_moments,
    remainder_via_negative_forms,
)
from .measures import (
    MeasureError,
    NikishinSystem,
    WeightSpec,
    build_gauss_rule,
    check_chain_hulls,
)
from .mop import (
    IndexPair,
    NikishinPair,
    NormalityViolation,
    compute_varying_data,
    decreasing_indices,
    extract_cached,
    solve_cached,
)
from .precision import MIN_PRECISION_BITS, working
from .reporting import config_hash, write_csv, write_gnuplot_dat, write_summary

KINDS = (
    "mop",
    "diagnostics",
    "equilibrium",
    "nth_root",
    "ratio",
    "hermite_pade",
    "biortho",
)

OUT_ENV = "NIKMOP_OUT"

DEFAULT_TOLERANCES = {
    "mop": {},
    "diagnostics": {},
    "equilibrium": {"residual": 1e-4, "restart_mass": 1e-3},
    "nth_root": {},
    "ratio": {
        "stabilization_factor": 0.1,
        "boundary_cov": 0.02,
        "telescoping": 1e-40,
    },
    "hermite_pade": {
        "route_agreement": 1e-20,
        "moment": 1e-18,
        "level0_identity": 1e-40,
        "triangular": 1e-40,
        "slope_slack": 0.01,
    },
    "biortho": {"defect": 1e-12},
}

#: Bound on the rank-one defect of the Markov matrix (hermite_pade kind).
RANK_ONE_BOUND = 1e-25


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_RAY_KEYS = {"start_size", "positions", "shift_position", "steps", "level"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ranges(data: dict, m1: int, m2: int) -> None:
    """Fields whose valid range follows from the chain lengths m1, m2."""
    shift = data.get("shift")
    if shift is not None and not (
        isinstance(shift, (list, tuple))
        and len(shift) == 2
        and all(_is_int(v) for v in shift)
        and 0 <= shift[0] <= m1
        and 0 <= shift[1] <= m2
    ):
        raise ConfigError(
            f"shift must be two integers in [0, {m1}] x [0, {m2}], got {shift!r}"
        )
    ray = data.get("ray", {})
    if not isinstance(ray, dict):
        ray = {}
    level = ray.get("level")
    if level is not None and not (_is_int(level) and -m2 <= level <= m1):
        raise ConfigError(
            f"ray.level must be an integer in [{-m2}, {m1}], got {level!r}"
        )
    start = ray.get("start_size")
    if start is not None and not (
        _is_int(start) and start > 0 and start % (m1 + 1) == 0
    ):
        raise ConfigError(
            f"ray.start_size must be a positive multiple of {m1 + 1}, got {start!r}"
        )
    # Trends and stabilization compare ray samples, so they need two.
    steps = ray.get("steps")
    if steps is not None and not (_is_int(steps) and steps >= 2):
        raise ConfigError(f"ray.steps must be an integer >= 2, got {steps!r}")
    shift_position = ray.get("shift_position")
    if shift_position is not None and not (
        _is_int(shift_position) and shift_position >= 0
    ):
        raise ConfigError(
            f"ray.shift_position must be an integer >= 0, got {shift_position!r}"
        )
    positions = ray.get("positions")
    if positions is not None and not (
        isinstance(positions, (list, tuple))
        and len(positions) >= 2
        and all(_is_int(r) and r >= 0 for r in positions)
    ):
        raise ConfigError(
            "ray.positions must be at least two integers >= 0, "
            f"got {positions!r}"
        )
    ratios = data.get("ratios", {})
    if ratios:
        if set(ratios) != {"p1", "p2"}:
            raise ConfigError("ratios needs both p1 and p2")
        for key, want in (("p1", m1 + 1), ("p2", m2 + 1)):
            vec = ratios[key]
            if not (
                isinstance(vec, (list, tuple))
                and len(vec) == want
                and all(_is_number(v) for v in vec)
            ):
                raise ConfigError(
                    f"ratios.{key} must be {want} numbers, one per generator"
                )
        try:
            cumulative_ratios(ratios["p1"], ratios["p2"])
        except ValueError as exc:
            raise ConfigError(f"ratios: {exc}") from exc


def _config_point(i: int, value) -> complex:
    """One ``points`` entry: a real number or a pair [re, im]."""
    if _is_number(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_number(v) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(
        f"points[{i}] must be a number or a pair [re, im], got {value!r}"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    system1: tuple
    system2: tuple
    precision_bits: int = 256
    quadrature_nodes: int = 128
    max_size: int = 6
    index: tuple | None = None
    ray: dict = field(default_factory=dict)
    shift: tuple | None = None
    points: tuple = ()
    ratios: dict = field(default_factory=dict)
    panels: int = 256
    n_max: int = 6
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output_dir: str | None = None
    hex_floats: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.system1 or not self.system2:
            raise ConfigError("system1 and system2 need at least a base spec")
        if self.system1[0].to_dict() != self.system2[0].to_dict():
            raise ConfigError("the two systems must share their base spec")
        for name, val in (
            ("precision_bits", self.precision_bits),
            ("quadrature_nodes", self.quadrature_nodes),
            ("max_size", self.max_size),
            ("panels", self.panels),
            ("n_max", self.n_max),
        ):
            if not _is_int(val) or val <= 0:
                raise ConfigError(f"{name} must be a positive integer")
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ConfigError(
                f"precision_bits must be at least {MIN_PRECISION_BITS}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        unknown = set(self.ray) - _RAY_KEYS
        if unknown:
            raise ConfigError(f"unknown keys: ray.{sorted(unknown)[0]}")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        allowed = {
            "kind", "system1", "system2", "precision_bits",
            "quadrature_nodes", "max_size", "index", "ray", "shift",
            "points", "ratios", "panels", "n_max", "seed", "tolerances",
            "output_dir", "hex_floats",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown keys: {sorted(unknown)[0]}")
        for req in ("kind", "system1", "system2"):
            if req not in data:
                raise ConfigError(f"missing required key: {req}")

        def specs(key):
            out = []
            for i, sd in enumerate(data[key]):
                try:
                    out.append(WeightSpec.from_dict(sd))
                except MeasureError as exc:
                    raise ConfigError(f"{key}[{i}]: {exc}") from exc
            try:
                check_chain_hulls([spec.hull for spec in out])
            except MeasureError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            return tuple(out)

        system1 = specs("system1")
        system2 = specs("system2")

        index = None
        if data.get("index") is not None:
            idx = data["index"]
            extra = set(idx) - {"n1", "n2"}
            if extra:
                raise ConfigError(f"unknown keys: index.{sorted(extra)[0]}")
            try:
                checked = IndexPair(tuple(idx["n1"]), tuple(idx["n2"]))
            except ValueError as exc:
                raise ConfigError(f"index: {exc}") from exc
            if (len(checked.n1), len(checked.n2)) != (
                len(data["system1"]), len(data["system2"])
            ):
                raise ConfigError(
                    "index: n1 and n2 need one entry per generator of "
                    f"system1 ({len(data['system1'])}) and system2 "
                    f"({len(data['system2'])})"
                )
            index = (checked.n1, checked.n2)
        ratios = data.get("ratios", {})
        extra = set(ratios) - {"p1", "p2"}
        if extra:
            raise ConfigError(f"unknown keys: ratios.{sorted(extra)[0]}")
        _check_ranges(data, len(system1) - 1, len(system2) - 1)
        return ExperimentConfig(
            kind=data["kind"],
            system1=system1,
            system2=system2,
            precision_bits=data.get("precision_bits", 256),
            quadrature_nodes=data.get("quadrature_nodes", 128),
            max_size=data.get("max_size", 6),
            index=index,
            ray=dict(data.get("ray", {})),
            shift=tuple(data["shift"]) if data.get("shift") is not None else None,
            points=tuple(
                _config_point(i, p) for i, p in enumerate(data.get("points", ()))
            ),
            ratios={k: tuple(v) for k, v in ratios.items()},
            panels=data.get("panels", 256),
            n_max=data.get("n_max", 6),
            seed=data.get("seed", 0),
            tolerances=dict(data.get("tolerances", {})),
            output_dir=data.get("output_dir"),
            hex_floats=bool(data.get("hex_floats", False)),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "system1": [s.to_dict() for s in self.system1],
            "system2": [s.to_dict() for s in self.system2],
            "precision_bits": self.precision_bits,
            "quadrature_nodes": self.quadrature_nodes,
            "max_size": self.max_size,
            "index": None if self.index is None else {
                "n1": list(self.index[0]), "n2": list(self.index[1]),
            },
            "ray": dict(self.ray),
            "shift": None if self.shift is None else list(self.shift),
            "points": [[p.real, p.imag] for p in self.points],
            "ratios": {k: list(v) for k, v in self.ratios.items()},
            "panels": self.panels,
            "n_max": self.n_max,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "output_dir": self.output_dir,
            "hex_floats": self.hex_floats,
        }

    def tolerance(self, name: str) -> float:
        if name in self.tolerances:
            return float(self.tolerances[name])
        return DEFAULT_TOLERANCES[self.kind][name]


def build_pair(config: ExperimentConfig) -> NikishinPair:
    base = build_gauss_rule(
        config.system1[0],
        nodes=config.quadrature_nodes,
        precision_bits=config.precision_bits,
    )

    def chain(specs):
        gens = [base]
        for spec in specs[1:]:
            gens.append(
                build_gauss_rule(
                    spec,
                    nodes=config.quadrature_nodes,
                    precision_bits=config.precision_bits,
                )
            )
        return NikishinSystem(generators=tuple(gens))

    return NikishinPair(s1=chain(config.system1), s2=chain(config.system2))


def default_points(pair: NikishinPair, seed: int, count: int = 5) -> tuple:
    """Deterministic test points clear of every support interval: one
    beyond each end of the hull chain, one on a vertical line, and
    generic complex points, jittered a few percent by the seed."""
    rng = random.Random(seed)
    hulls = [pair.hull(j) for j in range(-pair.m2, pair.m1 + 1)]
    lo = min(float(h[0]) for h in hulls)
    hi = max(float(h[1]) for h in hulls)
    span = hi - lo
    mid = (lo + hi) / 2.0

    def jit():
        return 1.0 + rng.uniform(-0.05, 0.05)

    pts = [
        complex(hi + 0.4 * span * jit(), 0.3 * span * jit()),
        complex(lo - 0.4 * span * jit(), 0.25 * span * jit()),
        complex(mid, 0.5 * span * jit()),
        complex(mid + 0.17 * span * jit(), 0.8 * span * jit()),
        complex(mid - 0.23 * span * jit(), 0.65 * span * jit()),
    ]
    return tuple(pts[:count])


def ray_for(config: ExperimentConfig, pair: NikishinPair) -> IndexRay:
    start = config.ray.get("start_size")
    return equal_ratio_ray(pair.m1, pair.m2, start)


def equilibrium_sets(pair: NikishinPair) -> dict:
    out = {}
    for j in range(-pair.m2, pair.m1 + 1):
        meas = pair.measure(j)
        a, b = meas.interval
        entry = {"interval": (float(a), float(b))}
        if meas.atoms:
            entry["atoms"] = tuple(float(loc) for loc, _ in meas.atoms)
        out[j] = entry
    return out


def solve_config_equilibrium(config: ExperimentConfig, pair: NikishinPair, init="uniform", seed=None):
    if config.ratios:
        p1, p2 = config.ratios["p1"], config.ratios["p2"]
    else:
        p1, p2 = equal_ratio_vectors(pair.m1, pair.m2)
    matrix = build_interaction_matrix(tuple(p1), tuple(p2))
    return solve_equilibrium(
        matrix,
        equilibrium_sets(pair),
        panels_per_set=config.panels,
        tol=config.tolerance("residual") if config.kind == "equilibrium" else 1e-4,
        init=init,
        seed=config.seed if seed is None else seed,
    )


def _check(name: str, passed: bool, **metrics) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(metrics)
    return entry


def _lattice_worker(payload) -> list:
    """Solve a chunk of the index lattice in a fresh process; rebuilds
    the systems from the serialized config so results are independent
    of scheduling."""
    cfg_dict, chunk = payload
    return _lattice_rows(build_pair(ExperimentConfig.from_dict(cfg_dict)), chunk)


def _lattice_rows(pair: NikishinPair, chunk) -> list:
    """One CSV row per index of ``chunk``: solved, full degree and the
    pivot ratio, or the normality failure."""
    rows = []
    for n1, n2 in chunk:
        index = IndexPair(tuple(n1), tuple(n2))
        try:
            sol = solve_cached(pair, index)
            full = all(
                len(sol.coeffs[j]) == index.n1[j]
                for j in range(index.m1 + 1)
            )
            rows.append(
                (list(index.n1), list(index.n2), True, full, sol.pivot_ratio)
            )
        except NormalityViolation as exc:
            rows.append((list(index.n1), list(index.n2), False, False, str(exc)))
    return rows


def run_mop(config: ExperimentConfig, pair: NikishinPair, threads: int) -> dict:
    lattice = decreasing_indices(pair.m1, pair.m2, config.max_size)
    items = [(list(i.n1), list(i.n2)) for i in lattice]
    if threads > 1 and len(items) > 4:
        chunks = [items[k::threads] for k in range(threads)]
        cfg_dict = config.to_dict()
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_lattice_worker, [(cfg_dict, c) for c in chunks]))
        rows = [r for part in parts for r in part]
        rows.sort(key=lambda r: (sum(r[0]), r[0], r[1]))
    else:
        rows = _lattice_rows(pair, items)
    solved = all(r[2] for r in rows)
    full_degree = all(r[3] for r in rows if r[2])
    return {
        "checks": [
            _check("normality", solved, indices=len(rows)),
            _check("full_degrees", solved and full_degree),
        ],
        "csv": {
            "lattice": (
                ("n1", "n2", "solved", "full_degree", "pivot_ratio"),
                [
                    (json.dumps(r[0]), json.dumps(r[1]), r[2], r[3], r[4])
                    for r in rows
                ],
            )
        },
    }


def run_diagnostics(config: ExperimentConfig, pair: NikishinPair, threads: int) -> dict:
    lattice = decreasing_indices(pair.m1, pair.m2, config.max_size)
    delta = sign_configuration(pair)
    zero_ok = True
    interlace_ok = True
    epsilon_ok = True
    rows = []
    varying = {}

    def vdata(index):
        if index not in varying:
            sol = solve_cached(pair, index)
            zsets = {
                j: extract_cached(sol, j)
                for j in range(-index.m2, index.m1 + 1)
            }
            report = check_zero_counts(sol, zsets)
            # Varying-measure constants need every form to be nonzero,
            # which fails when the top blocks of the first side are empty.
            vd = (
                compute_varying_data(sol, zsets)
                if index.n1[pair.m1] >= 1 else None
            )
            varying[index] = (sol, zsets, report, vd)
        return varying[index]

    for index in lattice:
        _, zsets, report, vd = vdata(index)
        zero_ok = zero_ok and report.passed
        rows.append(
            (json.dumps(list(index.n1)), json.dumps(list(index.n2)),
             "zero_counts", report.passed, "")
        )
        shifts = (
            [tuple(config.shift)] if config.shift is not None
            else [(l1, l2) for l1 in range(pair.m1 + 1) for l2 in range(pair.m2 + 1)]
        )
        for l1, l2 in shifts:
            shifted = index.shifted(l1, l2)
            if not (shifted.is_decreasing() and shifted.size <= config.max_size):
                continue
            _, zsets_s, _, vd_s = vdata(shifted)
            for j in range(-pair.m2, pair.m1 + 1):
                if index.n1[pair.m1] >= 2:
                    ok = check_interlacing(zsets[j].zeros, zsets_s[j].zeros)
                    interlace_ok = interlace_ok and ok
                    rows.append(
                        (json.dumps(list(index.n1)), json.dumps(list(index.n2)),
                         f"interlacing_j{j}_l{l1}{l2}", ok, "")
                    )
                if vd is None or vd_s is None:
                    continue
                got = vd_s.epsilon[j] * vd.epsilon[j]
                want = expected_epsilon_ratio(delta, l1, l2, j, pair.m1)
                epsilon_ok = epsilon_ok and got == want
                rows.append(
                    (json.dumps(list(index.n1)), json.dumps(list(index.n2)),
                     f"epsilon_j{j}_l{l1}{l2}", got == want, f"{got}/{want}")
                )
    return {
        "checks": [
            _check("zero_counts", zero_ok),
            _check("interlacing", interlace_ok),
            _check("epsilon_law", epsilon_ok),
        ],
        "csv": {
            "diagnostics": (("n1", "n2", "check", "passed", "detail"), rows)
        },
    }


def run_equilibrium(config: ExperimentConfig, pair: NikishinPair, threads: int) -> dict:
    sol = solve_config_equilibrium(config, pair, init="uniform")
    sol2 = solve_config_equilibrium(config, pair, init="random", seed=config.seed + 1)
    drift = 0.0
    for j, m in sol.masses.items():
        drift = max(drift, float(max(abs(m - sol2.masses[j]).max(), 0.0)))
    residual_tol = config.tolerance("residual")
    mass_tol = config.tolerance("restart_mass")
    rows = []
    for j, grid in sorted(sol.grids.items()):
        mids = grid.mids
        for c, m in zip(mids, sol.masses[j]):
            rows.append((j, float(c), float(m)))
    return {
        "checks": [
            _check("residual", sol.residual <= residual_tol,
                   value=sol.residual, threshold=residual_tol),
            _check("restart_agreement", drift <= mass_tol,
                   value=drift, threshold=mass_tol),
        ],
        "csv": {"masses": (("level", "cell_center", "mass"), rows)},
        "summary_extra": {
            "omega": {str(j): sol.omega[j] for j in sol.omega},
            "residual": sol.residual,
        },
        "meta_extra": {
            "iterations": sol.iterations,
            "restart_iterations": sol2.iterations,
        },
    }


def run_nth_root(config: ExperimentConfig, pair: NikishinPair, threads: int) -> dict:
    ray = ray_for(config, pair)
    eq = solve_config_equilibrium(config, pair)
    level = config.ray.get("level", 0)
    m = period(pair.m1, pair.m2)
    positions = config.ray.get("positions")
    if positions is None:
        steps = config.ray.get("steps", 4)
        positions = [m * s for s in range(0, 2 * steps, 2)]
    points = config.points or default_points(pair, config.seed)
    record = nth_root_harness(pair, ray, level, points, eq, positions)
    return {
        "checks": [
            _check("nth_root_trend", record.trend_ok(),
                   sizes=list(record.sample_sizes)),
        ],
        "records": {"nth_root": record},
    }


def run_ratio(config: ExperimentConfig, pair: NikishinPair, threads: int) -> dict:
    ray = ray_for(config, pair)
    m = period(pair.m1, pair.m2)
    steps = config.ray.get("steps", 6)
    shift_position = config.ray.get("shift_position", 0)
    level = config.ray.get("level", 0)
    points = config.points or default_points(pair, config.seed)

    record = ratio_harness(pair, ray, shift_position, level, points, steps)
    stab = record.stabilization()
    stab_factor = config.tolerance("stabilization_factor")
    stab_ok = stab[-1] < stab_factor * stab[0] if stab[0] > 0 else True

    bp = boundary_product_harness(pair, ray, shift_position, level, steps)
    cov_tol = config.tolerance("boundary_cov")

    eps = epsilon_ratio_check(
        pair, ray, range(shift_position, shift_position + m), level
    )
    eps_ok = all(e["match"] for e in eps)

    tel = telescoping_check(pair, ray, shift_position, level, points[:2])
    tel_tol = config.tolerance("telescoping")
    tel_ok = float(tel["worst_rel_deviation"]) <= tel_tol

    kap = kappa_ratio_harness(pair, ray, shift_position, level, steps)
    per = periodic_product_harness(pair, ray, shift_position, level, points[:2], max(steps - 1, 2))

    return {
        "checks": [
            _check("stabilization", stab_ok,
                   first=stab[0], last=stab[-1], factor=stab_factor),
            _check("boundary_product_cov", bp["cov"] < cov_tol,
                   value=bp["cov"], threshold=cov_tol, mean=bp["mean"]),
            _check("epsilon_law", eps_ok),
            _check("telescoping", tel_ok,
                   value=float(tel["worst_rel_deviation"]), threshold=tel_tol),
        ],
        "records": {"ratio": record, "kappa": kap, "full_period": per},
        "summary_extra": {
            "boundary_product": {"mean": bp["mean"], "cov": bp["cov"]},
            "kappa_last": kap.values[0][-1],
        },
    }


def run_hermite_pade(config: ExperimentConfig, pair: NikishinPair, threads: int) -> dict:
    if config.index is not None:
        index = IndexPair(*config.index)
    else:
        from .hermite_pade import staircase_sequence

        n = config.max_size
        index = IndexPair(
            staircase_sequence(pair.m1, n)[n],
            staircase_sequence(pair.m2, n - 1)[n - 1],
        )
    sol = solve_cached(pair, index)
    points = config.points or default_points(pair, config.seed, count=3)
    d_polys = compute_D(sol)
    route_tol = config.tolerance("route_agreement")
    moment_tol = config.tolerance("moment")
    ident_tol = config.tolerance("level0_identity")
    tri_tol = config.tolerance("triangular")
    slope_slack = config.tolerance("slope_slack")

    worst_route = 0.0
    worst_moment = 0.0
    worst_ident = 0.0
    worst_tri = 0.0
    slopes_ok = True
    rows = []
    with working(sol.precision_bits):
        for j in range(pair.m2 + 1):
            for z in points:
                zv = mp.mpmathify(z)
                via_matrix = remainder_matrix_route(sol, j, zv, d_polys=d_polys)
                direct = remainder_integral(sol, j, zv)
                rel = float(abs(via_matrix - direct) / abs(direct))
                worst_route = max(worst_route, rel)
                tri1 = negative_form_via_remainders(sol, j, zv)
                tri2 = remainder_via_negative_forms(sol, j, zv)
                neg = sol.form(-j - 1, zv)
                worst_tri = max(
                    worst_tri,
                    float(abs(tri1 - neg) / abs(neg)),
                    float(abs(tri2 - direct) / abs(direct)),
                )
                rows.append((j, repr(z), rel))
            moments = remainder_moments(sol, j)
            if moments:
                worst_moment = max(worst_moment, float(max(moments)))
            slope = far_field_slope(sol, j)
            slopes_ok = slopes_ok and slope <= -(index.n2[j] + 1) + slope_slack
        for z in points:
            zv = mp.mpmathify(z)
            r0 = remainder_integral(sol, 0, zv)
            a_neg = sol.form(-1, zv)
            worst_ident = max(worst_ident, float(abs(r0 - a_neg) / abs(a_neg)))
    defect = MatrixMarkov(pair).rank_one_defect()
    return {
        "checks": [
            _check("route_agreement", worst_route <= route_tol,
                   value=worst_route, threshold=route_tol),
            _check("order_conditions", worst_moment <= moment_tol,
                   value=worst_moment, threshold=moment_tol),
            _check("level0_identity", worst_ident <= ident_tol,
                   value=worst_ident, threshold=ident_tol),
            _check("triangular_relations", worst_tri <= tri_tol,
                   value=worst_tri, threshold=tri_tol),
            _check("far_field_slopes", slopes_ok, slack=slope_slack),
            _check("rank_one", defect <= RANK_ONE_BOUND,
                   value=defect, threshold=RANK_ONE_BOUND),
        ],
        "csv": {
            "remainder_routes": (("row", "point", "rel_difference"), rows)
        },
    }


def run_biortho(config: ExperimentConfig, pair: NikishinPair, threads: int) -> dict:
    result = biorthogonality_matrix(pair, config.n_max)
    tol = config.tolerance("defect")
    rows = []
    for i, row in enumerate(result["gram"]):
        for k, v in enumerate(row):
            rows.append((i + 1, k + 1, float(v)))
    return {
        "checks": [
            _check("biorthogonality", result["defect"] <= tol,
                   value=result["defect"], threshold=tol),
        ],
        "csv": {"gram": (("row", "col", "value"), rows)},
        "summary_extra": {"diag_min": float(result["diag_min"])},
    }


RUNNERS = {
    "mop": run_mop,
    "diagnostics": run_diagnostics,
    "equilibrium": run_equilibrium,
    "nth_root": run_nth_root,
    "ratio": run_ratio,
    "hermite_pade": run_hermite_pade,
    "biortho": run_biortho,
}

CHECK_NAMES = {
    "mop": ("normality", "full_degrees"),
    "diagnostics": ("zero_counts", "interlacing", "epsilon_law"),
    "equilibrium": ("residual", "restart_agreement"),
    "nth_root": ("nth_root_trend",),
    "ratio": (
        "stabilization", "boundary_product_cov", "epsilon_law", "telescoping",
    ),
    "hermite_pade": (
        "route_agreement", "order_conditions", "level0_identity",
        "triangular_relations", "far_field_slopes", "rank_one",
    ),
    "biortho": ("biorthogonality",),
}


def _write_outputs(out_dir: str, config: ExperimentConfig, result: dict, elapsed: float) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    metrics_dir = os.path.join(out_dir, "metrics")
    plots_dir = os.path.join(out_dir, "plots")
    summary = {
        "config_hash": config_hash(config.to_dict()),
        "kind": config.kind,
        "seed": config.seed,
        "checks": result["checks"],
        "all_passed": all(c["passed"] for c in result["checks"]),
    }
    summary.update(result.get("summary_extra", {}))
    for name, (header, rows) in result.get("csv", {}).items():
        os.makedirs(metrics_dir, exist_ok=True)
        write_csv(os.path.join(metrics_dir, f"{name}.csv"), rows, header)
    for name, record in result.get("records", {}).items():
        os.makedirs(metrics_dir, exist_ok=True)
        write_csv(os.path.join(metrics_dir, f"{name}.csv"), record.to_rows())
        os.makedirs(plots_dir, exist_ok=True)
        for i, point in enumerate(record.points):
            cols = {"sample_size": record.sample_sizes}
            if record.errors is not None:
                cols["abs_error"] = record.errors[i]
            else:
                cols["value_re"] = [complex(v).real for v in record.values[i]]
                cols["value_im"] = [complex(v).imag for v in record.values[i]]
            write_gnuplot_dat(
                os.path.join(plots_dir, f"{name}_p{i}.dat"),
                cols,
                comment=f"{record.label} at point {point}",
            )
    if config.hex_floats:
        hex_rows = []
        for c in result["checks"]:
            for key, val in c.items():
                if isinstance(val, float):
                    hex_rows.append((c["name"], key, val.hex()))
        if hex_rows:
            os.makedirs(metrics_dir, exist_ok=True)
            write_csv(
                os.path.join(metrics_dir, "check_values_hex.csv"),
                hex_rows,
                ("check", "metric", "hex"),
            )
    write_summary(os.path.join(out_dir, "summary.json"), summary)
    meta = {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "elapsed_seconds": elapsed,
        "version": __version__,
        **result.get("meta_extra", {}),
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def run(config: ExperimentConfig, out_dir: str, threads: int = 1) -> int:
    start = time.monotonic()
    pair = build_pair(config)
    result = RUNNERS[config.kind](config, pair, threads)
    summary = _write_outputs(out_dir, config, result, time.monotonic() - start)
    for c in summary["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {config.kind}:{c['name']}")
    return 0 if summary["all_passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nikmop",
        description="Experiment runner for mixed-type multiple "
        "orthogonality on chained-measure systems",
    )
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help=f"output directory (default ${OUT_ENV} or ./nikmop_out)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--precision", type=int, help="override precision_bits")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)

    if args.list_checks:
        for kind in KINDS:
            print(f"{kind}: {', '.join(CHECK_NAMES[kind])}")
        return 0
    if not args.config:
        parser.print_usage(sys.stderr)
        print("error: --config is required", file=sys.stderr)
        return 2

    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"config error: invalid JSON at byte offset {exc.pos}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    try:
        config = ExperimentConfig.from_dict(data)
        if args.precision:
            merged = config.to_dict()
            merged["precision_bits"] = args.precision
            config = ExperimentConfig.from_dict(merged)
    except (ConfigError, MeasureError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or config.output_dir or os.environ.get(OUT_ENV) or "nikmop_out"
    try:
        return run(config, out_dir, threads=max(args.threads, 1))
    except (NormalityViolation, EquilibriumError, MeasureError,
            InterlacingIndeterminate, ZeroDivisionError,
            ArithmeticError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        try:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "error.json"), "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError:
            pass
        print(f"numeric failure: {record['error']}: {record['message']}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
