"""Config-driven experiment runner.

One JSON document describes the measures and the experiment kind; the
kind's runner builds what it reads (the Gauss-rule pair, or for the
equilibrium kind nothing beyond the specs), executes its check bundle
against the fixed thresholds below, and writes a deterministic summary
plus CSV/gnuplot data files.  Exit status: 0 all checks passed, 1 a check
failed, 2 bad config, 3 numeric failure inside the pipeline.

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
from dataclasses import MISSING, dataclass, field, fields

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
    staircase_component,
    telescoping_check,
    varying_cached,
)
from .diagnostics import (
    InterlacingIndeterminate,
    check_interlacing,
    check_zero_counts,
    expected_epsilon_ratio,
    sign_configuration,
    zero_separation,
)
from .equilibrium import (
    EquilibriumError,
    build_interaction_matrix,
    cumulative_ratios,
    # Called through this module: perfbench/tracing.py rebinds it here.
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
    # Not called here: perfbench/tracing.py rebinds it through this module.
    compute_varying_data,  # noqa: F401
    decreasing_indices,
    extract_cached,
    solve_cached,
)
from .precision import MIN_PRECISION_BITS, working
from .reporting import config_hash, write_csv, write_gnuplot_dat, write_json

# Acceptance thresholds of the checks.  They are fixed here, not read
# from the config, so a verdict speaks about the paper's claims and not
# about the settings of one run.  The equilibrium residual has no check
# here: the solve raises EquilibriumError (exit 3) above
# ``equilibrium.RESIDUAL_BOUND``, so a returned solution always meets it.

#: Largest mass drift between the uniform and the random restart.
RESTART_MASS_BOUND = 1e-3
#: The last successive-sample movement must fall below this share of
#: the first (ratio kind).
STABILIZATION_FACTOR = 0.1
#: Bound on the coefficient of variation of the boundary product.
BOUNDARY_COV_BOUND = 0.02
#: Bound on the telescoping defect of the ratio products.
TELESCOPING_BOUND = 1e-40
#: Bounds on the relative defects of the Hermite-Pade identities.
ROUTE_AGREEMENT_BOUND = 1e-20
MOMENT_BOUND = 1e-18
LEVEL0_IDENTITY_BOUND = 1e-40
TRIANGULAR_BOUND = 1e-40
#: Slack on the far-field decay exponent of each remainder.
SLOPE_SLACK = 0.01
#: Bound on the rank-one defect of the Markov matrix (hermite_pade kind).
RANK_ONE_BOUND = 1e-25
#: Bound on the off-diagonal defect of the biorthogonality Gram matrix.
BIORTHO_DEFECT_BOUND = 1e-12


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _default(f):
    """The default value of a dataclass field."""
    return f.default_factory() if f.default_factory is not MISSING else f.default


def _config_point(i: int, value) -> complex:
    """One ``points`` entry: a finite real number or a pair [re, im]."""
    if _is_finite(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_finite(v) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(
        f"points[{i}] must be a number or a pair [re, im], all finite, "
        f"got {value!r}"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  The fields are the config's keys and their
    defaults; ``__post_init__`` holds every check of their values and
    rejects a key that ``READS`` does not list for the kind."""

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
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.system1 or not self.system2:
            raise ConfigError("system1 and system2 need at least a base spec")
        if self.system1[0].to_dict() != self.system2[0].to_dict():
            raise ConfigError("the two systems must share their base spec")
        m1, m2 = len(self.system1) - 1, len(self.system2) - 1
        for name in ("precision_bits", "quadrature_nodes", "max_size", "panels"):
            val = getattr(self, name)
            if not _is_int(val) or val <= 0:
                raise ConfigError(f"{name} must be a positive integer")
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ConfigError(
                f"precision_bits must be at least {MIN_PRECISION_BITS}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        min_steps = 3 if self.kind == "ratio" else 2
        ray_checks = {
            "level": (lambda v: _is_int(v) and -m2 <= v <= m1,
                      f"an integer in [{-m2}, {m1}]"),
            "start_size": (lambda v: _is_int(v) and v > 0 and v % (m1 + 1) == 0,
                           f"a positive multiple of {m1 + 1}"),
            # A trend compares two ray samples; stabilization compares two
            # successive movements, so the ratio kind needs three samples.
            "steps": (lambda v: _is_int(v) and v >= min_steps,
                      f"an integer >= {min_steps}"),
            "shift_position": (lambda v: _is_int(v) and v >= 0,
                               "an integer >= 0"),
        }
        for name, allowed in (
            ("ray", set(ray_checks)),
            ("ratios", {"p1", "p2"}),
        ):
            value = getattr(self, name)
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be an object")
            unknown = set(value) - allowed
            if unknown:
                raise ConfigError(f"unknown keys: {name}.{sorted(unknown)[0]}")
        for key, (valid, want) in ray_checks.items():
            if key in self.ray and not valid(self.ray[key]):
                raise ConfigError(
                    f"ray.{key} must be {want}, got {self.ray[key]!r}"
                )
        if self.index is not None:
            n1, n2 = self.index
            if not all(
                isinstance(n, (list, tuple)) and all(_is_int(v) for v in n)
                for n in (n1, n2)
            ):
                raise ConfigError(
                    f"index: n1 and n2 must be lists of integers, got {n1!r} "
                    f"and {n2!r}"
                )
            try:
                index = IndexPair(tuple(n1), tuple(n2))
            except ValueError as exc:
                raise ConfigError(f"index: {exc}") from exc
            if (index.m1, index.m2) != (m1, m2):
                raise ConfigError(
                    "index: n1 and n2 need one entry per generator of "
                    f"system1 ({m1 + 1}) and system2 ({m2 + 1})"
                )
            object.__setattr__(self, "index", (index.n1, index.n2))
        shift = self.shift
        if shift is not None:
            if not (
                isinstance(shift, (list, tuple))
                and len(shift) == 2
                and all(_is_int(v) for v in shift)
                and 0 <= shift[0] <= m1
                and 0 <= shift[1] <= m2
            ):
                raise ConfigError(
                    f"shift must be two integers in [0, {m1}] x [0, {m2}], "
                    f"got {shift!r}"
                )
            object.__setattr__(self, "shift", tuple(shift))
        if self.ratios:
            if set(self.ratios) != {"p1", "p2"}:
                raise ConfigError("ratios needs both p1 and p2")
            for key, want in (("p1", m1 + 1), ("p2", m2 + 1)):
                vec = self.ratios[key]
                if not (
                    isinstance(vec, (list, tuple))
                    and len(vec) == want
                    and all(_is_finite(v) for v in vec)
                ):
                    raise ConfigError(
                        f"ratios.{key} must be {want} numbers, one per "
                        "generator, all finite"
                    )
            try:
                cumulative_ratios(self.ratios["p1"], self.ratios["p2"])
            except ValueError as exc:
                raise ConfigError(f"ratios: {exc}") from exc
            object.__setattr__(
                self, "ratios", {k: tuple(v) for k, v in self.ratios.items()}
            )
        if self.kind == "nth_root":
            # The nth-root limit at level j is built from the potentials of
            # levels j and j + 1, so it does not hold on their hulls.
            level = self.ray.get("level", 0)
            for j in range(level, min(level + 1, m1) + 1):
                lo, hi = self.spec(j).hull
                for i, p in enumerate(self.points):
                    if p.imag == 0 and lo <= p.real <= hi:
                        raise ConfigError(
                            f"points[{i}] = {p.real!r} lies on the hull "
                            f"[{float(lo)}, {float(hi)}] of level {j}, where "
                            f"the nth_root limit of level {level} does not hold"
                        )
        # Last, once every value is known to be valid: a key the kind does
        # not read would change nothing but config_hash.
        given = [
            f.name for f in fields(self)
            if f.name not in COMMON_KEYS + ("ray",)
            and getattr(self, f.name) != _default(f)
        ] + [f"ray.{key}" for key in sorted(self.ray)]
        for key in given:
            if key not in READS[self.kind]:
                raise ConfigError(
                    f"the {self.kind} kind does not read {key}; beside the "
                    f"common keys it reads {', '.join(READS[self.kind])}"
                )
        # Only the hermite_pade kind reads index, and then not max_size.
        if self.index is not None and "max_size" in given:
            raise ConfigError(
                "max_size: the hermite_pade kind reads index when it is "
                "given, so max_size must be left out"
            )

    def spec(self, j: int) -> WeightSpec:
        """The weight spec of level j: ``system1[j]`` for j >= 0, else
        ``system2[-j]``."""
        return self.system1[j] if j >= 0 else self.system2[-j]

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """Parse a JSON config: the weight specs of both systems, the
        index object and the points.  Every other key goes to the
        constructor as it is, and a key left out takes its field's
        default."""
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {data!r}")
        known = fields(ExperimentConfig)
        unknown = set(data) - {f.name for f in known}
        if unknown:
            raise ConfigError(f"unknown keys: {sorted(unknown)[0]}")
        for f in known:
            if f.default is MISSING and f.default_factory is MISSING \
                    and f.name not in data:
                raise ConfigError(f"missing required key: {f.name}")

        def specs(key):
            if not isinstance(data[key], (list, tuple)):
                raise ConfigError(
                    f"{key} must be a list of weight specs, got {data[key]!r}"
                )
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

        parsed = dict(data, system1=specs("system1"), system2=specs("system2"))
        idx = data.get("index")
        if idx is not None:
            if not isinstance(idx, dict):
                raise ConfigError(f"index must be an object, got {idx!r}")
            extra = set(idx) - {"n1", "n2"}
            if extra:
                raise ConfigError(f"unknown keys: index.{sorted(extra)[0]}")
            missing = {"n1", "n2"} - set(idx)
            if missing:
                raise ConfigError(f"missing required key: index.{min(missing)}")
            parsed["index"] = (idx["n1"], idx["n2"])
        if "points" in data:
            if not isinstance(data["points"], (list, tuple)):
                raise ConfigError(f"points must be a list, got {data['points']!r}")
            parsed["points"] = tuple(
                _config_point(i, p) for i, p in enumerate(data["points"])
            )
        return ExperimentConfig(**parsed)

    def to_dict(self) -> dict:
        """The config as JSON values, one entry per field."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            system1=[s.to_dict() for s in self.system1],
            system2=[s.to_dict() for s in self.system2],
            index=None if self.index is None else {
                "n1": list(self.index[0]), "n2": list(self.index[1]),
            },
            ray=dict(self.ray),
            shift=None if self.shift is None else list(self.shift),
            points=[[p.real, p.imag] for p in self.points],
            ratios={k: list(v) for k, v in self.ratios.items()},
        )
        return out


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


def solve_config_equilibrium(config: ExperimentConfig, init="uniform", seed=0):
    """The config's vector equilibrium problem on the sets its specs hold:
    each level's interval, with its atoms when it has any, as floats.  It
    needs no Gauss rule.  ``seed`` is read only by the random ``init``."""
    if config.ratios:
        p1, p2 = config.ratios["p1"], config.ratios["p2"]
    else:
        p1, p2 = equal_ratio_vectors(
            len(config.system1) - 1, len(config.system2) - 1
        )
    matrix = build_interaction_matrix(tuple(p1), tuple(p2))
    sets = {}
    for j in matrix.levels():
        spec = config.spec(j)
        sets[j] = {"interval": tuple(float(v) for v in spec.interval)}
        if spec.mass_points:
            sets[j]["atoms"] = tuple(
                float(loc) for loc, _ in spec.sorted_mass_points
            )
    return solve_equilibrium(
        matrix, sets, panels_per_set=config.panels, init=init, seed=seed
    )


def _check(name: str, passed: bool, **metrics) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(metrics)
    return entry


def _lattice_rows(pair: NikishinPair, indices) -> list:
    """One CSV row per index, in the given order: solved, full degree and
    the pivot ratio, or the normality failure."""
    rows = []
    for index in indices:
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


def run_mop(config: ExperimentConfig) -> dict:
    pair = build_pair(config)
    rows = _lattice_rows(
        pair, decreasing_indices(pair.m1, pair.m2, config.max_size)
    )
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


def run_diagnostics(config: ExperimentConfig) -> dict:
    pair = build_pair(config)
    lattice = decreasing_indices(pair.m1, pair.m2, config.max_size)
    delta = sign_configuration(pair)
    # Coincident zeros of an index and its shift are a precision failure,
    # told apart at the separation the zero-count check demands.
    ties = {
        j: zero_separation(pair, j, pair.precision_bits)
        for j in range(-pair.m2, pair.m1 + 1)
    }
    zero_ok = True
    interlace_ok = True
    epsilon_ok = True
    rows = []

    def zero_sets(index):
        sol = solve_cached(pair, index)
        return {
            j: extract_cached(sol, j) for j in range(-index.m2, index.m1 + 1)
        }

    def varying(index):
        # Varying-measure constants need every form to be nonzero,
        # which fails when the top blocks of the first side are empty.
        return varying_cached(pair, index) if index.n1[pair.m1] >= 1 else None

    for index in lattice:
        zsets = zero_sets(index)
        report = check_zero_counts(solve_cached(pair, index), zsets)
        vd = varying(index)
        zero_ok = zero_ok and report.passed
        rows.append(
            (json.dumps(list(index.n1)), json.dumps(list(index.n2)),
             "zero_counts", report.passed, "")
        )
        shifts = (
            [config.shift] if config.shift is not None
            else [(l1, l2) for l1 in range(pair.m1 + 1) for l2 in range(pair.m2 + 1)]
        )
        for l1, l2 in shifts:
            shifted = index.shifted(l1, l2)
            if not (shifted.is_decreasing() and shifted.size <= config.max_size):
                continue
            zsets_s = zero_sets(shifted)
            vd_s = varying(shifted)
            for j in range(-pair.m2, pair.m1 + 1):
                if index.n1[pair.m1] >= 2:
                    ok = check_interlacing(
                        zsets[j].zeros, zsets_s[j].zeros, tie_tol=ties[j]
                    )
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


def run_equilibrium(config: ExperimentConfig) -> dict:
    sol = solve_config_equilibrium(config)
    sol2 = solve_config_equilibrium(config, init="random", seed=config.seed + 1)
    drift = 0.0
    for j, m in sol.masses.items():
        drift = max(drift, float(abs(m - sol2.masses[j]).max()))
    rows = []
    for j, grid in sorted(sol.grids.items()):
        mids = grid.mids
        for c, m in zip(mids, sol.masses[j]):
            rows.append((j, float(c), float(m)))
    return {
        "checks": [
            _check("restart_agreement", drift <= RESTART_MASS_BOUND,
                   value=drift, threshold=RESTART_MASS_BOUND),
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


def run_nth_root(config: ExperimentConfig) -> dict:
    pair = build_pair(config)
    ray = ray_for(config, pair)
    eq = solve_config_equilibrium(config)
    level = config.ray.get("level", 0)
    m = period(pair.m1, pair.m2)
    steps = config.ray.get("steps", 4)
    points = config.points or default_points(pair, config.seed)
    record = nth_root_harness(
        pair, ray, level, points, eq, [m * s for s in range(0, 2 * steps, 2)]
    )
    return {
        "checks": [
            _check("nth_root_trend", record.trend_ok(),
                   sizes=list(record.sample_sizes)),
        ],
        "records": {"nth_root": record},
    }


def run_ratio(config: ExperimentConfig) -> dict:
    pair = build_pair(config)
    ray = ray_for(config, pair)
    m = period(pair.m1, pair.m2)
    steps = config.ray.get("steps", 6)
    shift_position = config.ray.get("shift_position", 0)
    level = config.ray.get("level", 0)
    points = config.points or default_points(pair, config.seed)

    record = ratio_harness(pair, ray, shift_position, level, points, steps)
    stab = record.stabilization()
    stab_ok = stab[-1] < STABILIZATION_FACTOR * stab[0] if stab[0] > 0 else True

    bp = boundary_product_harness(pair, ray, shift_position, level, steps)

    eps = epsilon_ratio_check(
        pair, ray, range(shift_position, shift_position + m), level
    )
    eps_ok = all(e["match"] for e in eps)

    tel = float(telescoping_check(pair, ray, shift_position, level, points[:2]))

    kap = kappa_ratio_harness(pair, ray, shift_position, level, steps)
    per = periodic_product_harness(pair, ray, shift_position, level, points[:2], max(steps - 1, 2))

    return {
        "checks": [
            _check("stabilization", stab_ok,
                   first=stab[0], last=stab[-1], factor=STABILIZATION_FACTOR),
            _check("boundary_product_cov", bp["cov"] < BOUNDARY_COV_BOUND,
                   value=bp["cov"], threshold=BOUNDARY_COV_BOUND, mean=bp["mean"]),
            _check("epsilon_law", eps_ok),
            _check("telescoping", tel <= TELESCOPING_BOUND,
                   value=tel, threshold=TELESCOPING_BOUND),
        ],
        "csv": {
            "boundary_product": (
                ("x", "value"), list(zip(bp["grid"], bp["values"]))
            ),
        },
        "records": {"ratio": record, "kappa": kap, "full_period": per},
        "summary_extra": {
            "boundary_product": {"mean": bp["mean"], "cov": bp["cov"]},
            "kappa_last": kap.values[0][-1],
        },
    }


def run_hermite_pade(config: ExperimentConfig) -> dict:
    pair = build_pair(config)
    if config.index is not None:
        index = IndexPair(*config.index)
    else:
        n = config.max_size
        index = IndexPair(
            staircase_component(pair.m1, n), staircase_component(pair.m2, n - 1)
        )
    sol = solve_cached(pair, index)
    points = config.points or default_points(pair, config.seed, count=3)
    d_polys = compute_D(sol)

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
                if j == 0:
                    worst_ident = max(
                        worst_ident, float(abs(direct - neg) / abs(neg))
                    )
                rows.append((j, repr(z), rel))
            moments = remainder_moments(sol, j)
            if moments:
                worst_moment = max(worst_moment, float(max(moments)))
            slope = far_field_slope(sol, j)
            slopes_ok = slopes_ok and slope <= -(index.n2[j] + 1) + SLOPE_SLACK
    defect = MatrixMarkov(pair).rank_one_defect()
    return {
        "checks": [
            _check("route_agreement", worst_route <= ROUTE_AGREEMENT_BOUND,
                   value=worst_route, threshold=ROUTE_AGREEMENT_BOUND),
            _check("order_conditions", worst_moment <= MOMENT_BOUND,
                   value=worst_moment, threshold=MOMENT_BOUND),
            _check("level0_identity", worst_ident <= LEVEL0_IDENTITY_BOUND,
                   value=worst_ident, threshold=LEVEL0_IDENTITY_BOUND),
            _check("triangular_relations", worst_tri <= TRIANGULAR_BOUND,
                   value=worst_tri, threshold=TRIANGULAR_BOUND),
            _check("far_field_slopes", slopes_ok, slack=SLOPE_SLACK),
            _check("rank_one", defect <= RANK_ONE_BOUND,
                   value=defect, threshold=RANK_ONE_BOUND),
        ],
        "csv": {
            "remainder_routes": (("row", "point", "rel_difference"), rows)
        },
    }


def run_biortho(config: ExperimentConfig) -> dict:
    pair = build_pair(config)
    result = biorthogonality_matrix(pair, config.max_size)
    rows = []
    for i, row in enumerate(result["gram"]):
        for k, v in enumerate(row):
            rows.append((i + 1, k + 1, float(v)))
    return {
        "checks": [
            _check("biorthogonality", result["defect"] <= BIORTHO_DEFECT_BOUND,
                   value=result["defect"], threshold=BIORTHO_DEFECT_BOUND),
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

KINDS = tuple(RUNNERS)

CHECK_NAMES = {
    "mop": ("normality", "full_degrees"),
    "diagnostics": ("zero_counts", "interlacing", "epsilon_law"),
    "equilibrium": ("restart_agreement",),
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

#: The keys every kind accepts: the specs, the Gauss-rule settings that
#: ``build_pair`` reads, and the seed that ``summary.json`` records.
COMMON_KEYS = (
    "kind", "system1", "system2", "precision_bits", "quadrature_nodes", "seed",
)

#: The keys each kind reads beside ``COMMON_KEYS``, ``ray`` keys dotted.
#: Any other key whose value differs from its default exits 2.
READS = {
    "mop": ("max_size",),
    "diagnostics": ("max_size", "shift"),
    "equilibrium": ("panels", "ratios"),
    "nth_root": ("panels", "points", "ray.level", "ray.start_size", "ray.steps"),
    "ratio": (
        "points", "ray.level", "ray.start_size", "ray.steps",
        "ray.shift_position",
    ),
    "hermite_pade": ("index", "max_size", "points"),
    "biortho": ("max_size",),
}


def _write_outputs(out_dir: str, config: ExperimentConfig, result: dict, elapsed: float) -> dict:
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
    write_json(os.path.join(out_dir, "summary.json"), summary)
    meta = {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "elapsed_seconds": elapsed,
        "version": __version__,
        **result.get("meta_extra", {}),
    }
    write_json(os.path.join(out_dir, "run_meta.json"), meta)
    return summary


def run(config: ExperimentConfig, out_dir: str) -> int:
    """Run the config's kind and write its outputs into the existing
    directory ``out_dir``; an output path that cannot be written (a
    directory where a file goes, or the reverse) exits 2."""
    start = time.monotonic()
    result = RUNNERS[config.kind](config)
    try:
        summary = _write_outputs(out_dir, config, result, time.monotonic() - start)
    except OSError as exc:
        print(f"config error: cannot write the outputs to {out_dir!r}: {exc}",
              file=sys.stderr)
        return 2
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
    parser.add_argument(
        "--out", default="nikmop_out",
        help="output directory (default ./nikmop_out)",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored: every run is single-process",
    )
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
    except (UnicodeDecodeError, RecursionError) as exc:
        # Bytes that are not UTF-8, or nesting deeper than the parser goes.
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        config = ExperimentConfig.from_dict(data)
    except (ConfigError, MeasureError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(
            f"config error: cannot create the output directory {out_dir!r}: "
            f"{exc.strerror}",
            file=sys.stderr,
        )
        return 2
    try:
        return run(config, out_dir)
    except (NormalityViolation, EquilibriumError, MeasureError,
            InterlacingIndeterminate, ZeroDivisionError,
            ArithmeticError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        try:
            write_json(os.path.join(out_dir, "error.json"), record)
        except OSError:
            pass
        print(f"numeric failure: {record['error']}: {record['message']}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
