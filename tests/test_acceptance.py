"""The acceptance gate: ten end-to-end criteria, each printed as one
pass/fail line.

Every numeric threshold here is frozen; the tests print their verdict
before asserting so a run with failures still reports the status of
each criterion (use ``pytest -s tests/test_acceptance.py``).  The
session-scoped pairs are shared with the rest of the suite, so the
solve and extraction caches accumulated below also serve the unit
tests, and vice versa.
"""

import math
import time
from itertools import product

import numpy as np
from mpmath import mp

from nikmop.asymptotics import (
    boundary_product_harness,
    classical_ratio_target,
    epsilon_ratio_check,
    equal_ratio_ray,
    equal_ratio_vectors,
    nth_root_harness,
    ratio_harness,
    staircase_component,
    telescoping_check,
)
from nikmop.cli import default_points
from nikmop.diagnostics import (
    check_interlacing,
    check_zero_counts,
    form_integral_residual,
    mass_point_attraction,
    orthogonality_residuals,
)
from nikmop.equilibrium import build_interaction_matrix, solve_equilibrium
from nikmop.hermite_pade import (
    biorthogonality_matrix,
    remainder_integral,
    remainder_moments,
)
from nikmop.mop import IndexPair, decreasing_indices, extract_cached, solve_cached
from nikmop.precision import working

from conftest import HI_BITS, monic_chebyshev_u


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def all_zero_sets(sol):
    return {
        j: extract_cached(sol, j)
        for j in range(-sol.index.m2, sol.index.m1 + 1)
    }


def test_criterion_01_normality_across_lattices(all_pairs):
    start = time.monotonic()
    solved = 0
    full = True
    for pair in all_pairs.values():
        for index in decreasing_indices(pair.m1, pair.m2, 10):
            sol = solve_cached(pair, index)
            solved += 1
            full = full and all(
                len(sol.coeffs[k]) == index.n1[k]
                for k in range(index.m1 + 1)
            )
    elapsed = time.monotonic() - start
    ok = full and elapsed < 300.0
    assert verdict(
        1,
        ok,
        f"all {solved} lattice indices (|n1| <= 10, four configurations) "
        f"solved with full degrees in {elapsed:.1f}s",
    )


def test_criterion_02_zero_counts(all_pairs, atom_pair):
    sweeps = list(all_pairs.values()) + [atom_pair]
    checked = 0
    failures = []
    for pair in sweeps:
        for index in decreasing_indices(pair.m1, pair.m2, 10):
            sol = solve_cached(pair, index)
            report = check_zero_counts(sol, all_zero_sets(sol))
            checked += 1
            if not report.passed:
                failures.append((pair.m1, pair.m2, index))
    ok = not failures
    assert verdict(
        2,
        ok,
        f"zero counts, interiority, simplicity, and the gap rule hold "
        f"for {checked} indices" + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_03_orthogonality_residuals(all_pairs):
    bound = 1e-20
    worst = 0.0
    for (m1, m2), pair in all_pairs.items():
        indices = set(decreasing_indices(m1, m2, 6))
        ray = equal_ratio_ray(m1, m2)
        r = 0
        while ray.at(r).size <= 10:
            indices.add(ray.at(r))
            r += 1
        for index in indices:
            sol = solve_cached(pair, index)
            res = orthogonality_residuals(sol, all_zero_sets(sol))
            worst = max(worst, *(float(v) for v in res.values()))

        points = default_points(pair, 0) + default_points(pair, 1)
        index = ray.at(max(6 - ray.base.size, 0))
        sol = solve_cached(pair, index)
        zsets = all_zero_sets(sol)
        for j in range(-m2 - 1, m1):
            for z in points:
                worst = max(
                    worst, float(form_integral_residual(sol, zsets, j, z))
                )
    ok = worst <= bound
    assert verdict(
        3,
        ok,
        f"orthogonality and integral-representation residuals <= {bound:g} "
        f"(worst {worst:.3e})",
    )


def test_criterion_04_interlacing(all_pairs):
    pairs_checked = 0
    failures = 0
    for (m1, m2), pair in all_pairs.items():
        for index in decreasing_indices(m1, m2, 10):
            if index.n1[m1] < 2:
                continue
            sol = solve_cached(pair, index)
            zsets = all_zero_sets(sol)
            for l1, l2 in product(range(m1 + 1), range(m2 + 1)):
                shifted = index.shifted(l1, l2)
                if not shifted.is_decreasing():
                    continue
                sol_s = solve_cached(pair, shifted)
                zsets_s = all_zero_sets(sol_s)
                pairs_checked += 1
                for j in range(-m2, m1 + 1):
                    if not check_interlacing(zsets[j].zeros, zsets_s[j].zeros):
                        failures += 1
    ok = failures == 0
    assert verdict(
        4,
        ok,
        f"zeros interlace for all {pairs_checked} index/shift pairs at "
        f"every level ({failures} failures)",
    )


def test_criterion_05_classical_oracles(pair00, pair00_hi):
    tol_coeff = mp.mpf(10) ** -25
    worst_coeff = mp.mpf(0)
    with working(256):
        for n in range(1, 13):
            sol = solve_cached(pair00, IndexPair((n + 1,), (n,)))
            want = monic_chebyshev_u(n)
            assert len(sol.coeffs[0]) == len(want)
            for got, ref in zip(sol.coeffs[0], want):
                worst_coeff = max(worst_coeff, abs(got - ref))
    coeff_ok = worst_coeff < tol_coeff

    with working(HI_BITS):
        target = classical_ratio_target(2)
        q41 = solve_cached(pair00_hi, IndexPair((41,), (40,))).form(0, mp.mpf(2))
        q40 = solve_cached(pair00_hi, IndexPair((40,), (39,))).form(0, mp.mpf(2))
        ratio_err = float(abs(q41 / q40 - target))
    ratio_ok = ratio_err < 1e-3

    eq = solve_equilibrium(
        build_interaction_matrix((1.0,), (1.0,)),
        {0: {"interval": (-1.0, 1.0)}},
        panels_per_set=512,
        seed=0,
    )
    omega_err = abs(eq.omega[0] - math.log(2))
    omega_ok = omega_err < 5e-3

    with working(HI_BITS):
        q60 = solve_cached(pair00_hi, IndexPair((60,), (59,))).form(0, mp.mpf(2))
        root_err = float(abs(abs(q60) ** (mp.mpf(1) / 60) - target))
    root_ok = root_err < 2e-2

    ok = coeff_ok and ratio_ok and omega_ok and root_ok
    assert verdict(
        5,
        ok,
        "classical oracles: coefficients match monic Chebyshev-U "
        f"(worst {float(worst_coeff):.1e}), ratio at 2 off by {ratio_err:.1e}, "
        f"equilibrium constant off log(2) by {omega_err:.1e}, "
        f"degree-root at 2 off by {root_err:.1e}",
    )


def test_criterion_06_equilibrium_variational(pair11):
    matrix = build_interaction_matrix(*equal_ratio_vectors(1, 1))
    np.linalg.cholesky(matrix.entries)
    sets = {
        j: {"interval": tuple(float(v) for v in pair11.hull(j))}
        for j in (-1, 0, 1)
    }
    first = solve_equilibrium(
        matrix, sets, panels_per_set=128, init="uniform", seed=0
    )
    second = solve_equilibrium(
        matrix, sets, panels_per_set=128, init="random", seed=7
    )
    drift = max(
        float(np.max(np.abs(first.masses[j] - second.masses[j])))
        for j in sets
    )
    ok = first.residual <= 1e-4 and second.residual <= 1e-4 and drift <= 1e-3
    assert verdict(
        6,
        ok,
        f"variational residuals {first.residual:.2e}/{second.residual:.2e} "
        f"<= 1e-4, restart mass drift {drift:.2e} <= 1e-3, "
        "interaction matrix passed Cholesky",
    )


def _nth_root_trend(pair, m1, m2, seed):
    ray = equal_ratio_ray(m1, m2)
    matrix = build_interaction_matrix(*equal_ratio_vectors(m1, m2))
    sets = {
        j: {"interval": tuple(float(v) for v in pair.hull(j))}
        for j in range(-m2, m1 + 1)
    }
    eq = solve_equilibrium(matrix, sets, panels_per_set=128, seed=0)
    points = default_points(pair, seed)
    samples = tuple(r for r in (2, 10, 18, 26, 34))
    return nth_root_harness(pair, ray, 0, points, eq, samples)


def test_criterion_07_nth_root_trend(pair10_hi, pair11_hi):
    rec10 = _nth_root_trend(pair10_hi, 1, 0, seed=2)
    rec11 = _nth_root_trend(pair11_hi, 1, 1, seed=2)
    ok = rec10.trend_ok() and rec11.trend_ok()
    first10, last10 = rec10.errors[0][0], rec10.errors[0][-1]
    first11, last11 = rec11.errors[0][0], rec11.errors[0][-1]
    assert verdict(
        7,
        ok,
        "nth-root error shrinks from first to last ray sample at all 5 "
        f"points on both rays (point 0: {first10:.3f}->{last10:.3f} and "
        f"{first11:.3f}->{last11:.3f})",
    )


def test_criterion_08_ratio_structure(pair11_hi):
    ray = equal_ratio_ray(1, 1)
    points = default_points(pair11_hi, 3)

    record = ratio_harness(pair11_hi, ray, 0, 0, points, steps=17)
    stab = record.stabilization()
    stab_ok = stab[-1] < 0.1 * stab[0]

    bp = boundary_product_harness(pair11_hi, ray, 0, 0, steps=17)
    cov_ok = bp["cov"] < 0.02

    eps_ok = all(
        rep["match"]
        for j in (-1, 0, 1)
        for rep in epsilon_ratio_check(pair11_hi, ray, (0, 1), j)
    )

    tel = float(telescoping_check(pair11_hi, ray, 0, 0, points[:2]))
    tel_ok = tel <= 1e-40

    ok = stab_ok and cov_ok and eps_ok and tel_ok
    assert verdict(
        8,
        ok,
        f"ratio stabilization {stab[0]:.2e}->{stab[-1]:.2e} (<10%), "
        f"boundary product CoV {bp['cov']:.4f} < 0.02, sign law exact, "
        f"telescoping {tel:.1e} <= 1e-40",
    )


def test_criterion_09_hermite_pade(pair11):
    index = IndexPair(staircase_component(1, 8), staircase_component(1, 7))
    sol = solve_cached(pair11, index)
    worst_moment = max(
        float(m)
        for j in range(pair11.m2 + 1)
        for m in remainder_moments(sol, j)
    )
    moment_ok = worst_moment <= 1e-18

    points = default_points(pair11, 4)
    with working(256):
        worst_ident = max(
            float(
                abs(
                    remainder_integral(sol, 0, mp.mpmathify(z))
                    - sol.form(-1, mp.mpmathify(z))
                )
                / abs(sol.form(-1, mp.mpmathify(z)))
            )
            for z in points
        )
    ident_ok = worst_ident <= 1e-40

    bio = biorthogonality_matrix(pair11, n_max=6)
    bio_ok = bio["defect"] < 1e-12

    ok = moment_ok and ident_ok and bio_ok
    assert verdict(
        9,
        ok,
        f"order-condition moments {worst_moment:.1e} <= 1e-18, first "
        f"remainder row equals the first negative form ({worst_ident:.1e}), "
        f"biorthogonality defect {bio['defect']:.1e} < 1e-12",
    )


def test_criterion_10_mass_point_attraction(atom_pair):
    near, far = mass_point_attraction(
        atom_pair,
        [IndexPair((5,), (4,)), IndexPair((20,), (19,))],
        level=0,
    )
    ok = far < near
    assert verdict(
        10,
        ok,
        f"nearest zero to the unit-interval atom moves from {float(near):.2e} "
        f"at size 5 to {float(far):.2e} at size 20",
    )
