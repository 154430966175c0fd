import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import nikmop
from nikmop import measures
from nikmop.fixed import CauchyKernel, exact_parts
from nikmop.measures import (
    MeasureError,
    NikishinSystem,
    QuadratureError,
    WeightSpec,
    build_gauss_rule,
    check_cauchy_identity,
    nested_cauchy_transform,
)
from nikmop.mop import IndexPair, _scan_grid, solve_cached
from nikmop.precision import refine_tolerance, working

from conftest import (
    ATOM_BASE,
    BASE,
    BITS,
    DOWN1,
    NODES,
    UP1,
    UP2,
    make_pair,
    poly_degree,
    poly_derivative,
    poly_eval,
    poly_eval_from_roots,
    poly_from_roots,
)

FLOOR = mp.mpf(10) ** -60


def test_two_node_chebyshev2_rule():
    rule = build_gauss_rule(BASE, 2, BITS)
    with working(BITS):
        assert abs(rule.nodes[0] + mp.mpf(1) / 2) < FLOOR
        assert abs(rule.nodes[1] - mp.mpf(1) / 2) < FLOOR
        for w in rule.weights:
            assert abs(w - mp.pi / 4) < FLOOR


def test_one_node_legendre_rule():
    rule = build_gauss_rule(
        WeightSpec(family="legendre", interval=(-1, 1)), 1, BITS
    )
    assert abs(rule.nodes[0]) < FLOOR
    assert abs(rule.weights[0] - 2) < FLOOR


def test_three_node_chebyshev1_rule():
    rule = build_gauss_rule(UP1, 3, BITS)
    with working(BITS):
        want = [
            mp.mpf("2.5") - mp.sqrt(3) / 4,
            mp.mpf("2.5"),
            mp.mpf("2.5") + mp.sqrt(3) / 4,
        ]
        for node, w in zip(sorted(rule.nodes), want):
            assert abs(node - w) < FLOOR
        for wgt in rule.weights:
            assert abs(wgt - mp.pi / 3) < FLOOR


def test_chebyshev2_even_moments():
    meas = build_gauss_rule(BASE, NODES, BITS)
    with working(BITS):
        assert abs(meas.moment(0) - mp.pi / 2) < FLOOR
        assert abs(meas.moment(1)) < FLOOR
        assert abs(meas.moment(2) - mp.pi / 8) < FLOOR
        assert abs(meas.moment(4) - mp.pi / 16) < FLOOR


def test_jacobi_total_mass_is_beta_function():
    # Pushforward keeps mass, so the [5, 6] rule carries the [-1, 1] mass.
    spec = WeightSpec(family="jacobi", interval=(5, 6), alpha=0.5, beta=-0.5)
    meas = build_gauss_rule(spec, 32, BITS)
    with working(BITS):
        want = 2 ** mp.mpf(1) * mp.beta(mp.mpf("1.5"), mp.mpf("0.5"))
        assert abs(meas.moment(0) - want) < FLOOR


def mpf_gauss_jacobi(n, alpha, beta):
    """Reference Gauss-Jacobi rule in mpf at the ambient precision: Newton
    on the monic recurrence from Golub-Welsch guesses, weights from the
    Christoffel sum 1 / sum_k p_k(x)^2 / h_k."""
    rec = [measures._jacobi_recurrence(k, alpha, beta) for k in range(n)]
    jacobi_matrix = np.diag([float(a) for a, _ in rec]) + np.diag(
        [float(mp.sqrt(b)) for _, b in rec[1:]], 1
    )
    guesses = np.linalg.eigvalsh(jacobi_matrix, UPLO="U")
    stop = mp.mpf(2) ** (-(mp.prec - 8))
    nodes = []
    for g in guesses:
        x = mp.mpf(g)
        for _ in range(80):
            p_prev, p, d_prev, d = mp.mpf(0), mp.mpf(1), mp.mpf(0), mp.mpf(0)
            for ak, bk in rec:
                p_prev, p, d_prev, d = (
                    p, (x - ak) * p - bk * p_prev, d, p + (x - ak) * d - bk * d_prev
                )
            dx = p / d
            x -= dx
            if abs(dx) <= stop * max(1, abs(x)):
                break
        else:
            raise AssertionError(f"reference Newton stalled near {g}")
        nodes.append(x)
    norms = [measures._jacobi_mass(alpha, beta)]
    for _, bk in rec[1:]:
        norms.append(norms[-1] * bk)
    weights = []
    for x in nodes:
        p_prev, p = mp.mpf(0), mp.mpf(1)
        acc = 1 / norms[0]
        for k, (ak, bk) in enumerate(rec[:-1]):
            p_prev, p = p, (x - ak) * p - bk * p_prev
            acc += p * p / norms[k + 1]
        weights.append(1 / acc)
    return nodes, weights


JACOBI_PARAMS = {
    "legendre": ("0", "0"),
    "jacobi(0.5,-0.5)": ("0.5", "-0.5"),
    "jacobi(-0.9,2.5)": ("-0.9", "2.5"),
}


@pytest.mark.parametrize("name", sorted(JACOBI_PARAMS))
@pytest.mark.parametrize("n, bits", [(64, 256), (128, 256), (32, 512), (96, 512)])
def test_gauss_jacobi_matches_mpf_reference(name, n, bits):
    # Exponents as build_gauss_rule passes them: decimals read at ``bits``.
    with working(bits):
        alpha, beta = (mp.mpf(v) for v in JACOBI_PARAMS[name])
        nodes, weights = measures._gauss_jacobi(n, alpha, beta, bits)
    with working(bits + 64):
        ref_nodes, ref_weights = mpf_gauss_jacobi(n, alpha, beta)
        assert len(nodes) == len(weights) == n
        node_tol = mp.mpf(2) ** -(bits - 2)
        weight_tol = mp.mpf(2) ** -(bits - 6)
        for x, ref in zip(nodes, ref_nodes):
            assert abs(x - ref) <= node_tol * max(1, abs(ref))
        for w, ref in zip(weights, ref_weights):
            assert abs(w - ref) <= weight_tol * ref


@pytest.mark.parametrize("n, bits", [(64, BITS), (32, 512)])
def test_jacobi_rule_moments_closed_form(n, bits):
    # With x = cos(t), (1-x)^(1/2) (1+x)^(-1/2) dx = (1 - cos t) dt on
    # [0, pi], so the k-th moment is c_k - c_{k+1} with
    # c_k = int_0^pi cos^k t dt = pi binom(k, k/2) / 2^k (k even, else 0).
    spec = WeightSpec(family="jacobi", interval=(-1, 1), alpha=0.5, beta=-0.5)
    meas = build_gauss_rule(spec, n, bits)
    with working(bits):

        def c(k):
            return mp.pi * mp.binomial(k, k // 2) / 2**k if k % 2 == 0 else 0

        for k in range(2 * n):
            assert abs(meas.moment(k) - (c(k) - c(k + 1))) < mp.mpf(2) ** -(bits - 8)


def test_gauss_jacobi_stall_raises(monkeypatch):
    # One Newton step from a double-precision guess cannot reach 2^-248.
    monkeypatch.setattr(measures, "GAUSS_NEWTON_STEPS", 1)
    with pytest.raises(QuadratureError, match="stalled"):
        build_gauss_rule(WeightSpec(family="legendre", interval=(-1, 1)), 8, BITS)


def test_rules_and_package_do_not_import_scipy():
    script = (
        "import importlib, pkgutil, sys\n"
        "import nikmop\n"
        "from nikmop.measures import WeightSpec, build_gauss_rule\n"
        "for info in pkgutil.iter_modules(nikmop.__path__):\n"
        "    importlib.import_module('nikmop.' + info.name)\n"
        "for family in ('chebyshev1', 'chebyshev2', 'legendre', 'jacobi'):\n"
        "    exps = dict(alpha=0.5, beta=-0.5) if family == 'jacobi' else {}\n"
        "    build_gauss_rule(WeightSpec(family=family, interval=(-1, 1),\n"
        "                     **exps), 8, 128)\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(nikmop.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@settings(deadline=None, max_examples=30)
@given(
    coeffs=st.lists(
        st.integers(min_value=-9, max_value=9), min_size=1, max_size=12
    )
)
def test_legendre_rule_is_exact_below_double_degree(coeffs):
    # 8 nodes integrate anything of degree <= 15 exactly.  The rule is
    # the pushforward of Lebesgue on [-1, 1], so mass 2 spread over the
    # length-3 interval.
    meas = build_gauss_rule(
        WeightSpec(family="legendre", interval=(-2, 1)), 8, BITS
    )
    with working(BITS):
        got = meas.quad([poly_eval(coeffs, x) for x in meas.nodes])
        want = mp.mpf(0)
        for k, c in enumerate(coeffs):
            want += c * (mp.mpf(1) ** (k + 1) - mp.mpf(-2) ** (k + 1)) / (k + 1)
        want *= mp.mpf(2) / 3
        assert abs(got - want) < FLOOR * max(1, abs(want))


def test_cauchy_transform_chebyshev1_closed_form():
    spec = WeightSpec(family="chebyshev1", interval=(-1, 1))
    meas = build_gauss_rule(spec, NODES, BITS)
    with working(BITS):
        got = meas.cauchy(mp.mpf(2))
        assert abs(got - mp.pi / mp.sqrt(3)) < FLOOR


def test_atoms_extend_hull_and_support():
    spec = WeightSpec(
        family="chebyshev2", interval=(-1, 1), mass_points=((1.5, 0.5),)
    )
    meas = build_gauss_rule(spec, 16, BITS)
    assert meas.hull == (-1, 1.5)
    assert meas.interval == (-1, 1)
    assert len(meas.support_points) == 17
    assert meas.support_points[-1] == 1.5
    assert meas.signed_weights[-1] == 0.5
    with working(BITS):
        assert abs(meas.moment(0) - (mp.pi / 2 + mp.mpf("0.5"))) < FLOOR


def test_atoms_sort_by_exact_location():
    # String and number locations build together, ordered by value: as
    # strings "-1.25" would sort before "-1.5".
    spec = WeightSpec(
        family="chebyshev2", interval=(-1, 1),
        mass_points=(("-1.25", 0.1), (2, 0.3), ("-1.5", 0.2), (-1.7, 0.4)),
    )
    meas = build_gauss_rule(spec, 4, BITS)
    assert [float(loc) for loc, _ in meas.atoms] == [-1.7, -1.5, -1.25, 2.0]
    assert [loc for loc, _ in spec.sorted_mass_points] == [
        -1.7, "-1.5", "-1.25", 2,
    ]
    # Equal locations keep the mass order.
    tied = WeightSpec("legendre", (0, 1), mass_points=((2, 0.5), (2.0, 0.25)))
    assert tied.sorted_mass_points == ((2.0, 0.25), (2, 0.5))


def test_weight_spec_validation():
    with pytest.raises(MeasureError):
        WeightSpec(family="hermite", interval=(-1, 1))
    with pytest.raises(MeasureError):
        WeightSpec(family="legendre", interval=(2, 2))
    with pytest.raises(MeasureError):
        WeightSpec(family="jacobi", interval=(0, 1))
    with pytest.raises(MeasureError):
        WeightSpec(family="jacobi", interval=(0, 1), alpha=-1.5, beta=0)
    with pytest.raises(MeasureError):
        WeightSpec(family="legendre", interval=(0, 1), mass_points=((2, 0),))
    with pytest.raises(MeasureError):
        WeightSpec.from_dict({"family": "legendre", "interval": [0, 1], "mass": 2})


def test_weight_spec_hull_keeps_signs_of_mpf_values():
    spec = WeightSpec(
        family="legendre",
        interval=(mp.mpf(-3), mp.mpf("-2.5")),
        mass_points=((mp.mpf(-4), 1),),
    )
    assert spec.hull == (-4, Fraction(-5, 2))
    with pytest.raises(MeasureError, match="spec numbers must be finite"):
        WeightSpec("legendre", (mp.ninf, mp.mpf(0)))


def test_weight_spec_rejects_infinite_numbers():
    with pytest.raises(MeasureError, match="spec numbers must be finite"):
        WeightSpec("legendre", (2, float("inf")))
    with pytest.raises(MeasureError, match="spec numbers must be finite"):
        WeightSpec("legendre", (0, 1), mass_points=((2, "inf"),))
    # JSON ints are exact however large.
    assert WeightSpec("legendre", (-(10**400), 0)).hull[0] == -(10**400)


def test_weight_spec_round_trip():
    spec = WeightSpec(
        family="jacobi",
        interval=(5, 6),
        sign=-1,
        alpha=0.5,
        beta=-0.5,
        mass_points=((7.0, 0.25),),
    )
    assert WeightSpec.from_dict(spec.to_dict()) == spec


def test_system_rejects_overlapping_hulls():
    base = build_gauss_rule(BASE, 8, BITS)
    bad = build_gauss_rule(
        WeightSpec(family="legendre", interval=(0.5, 2)), 8, BITS
    )
    with pytest.raises(MeasureError):
        NikishinSystem((base, bad))


def test_s_hat_matches_explicit_double_sum(pair11):
    system = pair11.s1
    base, up = system.generators
    z = mp.mpc("0.4", "0.9")
    with working(BITS):
        got = system.s_hat(0, 1, z)
        want = mp.mpf(0)
        for w, x in zip(base.signed_weights, base.support_points):
            inner = mp.mpf(0)
            for v, y in zip(up.signed_weights, up.support_points):
                inner += v / (x - y)
            want += w * inner / (z - x)
        assert abs(got - want) / abs(want) < FLOOR


def test_s_weights_keep_working_precision(pair11):
    # Regression: the density product used to run at ambient precision,
    # quietly flooring every downstream quadrature near 1e-16.
    system = pair11.s1
    got = system.s_weights(0, 1)
    base, up = system.generators
    with working(BITS):
        for w, x, g in zip(base.signed_weights, base.support_points, got):
            direct = w * up.cauchy(x)
            assert abs(g - direct) <= abs(direct) * FLOOR


def test_nested_transform_agrees_with_system_hat(pair21):
    system = pair21.s1
    z = mp.mpc("0.1", "2.0")
    with working(BITS):
        got = nested_cauchy_transform(system.generators, z)
        want = system.s_hat(0, 2, z)
        assert abs(got - want) / abs(want) < FLOOR


@pytest.mark.parametrize("ij", [(0, 1), (0, 2), (1, 2)])
def test_cauchy_reversal_identity(pair21, ij):
    i, j = ij
    report = check_cauchy_identity(pair21.s1, i, j, mp.mpc("0.3", "1.1"))
    assert report["rel_err"] < FLOOR


# ----- fixed-point Cauchy kernel -----------------------------------------

KERNEL_SPECS = {
    "chebyshev1": UP1,
    "chebyshev2": BASE,
    "legendre": DOWN1,
    "jacobi": UP2,
    "atom_base": ATOM_BASE,
}


def fsum_sums(weights, points, z, bits):
    """Value, slope and both sums of magnitudes, as mp.fsum of the same
    terms at 4x the precision."""
    with working(4 * bits):
        terms = [w / (z - x) for w, x in zip(weights, points)]
        slopes = [t / (z - x) for t, x in zip(terms, points)]
        return (
            mp.fsum(terms),
            -mp.fsum(slopes),
            mp.fsum(abs(t) for t in terms),
            mp.fsum(abs(t) for t in slopes),
        )


def kernel_points(lo, hi, bits):
    """Far, moderate, 1e-30 from either end of the hull, and complex.
    Built at more bits than the kernel's, they lie on grids finer than
    its points', which ``place`` then shifts onto theirs."""
    with working(bits):
        tiny = mp.mpf(10) ** -30
        mid, rad = (lo + hi) / 2, (hi - lo) / 2
        return (
            mp.mpf(10) ** 30,
            -mp.mpf(10) ** 30 / 3,
            hi + rad / 3,
            hi + tiny,
            lo - tiny,
            mp.mpc(mid + rad / 7, rad / 2),
            mp.mpc(lo + rad / 5, tiny),
            mp.mpc(-mp.mpf(10) ** 30, mp.mpf(10) ** 29),
        )


def assert_kernel_bound(weights, points, bits, zs):
    kernel = CauchyKernel(weights, points, bits)
    bound = mp.mpf(2) ** -bits
    for z in zs:
        with working(bits):
            value, slope = kernel.value_and_slope(z)
            assert kernel.value(z) == value
        want, want_slope, mass, slope_mass = fsum_sums(weights, points, z, bits)
        with working(4 * bits):
            assert abs(value - want) <= bound * mass, z
            assert abs(slope - want_slope) <= bound * slope_mass, z
        assert isinstance(value, mp.mpc) == isinstance(z, mp.mpc)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@pytest.mark.parametrize("bits, nodes", [(BITS, NODES), (512, 32)])
def test_kernel_within_bound_of_fsum(name, bits, nodes):
    meas = build_gauss_rule(KERNEL_SPECS[name], nodes, bits)
    lo, hi = meas.hull
    assert_kernel_bound(
        meas.signed_weights, meas.support_points, bits,
        kernel_points(lo, hi, bits) + kernel_points(lo, hi, 4 * bits),
    )


def test_kernel_alternating_chain_products(pair21):
    # Chain products w * hat<s_1, s_2> on the base with signs forced to
    # alternate: the sum cancels heavily, the bound is on sum |t|.
    base = pair21.base
    with working(BITS):
        weights = tuple(
            (-1) ** i * w for i, w in enumerate(pair21.s1.s_weights(0, 2))
        )
    assert len({w > 0 for w in weights}) == 2
    assert_kernel_bound(
        weights, base.support_points, BITS, kernel_points(*base.hull, BITS)
    )


def test_kernel_plain_numbers_and_vanishing_weights():
    meas = build_gauss_rule(UP1, 8, BITS)
    kernel = CauchyKernel(meas.signed_weights, meas.support_points, BITS)
    with working(BITS):
        assert kernel.value(0) == kernel.value(mp.mpf(0))
        assert kernel.value(1j) == kernel.value(mp.mpc(0, 1))
        zero = CauchyKernel((mp.mpf(0),) * 8, meas.support_points, BITS)
        assert zero.value(mp.mpf(0)) == 0
        assert zero.value_and_slope(mp.mpc(0, 1)) == (0, 0)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_kernel_raises_on_a_node(name):
    meas = build_gauss_rule(KERNEL_SPECS[name], 16, BITS)
    kernel = CauchyKernel(meas.signed_weights, meas.support_points, BITS)
    with working(BITS):
        for x in (meas.support_points[0], meas.support_points[-1]):
            for z in (x, mp.mpc(x, 0)):
                with pytest.raises(ZeroDivisionError):
                    kernel.value(z)
                with pytest.raises(ZeroDivisionError):
                    kernel.value_and_slope(z)
                with pytest.raises(ZeroDivisionError):
                    meas.cauchy(z)


def dyadic(mans, exp):
    """The exact values of the ints ``mans`` at the exponent ``exp``."""
    return [Fraction(m) * Fraction(2) ** exp for m in mans]


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_place_reads_a_finer_z_exactly(name):
    # z finer than the points' grid: the grid becomes z's own, and z and
    # every point land on it unrounded.
    meas = build_gauss_rule(KERNEL_SPECS[name], 16, BITS)
    kernel = CauchyKernel(meas.signed_weights, meas.support_points, BITS)
    lo, hi = meas.hull
    with working(5 * BITS):
        tiny = mp.mpf(2) ** (-4 * BITS)
        zs = (hi + tiny, mp.mpc(lo + (hi - lo) / 3, tiny))
        assert zs[0] - hi == tiny
    for z in zs:
        mans, exp = exact_parts(z)
        xs, placed, grid, near_bits, far_bits = kernel.place((mans, exp))
        assert dyadic(placed, grid) == dyadic(mans, exp)
        assert grid == exp < kernel._x_exp
        assert dyadic(xs, grid) == [
            dyadic(*exact_parts(x))[0] for x in meas.support_points
        ]
        dist2 = [(placed[0] - x) ** 2 + (placed[1] ** 2 if len(placed) == 2 else 0)
                 for x in xs]
        assert 4 ** near_bits <= min(dist2) and max(dist2) < 4 ** far_bits


def test_place_keeps_the_points_for_scan_grid_points(pair11):
    # The points' CAUCHY_GUARD_BITS zero bits put every scan-grid point at
    # the working precision on their grid or a coarser one, so ``place``
    # hands back the kernel's own point list, unshifted.
    sol = solve_cached(pair11, IndexPair((3, 2), (3, 1)))
    placed = 0
    with working(BITS):
        for j in range(-pair11.m2, pair11.m1 + 1):
            lo, hi = pair11.hull(j)
            kernels = [k for _, k in sol._form_kernel(j)._terms if k is not None]
            for size in (16, 64):
                for x in _scan_grid(lo, hi, size, BITS):
                    for kernel in kernels:
                        assert kernel.place(exact_parts(x))[0] is kernel._x, (j, x)
                        placed += 1
    assert placed > 0


def test_poly_helpers_round_trip():
    roots = (mp.mpf(-2), mp.mpf("0.5"), mp.mpf(3))
    coeffs = poly_from_roots(roots)
    assert len(coeffs) == 4
    assert coeffs[-1] == 1
    for r in roots:
        assert poly_eval(coeffs, r) == 0
        assert poly_eval_from_roots(roots, r) == 0
    dcoeffs = poly_derivative(coeffs)
    with working(BITS):
        x = mp.mpf("0.7")
        h = mp.mpf(10) ** -30
        numeric = (poly_eval(coeffs, x + h) - poly_eval(coeffs, x - h)) / (2 * h)
        assert abs(poly_eval(dcoeffs, x) - numeric) < mp.mpf(10) ** -25


@given(
    roots=st.lists(
        st.integers(min_value=-5, max_value=5), min_size=1, max_size=6, unique=True
    )
)
def test_poly_from_roots_vanishes_on_integer_roots(roots):
    coeffs = poly_from_roots([mp.mpf(r) for r in sorted(roots)])
    for r in roots:
        assert poly_eval(coeffs, mp.mpf(r)) == 0


def test_poly_degree_uses_relative_tolerance():
    tol = refine_tolerance(BITS)
    coeffs = (mp.mpf(1), mp.mpf(2), mp.mpf(10) ** -80)
    assert poly_degree(coeffs, tol) == 1
    assert poly_degree((mp.mpf(0),), tol) == -1


def test_make_pair_shares_base_object():
    pair = make_pair((BASE, UP1), (BASE, DOWN1), nodes=8)
    assert pair.s1.generators[0] is pair.s2.generators[0]
