import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from nikmop.asymptotics import (
    balanced_base,
    boundary_modulus,
    boundary_product_harness,
    classical_ratio_target,
    epsilon_ratio_check,
    equal_ratio_ray,
    equal_ratio_vectors,
    joukowski_exterior,
    kappa_ratio_harness,
    nth_root_harness,
    period,
    periodic_product_harness,
    ratio_harness,
    staircase_component,
    staircase_shift,
    telescoping_check,
)
from nikmop.equilibrium import build_interaction_matrix, solve_equilibrium
from nikmop.mop import IndexPair, extract_cached, solve_cached
from nikmop.precision import working


# ----- staircase combinatorics ---------------------------------------


def test_staircase_component_hand_values():
    assert staircase_component(1, 0) == (0, 0)
    assert staircase_component(1, 1) == (1, 0)
    assert staircase_component(1, 2) == (1, 1)
    assert staircase_component(1, 3) == (2, 1)
    assert staircase_component(2, 4) == (2, 1, 1)
    assert staircase_component(0, 7) == (7,)


def test_staircase_component_rejects_negative():
    with pytest.raises(ValueError):
        staircase_component(1, -1)


@given(m=st.integers(0, 4), r=st.integers(0, 60))
def test_staircase_component_is_flat_and_sums_to_r(m, r):
    comp = staircase_component(m, r)
    assert len(comp) == m + 1
    assert sum(comp) == r
    assert max(comp) - min(comp) <= 1
    assert all(a >= b for a, b in zip(comp, comp[1:]))


def test_period_values():
    assert period(0, 0) == 1
    assert period(1, 1) == 2
    assert period(1, 0) == 2
    assert period(2, 1) == 6


@given(m1=st.integers(0, 3), m2=st.integers(0, 3))
def test_one_period_sweeps_each_shift_once(m1, m2):
    shifts = [staircase_shift(m1, m2, r) for r in range(period(m1, m2))]
    assert shifts[0] == (0, 0)
    assert len(set(shifts)) == len(shifts)
    if (m1, m2) == (1, 1):
        assert shifts == [(0, 0), (1, 1)]


@given(m1=st.integers(0, 3), m2=st.integers(0, 3), r=st.integers(0, 40))
def test_staircase_shift_is_periodic(m1, m2, r):
    p = period(m1, m2)
    assert staircase_shift(m1, m2, r) == staircase_shift(m1, m2, r + p)


def test_balanced_base_hand_values():
    assert balanced_base(1, 1, 4) == IndexPair((2, 2), (2, 1))
    assert balanced_base(2, 1, 6) == IndexPair((2, 2, 2), (3, 2))
    assert balanced_base(0, 0, 1) == IndexPair((1,), (0,))


def test_balanced_base_needs_divisible_first_size():
    with pytest.raises(ValueError, match="not a multiple"):
        balanced_base(1, 1, 5)


def test_equal_ratio_ray_default_bases():
    assert equal_ratio_ray(1, 1).base == IndexPair((1, 1), (1, 0))
    assert equal_ratio_ray(0, 0).base == IndexPair((1,), (0,))
    assert equal_ratio_ray(2, 1).base == IndexPair((2, 2, 2), (3, 2))


@given(r=st.integers(0, 30))
def test_ray_positions_stay_decreasing_and_grow_by_one(r):
    ray = equal_ratio_ray(1, 1)
    index = ray.at(r)
    assert index.size == ray.base.size + r
    assert all(a >= b for a, b in zip(index.n1, index.n1[1:]))
    assert all(a >= b for a, b in zip(index.n2, index.n2[1:]))


@given(r=st.integers(0, 20))
def test_pair_at_matches_shifted(r):
    ray = equal_ratio_ray(2, 1)
    lo, hi, (l1, l2) = ray.pair_at(r)
    assert hi == lo.shifted(l1, l2)


def test_equal_ratio_vectors_sum_to_one():
    for m1, m2 in ((0, 0), (1, 1), (2, 1), (3, 2)):
        p1, p2 = equal_ratio_vectors(m1, m2)
        assert len(p1) == m1 + 1 and len(p2) == m2 + 1
        assert math.isclose(sum(p1), 1.0)
        assert math.isclose(sum(p2), 1.0)


# ----- conformal reference data --------------------------------------


def test_joukowski_exterior_inverts_the_map():
    with working(256):
        for z in (mp.mpf(2), mp.mpc(0.3, 1.1), mp.mpf(-5), mp.mpc(-2, -3)):
            phi = joukowski_exterior(z)
            assert abs(phi) >= 1
            assert abs(phi + 1 / phi - 2 * z) < mp.mpf(10) ** -70


def test_classical_ratio_target_reference_point():
    with working(256):
        want = (2 + mp.sqrt(3)) / 2
        assert abs(classical_ratio_target(2) - want) < mp.mpf(10) ** -70


def test_classical_ratio_target_respects_interval_scaling():
    with working(256):
        # (-2, 2) doubles the capacity and maps 4 to the reference
        # point 2 of the standard interval.
        got = classical_ratio_target(4, interval=(-2, 2))
        assert abs(got - (2 + mp.sqrt(3))) < mp.mpf(10) ** -70


# ----- classical single-measure limits --------------------------------


def test_classical_zero_poly_ratio_approaches_target(pair00_hi):
    ray = equal_ratio_ray(0, 0)
    record = ratio_harness(pair00_hi, ray, 0, 0, points=(2.0,), steps=8)
    with working(512):
        target = complex(classical_ratio_target(2))
    errs = [abs(v - target) for v in record.values[0]]
    assert errs[-1] < 1e-6
    assert errs[-1] < errs[0]


def test_classical_kappa_ratio_is_exactly_two(pair00_hi):
    # Monic second-kind Chebyshev polynomials double their
    # orthonormalizing constant at every single step, not just in the
    # limit.
    ray = equal_ratio_ray(0, 0)
    record = kappa_ratio_harness(pair00_hi, ray, 0, 0, steps=8)
    for v in record.values[0]:
        assert abs(v - 2.0) < 1e-12


def test_classical_boundary_modulus_is_half_capacity(pair00_hi):
    # Successive monic polynomial ratios on the interval itself have
    # modulus equal to the capacity, 1/2 for (-1, 1).
    num = solve_cached(pair00_hi, IndexPair((25,), (24,)))
    den = solve_cached(pair00_hi, IndexPair((24,), (23,)))
    got = boundary_modulus(
        extract_cached(num, 0), extract_cached(den, 0), mp.mpf("0.3"), 512
    )
    assert abs(got - mp.mpf("0.5")) < 5e-3


# ----- exact identities along rays ------------------------------------


def test_telescoping_identity_is_exact(pair11):
    ray = equal_ratio_ray(1, 1)
    worst = telescoping_check(
        pair11, ray, start=0, j=0, points=(mp.mpc(2.5, 0.7), mp.mpf(-4))
    )
    assert worst < mp.mpf(10) ** -40


def test_epsilon_ratio_check_matches_prediction(pair11):
    ray = equal_ratio_ray(1, 1)
    for j in (0, -1):
        reports = epsilon_ratio_check(pair11, ray, (0, 1, 2, 3), j)
        assert len(reports) == 4
        for rep in reports:
            assert rep["match"], rep
            assert rep["predicted"] in (-1, 1)


# ----- stabilization harnesses (small-scale smoke) ---------------------


def test_periodic_product_harness_shapes(pair11):
    ray = equal_ratio_ray(1, 1)
    record = periodic_product_harness(
        pair11, ray, start=0, j=0, points=(mp.mpc(2.5, 0.7),), steps=3
    )
    assert record.sample_sizes == (2, 4, 6)
    moves = record.stabilization()
    assert len(moves) == 2
    assert all(m >= 0 and math.isfinite(m) for m in moves)


def test_boundary_product_harness_sanity(pair11):
    ray = equal_ratio_ray(1, 1)
    out = boundary_product_harness(pair11, ray, 0, 0, steps=3)
    assert len(out["grid"]) == 9
    assert len(out["values"]) == 9
    assert out["mean"] > 0
    # Constancy across the interval is only approximate this early on
    # the ray; the tight threshold lives in the acceptance suite.
    assert out["cov"] < 0.5


def test_nth_root_trend_against_equilibrium(pair10):
    ray = equal_ratio_ray(1, 0)
    matrix = build_interaction_matrix(*equal_ratio_vectors(1, 0))
    sets = {0: {"interval": (-1.0, 1.0)}, 1: {"interval": (2.0, 3.0)}}
    eq = solve_equilibrium(matrix, sets, panels_per_set=128, seed=0)
    record = nth_root_harness(
        pair10, ray, 0, points=(5.0, -2.5), equilibrium=eq,
        samples=(0, 4, 8, 12),
    )
    assert record.sample_sizes == (2, 6, 10, 14)
    assert record.trend_ok()
