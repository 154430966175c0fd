import pytest
from mpmath import mp

from nikmop.asymptotics import staircase_component
from nikmop.hermite_pade import (
    MatrixMarkov,
    biorthogonality_matrix,
    chain_hat,
    compute_D,
    far_field_slope,
    negative_form_via_remainders,
    remainder_integral,
    remainder_matrix_route,
    remainder_moments,
    remainder_via_negative_forms,
)
from nikmop.mop import IndexPair, solve_cached
from nikmop.precision import working

from conftest import BITS

FLOOR = mp.mpf(10) ** -60

POINTS = (mp.mpc(4, 1), mp.mpf(-6), mp.mpc(-2, "2.5"))


# ----- subtracted polynomial vector -----------------------------------


def test_compute_D_trivial_for_degree_one_blocks(pair00):
    sol = solve_cached(pair00, IndexPair((1,), (0,)))
    assert compute_D(sol) == ((),)


def test_compute_D_classical_constant(pair00):
    # For the monic degree-1 solution on the semicircle weight the
    # subtracted polynomial is the constant total mass, pi/2.
    sol = solve_cached(pair00, IndexPair((2,), (1,)))
    d = compute_D(sol)
    assert len(d) == 1 and len(d[0]) == 1
    with working(BITS):
        assert abs(d[0][0] - mp.pi / 2) < mp.mpf(10) ** -70


# ----- weight matrix ---------------------------------------------------


def test_matrix_markov_corner_entry_is_base_transform(pair11):
    markov = MatrixMarkov(pair11)
    with working(BITS):
        for z in POINTS:
            got = markov.entry(0, 0, z)
            want = pair11.base.cauchy(mp.mpmathify(z))
            assert abs(got - want) / abs(want) < FLOOR


def test_matrix_markov_entry_matches_direct_sum(pair11):
    markov = MatrixMarkov(pair11)
    base = pair11.base
    with working(BITS):
        z = mp.mpc(3, 2)
        d2 = pair11.base_density2(1)
        d1 = pair11.base_density1(1)
        want = mp.fsum(
            w * a * b / (z - x)
            for w, a, b, x in zip(
                base.signed_weights, d2, d1, base.support_points
            )
        )
        got = markov.entry(1, 1, z)
        assert abs(got - want) / abs(want) < FLOOR


def test_rank_one_defect_nearly_vanishes(pair11):
    assert MatrixMarkov(pair11).rank_one_defect() < 1e-70


def test_rank_one_defect_trivial_for_single_row(pair10):
    assert MatrixMarkov(pair10).rank_one_defect() == 0.0


# ----- remainder identities --------------------------------------------


def test_remainder_routes_agree(pair11):
    sol = solve_cached(pair11, IndexPair((2, 2), (2, 1)))
    d_polys = compute_D(sol)
    with working(BITS):
        for j in range(pair11.m2 + 1):
            for z in POINTS:
                via_matrix = remainder_matrix_route(sol, j, z, d_polys)
                via_integral = remainder_integral(sol, j, z)
                rel = abs(via_matrix - via_integral) / abs(via_integral)
                assert rel < FLOOR, (j, z)


def test_remainder_integral_rejects_bad_row(pair11):
    sol = solve_cached(pair11, IndexPair((1, 1), (1, 0)))
    with pytest.raises(IndexError):
        remainder_integral(sol, 2, 4.0)


def test_remainder_moments_vanish(pair11):
    sol = solve_cached(pair11, IndexPair((2, 2), (2, 1)))
    for j in range(pair11.m2 + 1):
        for m in remainder_moments(sol, j):
            assert m < FLOOR


def test_first_remainder_row_is_first_negative_form(pair11):
    sol = solve_cached(pair11, IndexPair((2, 1), (1, 1)))
    with working(BITS):
        for z in POINTS:
            r0 = remainder_integral(sol, 0, z)
            a_neg = sol.form(-1, mp.mpmathify(z))
            assert abs(r0 - a_neg) / abs(a_neg) < FLOOR


def test_triangular_scheme_both_directions(pair11):
    sol = solve_cached(pair11, IndexPair((2, 2), (2, 1)))
    with working(BITS):
        for j in range(pair11.m2 + 1):
            for z in POINTS:
                zv = mp.mpmathify(z)
                built = negative_form_via_remainders(sol, j, zv)
                direct = sol.form(-j - 1, zv)
                assert abs(built - direct) / abs(direct) < FLOOR
                rebuilt = remainder_via_negative_forms(sol, j, zv)
                ref = remainder_integral(sol, j, zv)
                assert abs(rebuilt - ref) / abs(ref) < FLOOR


def test_chain_hat_descending_lives_on_outer_support(pair11):
    # Ascending and descending nestings are genuinely different
    # functions; both must be finite off every support.
    with working(BITS):
        z = mp.mpc(5, 1)
        up = chain_hat(pair11.s2, 0, 1, z)
        down = chain_hat(pair11.s2, 0, 1, z, descending=True)
        assert mp.isfinite(up) and mp.isfinite(down)
        assert abs(up - down) > 0


def test_far_field_slopes_reach_order(pair11):
    sol = solve_cached(pair11, IndexPair((2, 2), (2, 1)))
    for j in range(pair11.m2 + 1):
        slope = far_field_slope(sol, j)
        assert slope <= -(sol.index.n2[j] + 1) + 0.1, (j, slope)


# ----- staircase sequences and biorthogonality -------------------------


def test_staircase_sequence_is_complete_ordered():
    assert staircase_component(2, 0) == (0, 0, 0)
    assert staircase_component(2, 4) == (2, 1, 1)


def test_biorthogonality_defect_small(pair11):
    out = biorthogonality_matrix(pair11, n_max=4)
    assert len(out["gram"]) == 4
    assert len(out["gram"][0]) == 4
    assert out["diag_min"] > 0
    assert out["defect"] < 1e-12

