import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from nikmop.diagnostics import (
    InterlacingIndeterminate,
    check_interlacing,
    check_zero_counts,
    expected_epsilon_ratio,
    form_integral_residual,
    mass_point_attraction,
    orthogonality_residuals,
    shift_sign_factor,
    sign_configuration,
    support_gaps,
)
from nikmop.mop import IndexPair, compute_varying_data, extract_cached, solve_cached

from conftest import BASE, BITS, DOWN1, UP1, make_pair

FLOOR = mp.mpf(10) ** -60


def test_check_interlacing_hand_cases():
    assert check_interlacing([1, 3], [2, 4])
    assert check_interlacing([2, 4], [1, 3])
    assert check_interlacing([1, 3], [2])
    assert not check_interlacing([1, 4], [2, 3])
    assert check_interlacing([], [5])
    assert check_interlacing([], [])


def test_check_interlacing_input_validation():
    with pytest.raises(ValueError):
        check_interlacing([3, 1], [2, 4])
    with pytest.raises(ValueError):
        check_interlacing([1], [2, 3, 4])
    with pytest.raises(InterlacingIndeterminate):
        check_interlacing([1.0, 2.0], [1.0 + 1e-12, 3.0], tie_tol=1e-9)


@given(
    xs=st.lists(
        st.integers(min_value=-100, max_value=100),
        min_size=2,
        max_size=12,
        unique=True,
    )
)
def test_alternating_split_always_interlaces(xs):
    xs = sorted(xs)
    assert check_interlacing(xs[0::2], xs[1::2])


def test_support_gaps_only_from_off_interval_atoms():
    from nikmop.measures import WeightSpec, build_gauss_rule

    plain = build_gauss_rule(BASE, 8, BITS)
    assert support_gaps(plain) == ()
    spec = WeightSpec(
        family="chebyshev2", interval=(-1, 1), mass_points=((1.5, 0.5), (0.0, 0.1))
    )
    meas = build_gauss_rule(spec, 8, BITS)
    assert support_gaps(meas) == ((1, 1.5),)


def test_sign_configuration_orientations(pair11, pair21):
    assert sign_configuration(pair11) == {-1: 1, 0: 1}
    assert sign_configuration(pair21) == {-1: 1, 0: 1, 1: 1}
    flipped = make_pair((BASE, DOWN1), (BASE, UP1), nodes=8)
    assert sign_configuration(flipped) == {-1: -1, 0: -1}


def test_epsilon_law_measured_against_table(pair11):
    # Solve the index and each of its four shifts, then compare the
    # measured sign ratios of the varying measures with the orientation
    # table at every level.
    delta = sign_configuration(pair11)
    base_index = IndexPair((3, 2), (3, 1))

    def signs(index):
        sol = solve_cached(pair11, index)
        zsets = {j: extract_cached(sol, j) for j in range(-1, 2)}
        return compute_varying_data(sol, zsets).epsilon

    eps = signs(base_index)
    for l1 in range(2):
        for l2 in range(2):
            shifted = base_index.shifted(l1, l2)
            assert shifted.is_decreasing()
            eps_s = signs(shifted)
            for j in range(-1, 2):
                got = eps_s[j] * eps[j]
                want = expected_epsilon_ratio(delta, l1, l2, j, pair11.m1)
                assert got == want, (l1, l2, j)


def test_shift_sign_factor_is_a_sign(pair21):
    delta = sign_configuration(pair21)
    for l1 in range(3):
        for l2 in range(2):
            for j in range(-1, 3):
                assert shift_sign_factor(delta, l1, l2, j) in (-1, 1)


def test_zero_count_report_full_index(pair11):
    index = IndexPair((3, 2), (3, 1))
    sol = solve_cached(pair11, index)
    zsets = {j: extract_cached(sol, j) for j in range(-1, 2)}
    report = check_zero_counts(sol, zsets)
    assert report.passed
    assert report.counts[-2] == (0, 0)
    assert report.counts[0] == (4, 4)


def test_zero_count_report_vacuous_level(pair11):
    index = IndexPair((1, 0), (0, 0))
    sol = solve_cached(pair11, index)
    zsets = {j: extract_cached(sol, j) for j in range(-1, 2)}
    report = check_zero_counts(sol, zsets)
    assert report.passed
    assert report.counts[1] == (0, 0)


def test_gap_rule_with_atom(atom_pair):
    sol = solve_cached(atom_pair, IndexPair((6,), (5,)))
    zsets = {0: extract_cached(sol, 0)}
    report = check_zero_counts(sol, zsets)
    assert report.passed
    inside = [r for r in zsets[0].zeros if 1 < r < 1.5]
    assert len(inside) <= 1


def test_orthogonality_residuals_at_floor(pair11, pair21):
    for pair, index in [
        (pair11, IndexPair((3, 2), (3, 1))),
        (pair11, IndexPair((2, 2), (2, 1))),
        (pair21, IndexPair((2, 2, 1), (3, 1))),
    ]:
        sol = solve_cached(pair, index)
        zsets = {
            j: extract_cached(sol, j) for j in range(-pair.m2, pair.m1 + 1)
        }
        res = orthogonality_residuals(sol, zsets)
        for key, value in res.items():
            assert value < FLOOR, (index, key)


def test_form_integral_representation(pair11):
    index = IndexPair((3, 2), (3, 1))
    sol = solve_cached(pair11, index)
    zsets = {j: extract_cached(sol, j) for j in range(-1, 2)}
    points = (mp.mpc("0.4", "1.2"), mp.mpf("9.0"), mp.mpc("-6.0", "0.5"))
    for j in range(-2, 1):
        for z in points:
            assert form_integral_residual(sol, zsets, j, z) < FLOOR, (j, z)
    with pytest.raises(IndexError):
        form_integral_residual(sol, zsets, 1, points[0])


def test_form_integral_rejects_vacuous_tail(pair11):
    sol = solve_cached(pair11, IndexPair((2, 0), (1, 0)))
    zsets = {j: extract_cached(sol, j) for j in range(-1, 2)}
    with pytest.raises(ValueError):
        form_integral_residual(sol, zsets, 0, mp.mpc("0.4", "1.2"))


def test_mass_point_attraction_requires_atom(pair11):
    with pytest.raises(ValueError):
        mass_point_attraction(pair11, [IndexPair((2, 1), (1, 1))], 0)


def test_mass_point_attraction_trend(atom_pair):
    dists = mass_point_attraction(
        atom_pair,
        [IndexPair((n,), (n - 1,)) for n in (3, 9)],
        0,
    )
    assert dists[1] < dists[0]
