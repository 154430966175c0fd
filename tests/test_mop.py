import bisect
import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from nikmop import mop
from nikmop.mop import (
    IndexPair,
    MopSolution,
    NormalityViolation,
    assemble_moment_system,
    decreasing_indices,
    extract_cached,
    extract_Q,
    solve_cached,
    solve_mop,
)
from nikmop.precision import pivot_threshold, refine_tolerance, working

from conftest import (
    BASE,
    BITS,
    DOWN1,
    HI_BITS,
    UP1,
    make_pair,
    monic_chebyshev_u,
    poly_eval,
    poly_eval_and_slope,
    poly_eval_from_roots,
    poly_from_roots,
)

FLOOR = mp.mpf(10) ** -60


def test_index_pair_validation():
    with pytest.raises(ValueError):
        IndexPair((2, 1), (3,))
    with pytest.raises(ValueError):
        IndexPair((2, -1), (0,))
    ip = IndexPair((3, 2), (3, 1))
    assert ip.size == 5
    assert ip.m1 == 1 and ip.m2 == 1
    assert ip.is_decreasing()
    assert not IndexPair((1, 2), (1, 1)).is_decreasing()


def test_zero_count_table():
    ip = IndexPair((3, 2), (3, 1))
    assert ip.zero_count(1) == 1
    assert ip.zero_count(0) == 4
    assert ip.zero_count(-1) == 1
    assert ip.zero_count(-2) == 0
    # Empty tail on the first side: the form vanishes identically.
    assert IndexPair((1, 0), (0, 0)).zero_count(1) == -1


def test_shifted_adds_one_unit_per_side():
    ip = IndexPair((3, 2), (3, 1))
    up = ip.shifted(1, 0)
    assert up.n1 == (3, 3) and up.n2 == (4, 1)
    assert ip.shifted(0, 1).n2 == (3, 2)
    # Equal components block the shift from staying in the class.
    assert not IndexPair((2, 2), (2, 1)).shifted(1, 0).is_decreasing()


def test_lattice_counts():
    # Partition-product counts for the four acceptance layouts.
    for (m1, m2), count in [((0, 0), 10), ((1, 0), 35), ((1, 1), 125), ((2, 1), 255)]:
        lattice = decreasing_indices(m1, m2, 10)
        assert len(lattice) == count
        assert all(ip.is_decreasing() for ip in lattice)
        assert all(ip.size <= 10 for ip in lattice)
        assert len(set(lattice)) == count


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_shift_gains_zero_counts_on_its_level_window(data):
    # One unit per side lands exactly on the levels between -l2 and l1,
    # the same window that classifies which limits keep a pole at
    # infinity.
    lattice = decreasing_indices(2, 1, 7)
    ip = data.draw(st.sampled_from(lattice))
    l1 = data.draw(st.integers(min_value=0, max_value=2))
    l2 = data.draw(st.integers(min_value=0, max_value=1))
    shifted = ip.shifted(l1, l2)
    assert shifted.size == ip.size + 1
    for j in range(-ip.m2 - 1, ip.m1 + 1):
        gain = shifted.zero_count(j) - ip.zero_count(j)
        if j == -ip.m2 - 1:
            assert gain == 0
        else:
            assert gain == (1 if -l2 <= j <= l1 else 0)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_zero_count_matches_tail_sums(data):
    ip = data.draw(st.sampled_from(decreasing_indices(2, 1, 8)))
    for j in range(ip.m1 + 1):
        assert ip.zero_count(j) == ip.tail_sum1(j) - 1
    for j in range(1, ip.m2 + 1):
        assert ip.zero_count(-j) == ip.tail_sum2(j)
    assert ip.zero_count(-ip.m2 - 1) == 0


def test_classical_degree_two_solution(pair00):
    sol = solve_mop(pair00, IndexPair((3,), (2,)))
    coeffs = sol.coeffs[0]
    with working(BITS):
        assert abs(coeffs[0] + mp.mpf(1) / 4) < FLOOR
        assert abs(coeffs[1]) < FLOOR
        assert coeffs[2] == 1


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_classical_matches_monic_chebyshev(pair00, n):
    sol = solve_cached(pair00, IndexPair((n + 1,), (n,)))
    want = monic_chebyshev_u(n)
    with working(BITS):
        for got, ref in zip(sol.coeffs[0], want):
            assert abs(got - ref) < mp.mpf(10) ** -25


def test_moment_system_residual(pair11):
    index = IndexPair((3, 2), (3, 1))
    sol = solve_cached(pair11, index)
    mat = assemble_moment_system(pair11, index)
    flat = [c for block in sol.coeffs for c in block]
    with working(BITS):
        worst = mp.mpf(0)
        for r in range(len(mat)):
            num = mp.fsum(mat[r][c] * v for c, v in enumerate(flat))
            den = mp.fsum(abs(mat[r][c] * v) for c, v in enumerate(flat))
            if den > 0:
                worst = max(worst, abs(num) / den)
        assert worst < FLOOR


def test_monic_normalization_last_nonzero_block(pair11):
    sol = solve_cached(pair11, IndexPair((2, 2), (2, 1)))
    assert sol.coeffs[-1][-1] == 1
    # When the last block is empty, the previous one carries the pin.
    sol = solve_cached(pair11, IndexPair((2, 0), (1, 0)))
    assert sol.coeffs[1] == ()
    assert sol.coeffs[0][-1] == 1


def test_full_degrees_on_small_lattice(pair21):
    # solve_mop raises when a leading coefficient vanishes, so a full
    # block length certifies deg a_j = n1[j] - 1.
    for index in decreasing_indices(2, 1, 5):
        sol = solve_cached(pair21, index)
        assert all(
            len(sol.coeffs[j]) == index.n1[j] for j in range(index.m1 + 1)
        ), index


def test_classical_zeros_at_half(pair00):
    sol = solve_cached(pair00, IndexPair((3,), (2,)))
    zs = extract_Q(sol, 0)
    with working(BITS):
        assert abs(zs.zeros[0] + mp.mpf(1) / 2) < FLOOR
        assert abs(zs.zeros[1] - mp.mpf(1) / 2) < FLOOR


def test_extract_counts_across_levels(pair11):
    index = IndexPair((3, 2), (3, 1))
    sol = solve_cached(pair11, index)
    for j in range(-1, 2):
        zs = extract_cached(sol, j)
        assert len(zs.zeros) == max(index.zero_count(j), 0)
        lo, hi = pair11.hull(j)
        for r in zs.zeros:
            assert lo < r < hi
    # The outer boundary level carries no zeros at all.
    assert extract_Q(sol, -2).zeros == ()


def test_extract_identically_zero_level(pair11):
    sol = solve_cached(pair11, IndexPair((1, 0), (0, 0)))
    zs = extract_Q(sol, 1)
    assert zs.zeros == () and zs.expected == 0


def bisection_zeros(sol, j, grid=200, form=None):
    """Reference zeros of A_j: sign changes of ``form`` (by default
    ``sol.form``) on a uniform grid of the hull, topped up with points
    closing in on each atom by decades, each bisected until the bracket is
    narrower than the refinement tolerance."""
    form = form or sol.form
    lo, hi = sol.pair.hull(j)
    tol = refine_tolerance(sol.precision_bits)
    with working(sol.precision_bits):
        xs = {lo + (hi - lo) * mp.mpf(i) / grid for i in range(1, grid)}
        for loc, _ in sol.pair.measure(j).atoms:
            for k in range(1, 80):
                xs |= {loc - mp.mpf(10) ** -k, loc + mp.mpf(10) ** -k}
        xs = sorted(x for x in xs if lo < x < hi)
        vals = [form(j, x) for x in xs]
        zeros = [x for x, v in zip(xs, vals) if v == 0]
        for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
            if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
                continue
            while b - a > tol * max(1, abs(a), abs(b)):
                c = (a + b) / 2
                fc = form(j, c)
                if fc == 0:
                    a = b = c
                elif (fc > 0) == (fa > 0):
                    a, fa = c, fc
                else:
                    b = c
            zeros.append((a + b) / 2)
    return sorted(zeros)


@pytest.mark.parametrize("name, max_size", [
    ("pair11", 5), ("atom_pair", 10), ("two_atom_pair", 10),
    ("inner_atom_pair", 10),
])
def test_extract_matches_bisection_reference(request, name, max_size):
    pair = request.getfixturevalue(name)
    tol = refine_tolerance(BITS)
    for index in decreasing_indices(pair.m1, pair.m2, max_size):
        sol = solve_cached(pair, index)
        for j in range(-index.m2, index.m1 + 1):
            if index.zero_count(j) < 0:
                continue  # the form vanishes identically on this level
            got = extract_Q(sol, j).zeros
            want = bisection_zeros(sol, j)
            assert len(got) == len(want) == index.zero_count(j)
            with working(BITS):
                for z, ref in zip(got, want):
                    d = tol * max(1, abs(z))
                    assert abs(z - ref) <= d, (index, j)
                    assert sol.form(j, z - d) * sol.form(j, z + d) <= 0


def fsum_cauchy(weights, points, z):
    return mp.fsum(w / (z - x) for w, x in zip(weights, points))


def fsum_hat(gens, z):
    """Transform of the chained measure <g_0, ..., g_k> at z, every
    density and every sum a plain mp.fsum of rounded terms."""
    head = gens[0]
    weights = head.signed_weights
    if len(gens) > 1:
        weights = [
            w * fsum_hat(gens[1:], x)
            for w, x in zip(weights, head.support_points)
        ]
    return fsum_cauchy(weights, head.support_points, z)


def fsum_form(sol):
    """``sol.form`` rebuilt on mpf Horner blocks and mp.fsum Cauchy sums,
    the reference for the fixed-point kernels.  Values of A_{-t} on the
    second system's supports are computed once per solution."""
    pair, index = sol.pair, sol.index
    s1, s2 = pair.s1.generators, pair.s2.generators
    chains = []

    def a(k, z):
        return poly_eval(sol.coeffs[k], z)

    def a0(x):
        acc = mp.mpf(0)
        for k in range(index.m1 + 1):
            if index.n1[k]:
                acc += a(k, x) * (fsum_hat(s1[1 : k + 1], x) if k else 1)
        return acc

    def form(j, z):
        with working(sol.precision_bits):
            if j >= 0:
                acc = a(j, z) if index.n1[j] else mp.mpf(0)
                for k in range(j + 1, index.m1 + 1):
                    if index.n1[k]:
                        acc += a(k, z) * fsum_hat(s1[j + 1 : k + 1], z)
                return acc
            if not chains:
                chains.append([a0(x) for x in pair.base.support_points])
            while len(chains) <= -j - 1:
                t = len(chains)
                weights = [
                    w * v for w, v in zip(s2[t - 1].signed_weights, chains[-1])
                ]
                chains.append([
                    fsum_cauchy(weights, s2[t - 1].support_points, y)
                    for y in s2[t].support_points
                ])
            src = s2[-j - 1]
            weights = [w * v for w, v in zip(src.signed_weights, chains[-j - 1])]
            return fsum_cauchy(weights, src.support_points, z)

    return form


@pytest.mark.parametrize("name, max_size", [("pair11", 5), ("atom_pair", 10)])
def test_extract_matches_fsum_reference(request, name, max_size):
    # The zeros found through the fixed-point Cauchy kernel against zeros
    # bisected on forms whose Cauchy sums are plain mp.fsum sums.
    pair = request.getfixturevalue(name)
    tol = refine_tolerance(BITS)
    for index in decreasing_indices(pair.m1, pair.m2, max_size):
        sol = solve_cached(pair, index)
        reference = fsum_form(sol)
        for j in range(-index.m2, index.m1 + 1):
            if index.zero_count(j) < 0:
                continue
            got = extract_Q(sol, j).zeros
            want = bisection_zeros(sol, j, form=reference)
            assert len(got) == len(want) == index.zero_count(j)
            with working(BITS):
                for z, ref in zip(got, want):
                    assert abs(z - ref) <= tol * max(1, abs(z)), (index, j)


def test_shortfall_doubles_the_grid(pair11, monkeypatch):
    # At one point per predicted zero, two zeros of A_0 share a cell of the
    # first grid, so its sign scan falls short; the count must come out of
    # the doubled grid, and the zeros must still be the reference zeros.
    monkeypatch.setattr(mop, "SCAN_GRID_FACTOR", 1)
    grids = []
    scan_grid = mop._scan_grid

    def counting(lo, hi, size, bits):
        grids.append(size)
        return scan_grid(lo, hi, size, bits)

    monkeypatch.setattr(mop, "_scan_grid", counting)
    index = IndexPair((3, 2), (3, 1))
    sol = solve_cached(pair11, index)
    got = extract_Q(sol, 0).zeros
    expected = index.zero_count(0)
    assert grids[0] == expected and len(grids) >= 2
    lo, hi = pair11.hull(0)
    with working(BITS):
        first = mop._scan_grid(lo, hi, expected, BITS)
    cells = [bisect.bisect(first, z) for z in got]
    assert len(set(cells)) < len(cells)
    want = bisection_zeros(sol, 0)
    assert len(got) == len(want) == expected
    tol = refine_tolerance(BITS)
    with working(BITS):
        for z, ref in zip(got, want):
            assert abs(z - ref) <= tol * max(1, abs(z))


def test_atom_scanned_from_the_first_grid(atom_pair, monkeypatch):
    # Across the sweep past (1; 0), whose A_0 has no zero, every
    # extraction on the atom level scans the mass point with its first
    # grid, evaluates no point twice and finds the predicted count without
    # doubling.
    grids, points = [], []
    scan_grid = mop._scan_grid
    form = MopSolution.form

    def counting_grid(lo, hi, size, bits):
        grids.append(size)
        return scan_grid(lo, hi, size, bits)

    def counting_form(self, j, z):
        points.append(z)
        return form(self, j, z)

    monkeypatch.setattr(mop, "_scan_grid", counting_grid)
    monkeypatch.setattr(MopSolution, "form", counting_form)
    (atom,) = [loc for loc, _ in atom_pair.measure(0).atoms]
    for index in decreasing_indices(atom_pair.m1, atom_pair.m2, 10)[1:]:
        sol = solve_cached(atom_pair, index)
        grids.clear()
        points.clear()
        zs = extract_Q(sol, 0)
        assert len(zs.zeros) == index.zero_count(0)
        assert grids == [mop.SCAN_GRID_FACTOR * index.zero_count(0)], index
        assert atom in points, index
        assert len(points) == len(set(points)), index


def test_shortfall_doubles_the_grid_with_the_atom(atom_pair, monkeypatch):
    # At one point per predicted zero, A_0 of (5; 4) on the atom pair falls
    # short on its first grid even with the mass point merged, so the scan
    # doubles once; the doubled grid holds the mass point too.
    monkeypatch.setattr(mop, "SCAN_GRID_FACTOR", 1)
    grids, scans = [], []
    scan_grid = mop._scan_grid
    merge_sorted = mop._merge_sorted

    def counting_grid(lo, hi, size, bits):
        grids.append(size)
        return scan_grid(lo, hi, size, bits)

    def counting_merge(*lists):
        scans.append(merge_sorted(*lists))
        return scans[-1]

    monkeypatch.setattr(mop, "_scan_grid", counting_grid)
    monkeypatch.setattr(mop, "_merge_sorted", counting_merge)
    index = IndexPair((5,), (4,))
    sol = solve_mop(atom_pair, index)
    got = extract_Q(sol, 0).zeros
    assert grids == [4, 8]
    (atom,) = [loc for loc, _ in atom_pair.measure(0).atoms]
    assert len(scans) == 2 and all(atom in xs for xs in scans)
    want = bisection_zeros(sol, 0)
    assert len(got) == len(want) == index.zero_count(0)
    tol = refine_tolerance(BITS)
    with working(BITS):
        for z, ref in zip(got, want):
            assert abs(z - ref) <= tol * max(1, abs(z))


@pytest.mark.parametrize("bits", [BITS, HI_BITS])
def test_refine_tolerance_ignores_the_ambient_precision(bits):
    # The refinement tolerance is a value of ``bits`` alone, whichever
    # precision the first caller holds.
    tolerances = set()
    for ambient in (53, 256, 512):
        refine_tolerance.cache_clear()
        with working(ambient):
            tolerances.add(refine_tolerance(bits))
    assert len(tolerances) == 1


def test_fsum_reference_form_matches_kernel_form(pair21):
    # The reference itself is a faithful A_j: it agrees with the kernel
    # form at off-support points of every level.
    sol = solve_cached(pair21, IndexPair((2, 2, 1), (3, 1)))
    reference = fsum_form(sol)
    with working(BITS):
        for j in range(-2, 3):
            for z in (mp.mpf("0.3"), mp.mpf("2.4"), mp.mpf("-2.6"), mp.mpc("0.1", "1.5")):
                got, want = sol.form(j, z), reference(j, z)
                assert abs(got - want) <= FLOOR * max(1, abs(want)), (j, z)


def test_refinement_evaluations_per_zero(pair00_hi, monkeypatch):
    # Newton converges quadratically from the secant point of the scan;
    # a refinement that slid back to one-sided convergence would need
    # dozens of evaluations per zero.
    calls = []
    counted = MopSolution.form_and_slope

    def counting(self, j, z):
        calls.append(z)
        return counted(self, j, z)

    monkeypatch.setattr(MopSolution, "form_and_slope", counting)
    sol = solve_cached(pair00_hi, IndexPair((25,), (24,)))
    zs = extract_Q(sol, 0)
    assert len(zs.zeros) == 24
    assert len(calls) <= 12 * len(zs.zeros)


def test_zero_set_poly_eval_matches_coeffs(pair11):
    sol = solve_cached(pair11, IndexPair((3, 2), (3, 1)))
    zs = extract_cached(sol, 0)
    with working(BITS):
        coeffs = poly_from_roots(zs.zeros)
        for x in (mp.mpf("-0.3"), mp.mpf("1.7"), mp.mpc("0.2", "0.8")):
            a = zs.poly_eval(x)
            b = poly_eval(coeffs, x)
            assert abs(a - b) <= abs(a) * FLOOR


def kernel_terms(sol, j):
    """(coefficients, weights, points) per term of A_j: the inputs its
    form kernel is built from, weights None for the bare block."""
    pair, index = sol.pair, sol.index
    if j >= 0:
        terms = [(sol.coeffs[j], None, None)] + [
            (
                sol.coeffs[k],
                pair.s1.s_weights(j + 1, k),
                pair.s1.generators[j + 1].support_points,
            )
            for k in range(j + 1, index.m1 + 1)
        ]
        return [t for t in terms if t[0]]
    src = pair.measure(j + 1)
    vals = sol.form_on_support(j + 1)
    with working(sol.precision_bits):
        weights = [w * v for w, v in zip(src.signed_weights, vals)]
    return [((mp.mpf(1),), weights, src.support_points)]


def reference_form(sol, j, z):
    """A_j(z), A_j'(z) and the sums of the magnitudes of their terms, by
    mpf Horner and mp.fsum at four times the working precision."""
    with working(4 * sol.precision_bits):
        val = slope = sigma = sigma_slope = 0
        r = abs(z)
        for coeffs, weights, points in kernel_terms(sol, j):
            p, dp = poly_eval_and_slope(coeffs, z)
            mag_p = mp.fsum(abs(c) * r**i for i, c in enumerate(coeffs))
            mag_dp = mp.fsum(
                i * abs(c) * r ** (i - 1) for i, c in enumerate(coeffs) if i
            )
            s, ds, mag_s, mag_ds = 1, 0, 1, 0
            if weights is not None:
                terms = [w / (z - x) for w, x in zip(weights, points)]
                slopes = [t / (z - x) for t, x in zip(terms, points)]
                s, ds = mp.fsum(terms), -mp.fsum(slopes)
                mag_s = mp.fsum(abs(t) for t in terms)
                mag_ds = mp.fsum(abs(t) for t in slopes)
            val += p * s
            slope += dp * s + p * ds
            sigma += mag_p * mag_s
            sigma_slope += mag_dp * mag_s + mag_p * mag_ds
    return val, slope, sigma, sigma_slope


def probe_points(sol, j):
    """Scan-grid points of level j's hull, points 1e-30 from each zero and
    from each hull end, and complex points.  The outer level borrows the
    hull of the level above it, whose support its transform sums over."""
    level = max(j, -sol.index.m2)
    lo, hi = sol.pair.hull(level)
    bits = sol.precision_bits
    with working(bits):
        eps = mp.mpf(10) ** -30
        pts = mop._scan_grid(lo, hi, 16, bits)[::3]
        for r in extract_cached(sol, level).zeros + (lo, hi):
            pts += [r - eps, r + eps]
        pts += [mp.mpc((lo + hi) / 2, "0.5"), mp.mpc("0.1", "1.5")]
    return pts


@pytest.mark.parametrize(
    "name, index",
    [("pair21", IndexPair((2, 2, 1), (3, 1))),
     ("pair21", IndexPair((3, 2, 2), (4, 2))),
     ("atom_pair", IndexPair((6,), (5,)))],
)
def test_form_kernel_within_stated_bound(request, name, index):
    # |value - A| <= 2^-p |A| + 2^-(bits+36) Sigma, against mpf Horner and
    # mp.fsum at four times the precision, for the value and the slope.
    sol = solve_cached(request.getfixturevalue(name), index)
    bits = sol.precision_bits
    for j in range(-index.m2 - 1, index.m1 + 1):
        for z in probe_points(sol, j):
            val, slope = sol.form_and_slope(j, z)
            assert sol.form(j, z) == val
            want, want_slope, sigma, sigma_slope = reference_form(sol, j, z)
            with working(4 * bits):
                assert abs(val - want) <= (
                    mp.ldexp(abs(want), -bits) + mp.ldexp(sigma, -bits - 36)
                ), (j, z)
                assert abs(slope - want_slope) <= (
                    mp.ldexp(abs(want_slope), -bits)
                    + mp.ldexp(sigma_slope, -bits - 36)
                ), (j, z)


@pytest.mark.parametrize(
    "name, index",
    [("pair21", IndexPair((3, 2, 2), (4, 2))), ("atom_pair", IndexPair((8,), (7,)))],
)
def test_zero_set_product_rounds_once(request, name, index):
    sol = solve_cached(request.getfixturevalue(name), index)
    bits = sol.precision_bits
    for j in range(-index.m2, index.m1 + 1):
        zs = extract_cached(sol, j)
        for r in zs.zeros:
            with working(bits):
                assert zs.poly_eval(r) == 0
        for z in probe_points(sol, j):
            with working(bits):
                got = zs.poly_eval(z)
            with working(4 * bits):
                want = poly_eval_from_roots(zs.zeros, z)
                assert abs(got - want) <= mp.ldexp(abs(want), -bits), (j, z)


@pytest.mark.parametrize("bits", [BITS, HI_BITS])
@pytest.mark.parametrize("hull", [(-1, 1), (2, 3), ("-3.1", "-2.2")])
@pytest.mark.parametrize("size", [16, 48, 4096])
def test_scan_grid_within_one_ulp_of_cosines(bits, hull, size):
    with working(bits):
        lo, hi = (mp.mpf(v) for v in hull)
        xs = mop._scan_grid(lo, hi, size, bits)
    assert len(xs) == size and xs == sorted(xs)
    with working(4 * bits):
        for i, x in zip(range(size, 0, -1), xs):
            want = (lo + hi) / 2 + (hi - lo) / 2 * mp.cos(
                mp.pi * (2 * i - 1) / (2 * size)
            )
            assert abs(x - want) <= mp.ldexp(1, mp.frexp(want)[1] - bits), i


def test_solve_cached_identity(pair11):
    a = solve_cached(pair11, IndexPair((2, 1), (1, 1)))
    b = solve_cached(pair11, IndexPair((2, 1), (1, 1)))
    assert a is b


def test_form_on_support_matches_pointwise(pair11):
    sol = solve_cached(pair11, IndexPair((2, 2), (2, 1)))
    for j in (-1, 0, 1):
        meas = pair11.measure(j)
        vals = sol.form_on_support(j)
        with working(BITS):
            for x, v in zip(meas.support_points[:5], vals[:5]):
                direct = sol.form(j, x)
                assert abs(direct - v) <= abs(v) * FLOOR


def test_mixed_moment_against_direct_quadrature(pair11):
    base = pair11.base
    with working(BITS):
        d1 = pair11.base_density1(1)
        d2 = pair11.base_density2(1)
        want = mp.fsum(
            w * a * b * x
            for w, x, a, b in zip(
                base.signed_weights, base.support_points, d1, d2
            )
        )
        got = pair11.mixed_moment(1, 1, 1)
        assert abs(got - want) <= abs(want) * FLOOR


def test_classical_varying_constant():
    # Orthonormal second-kind polynomials have kappa = 2^n sqrt(2/pi).
    from nikmop.mop import compute_varying_data

    pair = make_pair((BASE,), (BASE,), nodes=32)
    sol = solve_cached(pair, IndexPair((4,), (3,)))
    zsets = {0: extract_cached(sol, 0)}
    vd = compute_varying_data(sol, zsets)
    with working(BITS):
        want = 8 * mp.sqrt(2 / mp.pi)
        assert abs(vd.kappa[0] - want) / want < FLOOR
        assert vd.epsilon[0] == 1
        assert vd.K[1] == 1


def eager_varying_data(solution, zero_sets):
    """Reference K, kappa, epsilon and reference indices: every support
    value of every level, the reference point found by a full scan of the
    support."""
    from nikmop.mop import ZeroCountMismatch, _gap_to

    index = solution.index
    pair = solution.pair
    K = {index.m1 + 1: mp.mpf(1)}
    epsilon = {}
    refs = {}
    with working(solution.precision_bits):
        for j in range(index.m1, -index.m2 - 1, -1):
            meas = pair.measure(j)
            vals = solution.form_on_support(j)
            q_here = zero_sets[j]
            q_lo = zero_sets.get(j - 1)
            mass = mp.mpf(0)
            for w, x, av in zip(meas.signed_weights, meas.support_points, vals):
                lo = q_lo.poly_eval(x) if q_lo else mp.mpf(1)
                mass += abs(w) * abs(q_here.poly_eval(x) * av / lo)
            if mass == 0:
                raise ZeroCountMismatch(f"degenerate varying mass at level {j}")
            K[j] = 1 / mp.sqrt(mass)
            pts = meas.support_points
            ref_pos = max(
                range(len(pts)), key=lambda i: _gap_to(q_here.zeros, pts[i])
            )
            refs[j] = ref_pos
            ref = pts[ref_pos]
            ratio = vals[ref_pos] / q_here.poly_eval(ref)
            lo_val = q_lo.poly_eval(ref) if q_lo else mp.mpf(1)
            epsilon[j] = (
                meas.sign * (1 if ratio > 0 else -1) * (1 if lo_val > 0 else -1)
            )
        kappa = {
            j: K[j] / K[j + 1] for j in range(index.m1, -index.m2 - 1, -1)
        }
    return K, kappa, epsilon, refs


@pytest.mark.parametrize("name, max_size", [("pair11", 5), ("atom_pair", 10)])
def test_varying_data_matches_eager_reference(request, name, max_size):
    # epsilon from one support value per level, and K and kappa on first
    # read, equal the eager computation exactly; reading epsilon alone
    # computes A_{-m2} on the last generator's support at the reference
    # point only.
    from nikmop.mop import _reference_index, compute_varying_data

    pair = request.getfixturevalue(name)
    empty_levels = 0
    for index in decreasing_indices(pair.m1, pair.m2, max_size):
        if index.n1[pair.m1] < 1:
            continue  # the top form vanishes: no varying data
        levels = range(-index.m2, index.m1 + 1)
        ref_sol = solve_cached(pair, index)
        zsets = {j: extract_cached(ref_sol, j) for j in levels}
        K, kappa, epsilon, refs = eager_varying_data(ref_sol, zsets)
        sol = solve_mop(pair, index)
        for j in levels:
            extract_Q(sol, j)
        vd = compute_varying_data(sol, zsets)
        assert vd.epsilon == epsilon, index
        store = sol._cache[("support", -index.m2)]
        computed = [p for p, v in enumerate(store) if v is not None]
        assert computed == [refs[-index.m2]], index
        assert vd.K == K and vd.kappa == kappa, index
        for j in levels:
            meas = pair.measure(j)
            assert _reference_index(zsets[j].zeros, meas) == refs[j], (index, j)
            empty_levels += not zsets[j].zeros
    assert empty_levels


def test_reference_index_matches_full_scan(pair11, atom_pair):
    # Laid-out zeros: none, mirrored pairs (equal gaps, first index wins),
    # zeros on nodes, a midpoint on a node, zeros outside the hull, and a
    # mass point as the farthest point.
    from nikmop.mop import _gap_to, _reference_index

    for meas in (pair11.measure(0), pair11.measure(1), atom_pair.measure(0)):
        nodes = meas.nodes
        n = len(nodes)
        with working(BITS):
            layouts = [
                (),
                (nodes[n // 2],),
                (-nodes[-3], nodes[-3]) if nodes[0] < 0 else (),
                (nodes[3], nodes[7], nodes[20]),
                (nodes[4], 2 * nodes[6] - nodes[4]),
                (nodes[0] - 1, nodes[-1] + 1),
                (nodes[0] - 1,),
                tuple(nodes[1:-1:9]),
                (nodes[5], nodes[-5]),
            ]
        pts = meas.support_points
        for zeros in layouts:
            zeros = tuple(sorted(zeros))
            with working(BITS):
                want = max(range(len(pts)), key=lambda i: _gap_to(zeros, pts[i]))
                assert _reference_index(zeros, meas) == want, zeros


def test_support_value_is_the_support_tuple_entry(pair11, atom_pair):
    # Computed alone or read from the cached tuple, each value is the
    # number ``form_on_support`` holds, on every level.
    for pair, index in ((pair11, IndexPair((3, 2), (3, 1))),
                        (atom_pair, IndexPair((6,), (5,)))):
        alone = solve_mop(pair, index)
        tuples = solve_mop(pair, index)
        # Downward, so no level's store exists before it is read alone.
        for j in range(index.m1, -index.m2 - 1, -1):
            assert ("support", j) not in alone._cache
            want = tuples.form_on_support(j)
            got = [alone.support_value(j, p) for p in range(len(want))]
            assert got == list(want), j
            assert [tuples.support_value(j, p) for p in range(len(want))] == got
            # A level computed point by point reads back as one tuple.
            whole = alone.form_on_support(j)
            assert whole == want and alone.form_on_support(j) is whole


def test_support_points_are_evaluated_once(monkeypatch):
    # Every value of A_j on a support is computed once, whichever reader
    # asks first: epsilon then kappa, as the ``ratio`` kind reads them,
    # and epsilon of a ``diagnostics`` index whose level -m2 holds no
    # zeros, where the level -1 kernel reads the level-0 values after
    # epsilon has computed one of them.
    from nikmop.asymptotics import varying_cached
    from nikmop.fixed import FormKernel

    pair = make_pair((BASE, UP1), (BASE, DOWN1), nodes=16)
    evaluate = FormKernel.__call__
    calls = collections.Counter()

    def counted(self, z, slope=False, factors=None):
        calls[id(self), z] += 1
        return evaluate(self, z, slope, factors)

    for index, reads in ((IndexPair((3, 2), (3, 1)), ("epsilon", "kappa")),
                         (IndexPair((2, 2), (3, 0)), ("epsilon",))):
        sol = solve_cached(pair, index)
        for j in range(-index.m2, index.m1 + 1):
            extract_cached(sol, j)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(FormKernel, "__call__", counted)
            vd = varying_cached(pair, index)
            for name in reads:
                getattr(vd, name)
        assert calls, index
        repeated = [key for key, count in calls.items() if count > 1]
        assert not repeated, (index, len(repeated))


def test_normality_violation_names_precision():
    pair = make_pair((BASE, UP1), (BASE,), nodes=16, bits=64)
    with pytest.raises(NormalityViolation, match="precision"):
        solve_mop(pair, IndexPair((7, 6), (12,)))


def mpf_solve_square(mat, rhs, rel_pivot_floor):
    """Reference partial-pivot elimination in mpf at the ambient precision;
    returns (solution, smallest pivot ratio), or (None, ratio) once a
    pivot ratio falls below ``rel_pivot_floor``.  ``mat``/``rhs`` are lists
    of lists / list of mpf, modified in place."""
    n = len(rhs)
    scale = max((abs(v) for row in mat for v in row), default=mp.mpf(0))
    if scale == 0:
        return None, mp.mpf(0)
    min_ratio = mp.inf
    for col in range(n):
        piv_row = max(range(col, n), key=lambda r: abs(mat[r][col]))
        piv = mat[piv_row][col]
        ratio = abs(piv) / scale
        min_ratio = min(min_ratio, ratio)
        if ratio < rel_pivot_floor:
            return None, min_ratio
        if piv_row != col:
            mat[col], mat[piv_row] = mat[piv_row], mat[col]
            rhs[col], rhs[piv_row] = rhs[piv_row], rhs[col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                mat[r][c] -= f * mat[col][c]
            rhs[r] -= f * rhs[col]
    sol = [mp.mpf(0)] * n
    for r in range(n - 1, -1, -1):
        acc = rhs[r]
        for c in range(r + 1, n):
            acc -= mat[r][c] * sol[c]
        sol[r] = acc / mat[r][r]
    return sol, min_ratio


def mpf_solve_moments(mat, bits):
    """The n x (n + 1) moment system ``mat`` solved by ``mpf_solve_square``
    at ``bits``, with the last column moved to the right-hand side."""
    n = len(mat)
    with working(bits):
        return mpf_solve_square(
            [row[:n] for row in mat], [-row[n] for row in mat],
            pivot_threshold(bits),
        )


def solve_error(sol, ref):
    """max_c |sol_c - ref_c| / max_c |ref_c|, at four times the test bits."""
    with working(4 * HI_BITS):
        return max(abs(a - b) for a, b in zip(sol, ref)) / max(map(abs, ref))


def test_fixed_solve_against_mpf_elimination(pair21):
    # On every system of the lattice the fixed-point solve is at least as
    # close to the mpf solve at 4x bits as the mpf solve at the working
    # bits is, or within one unit of the working precision, and reports
    # the same pivot ratio.
    unit = mp.mpf(2) ** -BITS
    for index in decreasing_indices(2, 1, 8):
        mat = assemble_moment_system(pair21, index)
        if not mat:
            continue
        ref, ref_ratio = mpf_solve_moments(mat, 4 * BITS)
        plain, _ = mpf_solve_moments(mat, BITS)
        with working(BITS):
            got, ratio = mop._solve_fixed(mat, BITS)
        assert solve_error(got, ref) <= max(solve_error(plain, ref), unit), index
        assert float(ratio) == float(ref_ratio), index
        assert solve_mop(pair21, index).pivot_ratio == float(ref_ratio), index


def test_fixed_solve_equilibrates_columns(pair11_hi):
    # Scaling a column by 2^-300 leaves the ints of the fixed-point solve
    # unchanged, so its unknown comes back exactly 2^300 times larger and
    # the rest exactly as before: the same relative accuracy.
    mat = assemble_moment_system(pair11_hi, IndexPair((3, 2), (3, 1)))
    scaled = [
        [mp.ldexp(v, -300) if c == 1 else v for c, v in enumerate(row)]
        for row in mat
    ]
    ref, _ = mpf_solve_moments(mat, 4 * HI_BITS)
    plain, _ = mpf_solve_moments(mat, HI_BITS)
    with working(HI_BITS):
        got, _ = mop._solve_fixed(mat, HI_BITS)
        got_scaled, _ = mop._solve_fixed(scaled, HI_BITS)
    unit = mp.mpf(2) ** -HI_BITS
    assert solve_error(got, ref) <= max(solve_error(plain, ref), unit)
    back = [mp.ldexp(v, -300) if c == 1 else v for c, v in enumerate(got_scaled)]
    assert back == got


@pytest.mark.parametrize("zero_columns", [(2,), range(5)])
def test_zero_column_raises(pair11, monkeypatch, zero_columns):
    index = IndexPair((3, 2), (3, 1))
    mat = [
        [mp.mpf(0) if c in zero_columns else v for c, v in enumerate(row)]
        for row in assemble_moment_system(pair11, index)
    ]
    monkeypatch.setattr(mop, "assemble_moment_system", lambda pair, idx: mat)
    with pytest.raises(NormalityViolation, match="precision"):
        solve_mop(pair11, index)
