"""Matrix Markov functions, mixed-type approximation order conditions,
remainder identities, and biorthogonality across staircase sequences.

The central objects: the outer-product weight matrix W(x) built from the
two transform vectors, its Markov-type transform, and the remainder
vector tying the solved coefficient polynomials to iterated transforms
of the level-0 form.  Everything reduces to finite sums over the base
quadrature, so the identities here hold to working precision and are
checked through two genuinely different evaluation routes wherever the
algebra offers one.
"""

from __future__ import annotations

from mpmath import mp

from .asymptotics import staircase_component
from .fixed import CauchyKernel
from .measures import nested_cauchy_transform
from .mop import IndexPair, MopSolution, NikishinPair, solve_cached
from .precision import working


class MatrixMarkov:
    """The weight matrix W = U^t V on the base support and its entrywise
    Cauchy transform.  Row index runs over the second system's chain
    (length m2+1), column index over the first system's (length m1+1)."""

    def __init__(self, pair: NikishinPair):
        self.pair = pair

    def w_values(self, row: int, col: int) -> tuple:
        d2 = self.pair.base_density2(row)
        d1 = self.pair.base_density1(col)
        with working(self.pair.precision_bits):
            return tuple(a * b for a, b in zip(d2, d1))

    def entry(self, row: int, col: int, z):
        base = self.pair.base
        bits = self.pair.precision_bits
        with working(bits):
            weights = tuple(
                w * v
                for w, v in zip(base.signed_weights, self.w_values(row, col))
            )
            return CauchyKernel(weights, base.support_points, bits).value(z)

    def rank_one_defect(self) -> float:
        """Worst 2x2 minor of W over all nodes and index pairs, relative
        to the matrix scale there; zero in exact arithmetic since W is
        an outer product."""
        pair = self.pair
        if pair.m1 == 0 or pair.m2 == 0:
            return 0.0
        with working(pair.precision_bits):
            worst = mp.mpf(0)
            rows = [
                [self.w_values(r, c) for c in range(pair.m1 + 1)]
                for r in range(pair.m2 + 1)
            ]
            npts = len(pair.base.support_points)
            for p in range(npts):
                vals = [[rows[r][c][p] for c in range(pair.m1 + 1)]
                        for r in range(pair.m2 + 1)]
                scale = max(abs(v) for row in vals for v in row)
                if scale == 0:
                    continue
                for r1 in range(pair.m2 + 1):
                    for r2 in range(r1 + 1, pair.m2 + 1):
                        for c1 in range(pair.m1 + 1):
                            for c2 in range(c1 + 1, pair.m1 + 1):
                                minor = (
                                    vals[r1][c1] * vals[r2][c2]
                                    - vals[r1][c2] * vals[r2][c1]
                                )
                                worst = max(worst, abs(minor) / scale**2)
            return float(worst)


def compute_D(solution: MopSolution) -> tuple:
    """Ascending coefficients of the polynomial vector subtracted from
    the Markov transform times the coefficient vector.

    Row j, coefficient of z^t: sum over blocks k and block coefficients
    c_u (u > t) of c_u times the mixed moment of x^(u-t-1) against the
    row-j second-chain density and block-k first-chain density.
    """
    pair = solution.pair
    index = solution.index
    out = []
    with working(solution.precision_bits):
        for row in range(pair.m2 + 1):
            deg = max(
                (index.n1[k] - 2 for k in range(pair.m1 + 1) if index.n1[k]),
                default=-1,
            )
            coeffs = []
            for t in range(deg + 1):
                acc = mp.mpf(0)
                for k in range(pair.m1 + 1):
                    block = solution.coeffs[k]
                    for u in range(t + 1, len(block)):
                        acc += block[u] * pair.mixed_moment(k, row, u - t - 1)
                coeffs.append(acc)
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            out.append(tuple(coeffs))
    return tuple(out)


def _poly_eval(coeffs, z):
    """Horner evaluation of ascending coefficients ``coeffs`` at ``z``."""
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def remainder_matrix_route(solution: MopSolution, j: int, z, d_polys=None):
    """Row j of (Markov transform) (coefficients)^t - D^t at z.

    Assembles the Markov entries and the divided-difference polynomial
    separately; shares no intermediate values with the integral route.
    """
    pair = solution.pair
    if d_polys is None:
        d_polys = compute_D(solution)
    markov = MatrixMarkov(pair)
    with working(solution.precision_bits):
        zv = mp.mpmathify(z)
        acc = -_poly_eval(d_polys[j], zv)
        for k in range(pair.m1 + 1):
            if solution.index.n1[k]:
                acc += markov.entry(j, k, zv) * solution.a(k, zv)
        return acc


def remainder_integral(solution: MopSolution, j: int, z):
    """Row j of the remainder as the transform of the level-0 form
    against the second system's chained measure through level j."""
    pair = solution.pair
    if not 0 <= j <= pair.m2:
        raise IndexError(f"remainder row {j} out of range")
    base = pair.base
    weights = pair.s2.s_weights(0, j)
    a0 = solution.form_on_support(0)
    bits = solution.precision_bits
    with working(bits):
        products = tuple(w * v for w, v in zip(weights, a0))
        return CauchyKernel(products, base.support_points, bits).value(z)


def remainder_moments(solution: MopSolution, j: int) -> tuple:
    """Relative magnitudes of the first n2[j] moments of the level-0
    form against the second system's chain through level j; all are
    zero in exact arithmetic (the order conditions)."""
    pair = solution.pair
    index = solution.index
    base = pair.base
    weights = pair.s2.s_weights(0, j)
    a0 = solution.form_on_support(0)
    with working(solution.precision_bits):
        scale = mp.fsum(
            abs(w * v) for w, v in zip(weights, a0)
        )
        out = []
        for nu in range(index.n2[j]):
            mom = mp.fsum(
                w * v * x**nu
                for w, v, x in zip(weights, a0, base.support_points)
            )
            out.append(abs(mom) / scale if scale else mp.mpf(0))
    return tuple(out)


#: Real far-field points at which ``far_field_slope`` samples the remainder.
FAR_FIELD_POINTS = (10**4, 10**5, 10**6)


def far_field_slope(solution: MopSolution, j: int):
    """Least-squares slope of log|remainder| against log t over
    ``FAR_FIELD_POINTS``; should not exceed -(n2[j] + 1) up to the
    curvature left at finite t."""
    ts = FAR_FIELD_POINTS
    with working(solution.precision_bits):
        xs = [mp.log(mp.mpf(t)) for t in ts]
        ys = [
            mp.log(abs(remainder_integral(solution, j, mp.mpf(t))))
            for t in ts
        ]
        n = len(ts)
        sx = mp.fsum(xs)
        sy = mp.fsum(ys)
        sxx = mp.fsum(x * x for x in xs)
        sxy = mp.fsum(x * y for x, y in zip(xs, ys))
        return float((n * sxy - sx * sy) / (n * sxx - sx * sx))


def chain_hat(system, lo: int, hi: int, z, descending: bool = False):
    """Transform of the chained measure over generators lo..hi at z;
    ``descending`` reverses the nesting order (the chain then lives on
    generator hi's support)."""
    gens = system.generators[lo : hi + 1]
    if descending:
        gens = gens[::-1]
    return nested_cauchy_transform(gens, z)


def negative_form_via_remainders(solution: MopSolution, j: int, z):
    """The level -(j+1) form rebuilt from remainder rows 0..j with
    descending-chain transform coefficients; matches the directly
    iterated transform route to working precision."""
    pair = solution.pair
    if not 0 <= j <= pair.m2:
        raise IndexError(f"row {j} out of range")
    with working(solution.precision_bits):
        zv = mp.mpmathify(z)
        acc = (-1) ** j * remainder_integral(solution, j, zv)
        for k in range(j):
            coef = chain_hat(pair.s2, k + 1, j, zv, descending=True)
            acc += (-1) ** k * coef * remainder_integral(solution, k, zv)
        return acc


def remainder_via_negative_forms(solution: MopSolution, j: int, z):
    """Remainder row j rebuilt from the negative-index forms with
    ascending-chain transform coefficients (the inverse of the
    triangular scheme); empty sum at j = 0."""
    pair = solution.pair
    if not 0 <= j <= pair.m2:
        raise IndexError(f"row {j} out of range")
    with working(solution.precision_bits):
        zv = mp.mpmathify(z)
        acc = (-1) ** j * solution.form(-j - 1, zv)
        for k in range(1, j + 1):
            coef = chain_hat(pair.s2, k, j, zv)
            acc += (-1) ** (k - 1) * coef * solution.form(-k, zv)
        return acc


def biorthogonality_matrix(pair: NikishinPair, n_max: int) -> dict:
    """Pairing matrix of the two families of monic solutions over the
    staircase sequences, sizes 1..n_max.

    Row n' uses the solution with the systems interchanged (first side
    from the second sequence); column n the direct one.  The integrand
    is a product of the two level-0 forms against the base measure.
    Returns the matrix, its smallest diagonal modulus ``diag_min`` and
    the biorthogonality ``defect``: the largest off-diagonal modulus
    relative to ``diag_min``.
    """
    dual = pair.swapped()
    base = pair.base
    bits = pair.precision_bits

    def solutions(p):
        return [
            solve_cached(p, IndexPair(staircase_component(p.m1, n),
                                      staircase_component(p.m2, n - 1)))
            for n in range(1, n_max + 1)
        ]

    direct = solutions(pair)
    swapped = solutions(dual)
    with working(bits):
        gram = []
        for bs in swapped:
            bvals = bs.form_on_support(0)
            row = []
            for asol in direct:
                avals = asol.form_on_support(0)
                row.append(
                    mp.fsum(
                        w * bv * av
                        for w, bv, av in zip(
                            base.signed_weights, bvals, avals
                        )
                    )
                )
            gram.append(tuple(row))
        diag_min = min(abs(gram[i][i]) for i in range(n_max))
        off_max = mp.mpf(0)
        for i in range(n_max):
            for k in range(n_max):
                if i != k:
                    off_max = max(off_max, abs(gram[i][k]))
    return {
        "gram": tuple(gram),
        "diag_min": diag_min,
        "defect": float(off_max / diag_min) if diag_min else float("inf"),
    }
