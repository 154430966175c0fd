"""Mixed multiple orthogonal polynomials for a pair of Nikishin systems
sharing their base measure.

Given multi-indices n1 (one entry per generator of the first system) and n2
(one per generator of the second) with |n2| + 1 = |n1|, the solver finds
polynomials a_0, ..., a_{m1} with deg a_j <= n1[j] - 1 such that the
combined form  A_0 = sum_j a_j * shat1_{1,j}  is orthogonal to x^nu against
every chained measure <s2_0, ..., s2_k> for nu < n2[k].  The normalization
pins the leading coefficient of the last nonzero block to one.

Index conventions follow the two-sided layout used throughout the package:
nonnegative j labels the first system's chain, negative j the second's, so
the forms A_j exist for j = -m2-1, ..., m1 and the zero polynomials Q_j for
j = -m2, ..., m1 (with Q at both outer boundaries identically one).
"""
from __future__ import annotations

import bisect
import functools
import heapq
from dataclasses import dataclass, field

from mpmath import mp

from .fixed import (
    FORM_GUARD_BITS,
    CauchyKernel,
    FormKernel,
    column_top,
    exact_parts,
    fixed,
    to_fixed,
    to_mp,
)
from .measures import DiscretizedMeasure, MeasureError, NikishinSystem
from .precision import (
    lead_threshold,
    pivot_threshold,
    refine_tolerance,
    working,
)


class NormalityViolation(ArithmeticError):
    """The moment system is defective for an index the theory calls normal."""


class ZeroCountMismatch(ArithmeticError):
    """A form shows a different number of sign changes than its index predicts."""


@dataclass(frozen=True)
class IndexPair:
    """Multi-index pair (n1; n2) with |n2| + 1 = |n1|, entries >= 0."""

    n1: tuple[int, ...]
    n2: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n1", tuple(int(v) for v in self.n1))
        object.__setattr__(self, "n2", tuple(int(v) for v in self.n2))
        if not self.n1 or not self.n2:
            raise ValueError("both index components must be nonempty")
        if any(v < 0 for v in self.n1 + self.n2):
            raise ValueError(f"index entries must be nonnegative: {self}")
        if sum(self.n2) + 1 != sum(self.n1):
            raise ValueError(
                f"need |n2| + 1 = |n1|, got |n1|={sum(self.n1)} |n2|={sum(self.n2)}"
            )

    @property
    def m1(self) -> int:
        return len(self.n1) - 1

    @property
    def m2(self) -> int:
        return len(self.n2) - 1

    @property
    def size(self) -> int:
        return sum(self.n1)

    def is_decreasing(self) -> bool:
        dec1 = all(self.n1[i] >= self.n1[i + 1] for i in range(self.m1))
        dec2 = all(self.n2[i] >= self.n2[i + 1] for i in range(self.m2))
        return dec1 and dec2

    def tail_sum1(self, j: int) -> int:
        """n1[j] + ... + n1[m1]."""
        return sum(self.n1[j:])

    def tail_sum2(self, j: int) -> int:
        """n2[j] + ... + n2[m2]."""
        return sum(self.n2[j:])

    def zero_count(self, j: int) -> int:
        """Predicted number of zeros of the form A_j, for j in
        [-m2-1, m1]: tail_sum1(j) - 1 on the first side, tail_sum2(-j) on
        the second, zero at the outer boundary j = -m2 - 1."""
        if j > self.m1 or j < -self.m2 - 1:
            raise IndexError(f"form index {j} out of range for {self}")
        if j >= 0:
            return self.tail_sum1(j) - 1
        if j == -self.m2 - 1:
            return 0
        return self.tail_sum2(-j)

    def shifted(self, l1: int, l2: int) -> "IndexPair":
        """Index with one unit added to component l1 of n1 and l2 of n2."""
        if not (0 <= l1 <= self.m1 and 0 <= l2 <= self.m2):
            raise IndexError(f"shift ({l1}, {l2}) out of range for {self}")
        n1 = tuple(v + (1 if i == l1 else 0) for i, v in enumerate(self.n1))
        n2 = tuple(v + (1 if i == l2 else 0) for i, v in enumerate(self.n2))
        return IndexPair(n1, n2)

    def column_layout(self) -> tuple:
        """Unknown layout (j, p): block j contributes n1[j] columns for the
        coefficients of a_j, lowest power first."""
        return tuple(
            (j, p) for j in range(self.m1 + 1) for p in range(self.n1[j])
        )

    def row_layout(self) -> tuple:
        """Condition layout (k, nu): block k contributes n2[k] rows."""
        return tuple(
            (k, nu) for k in range(self.m2 + 1) for nu in range(self.n2[k])
        )

    def to_dict(self) -> dict:
        return {"n1": list(self.n1), "n2": list(self.n2)}


def decreasing_indices(m1: int, m2: int, max_size: int):
    """All decreasing-class index pairs with |n1| <= max_size, sizes
    ascending, lexicographic within a size.  Components are non-increasing."""

    def partitions(total: int, parts: int, cap: int | None = None):
        if parts == 1:
            if cap is None or total <= cap:
                yield (total,)
            return
        hi = total if cap is None else min(total, cap)
        for first in range(hi, -1, -1):
            for rest in partitions(total - first, parts - 1, first):
                yield (first,) + rest

    out = []
    for size in range(1, max_size + 1):
        firsts = sorted(partitions(size, m1 + 1), reverse=True)
        seconds = sorted(partitions(size - 1, m2 + 1), reverse=True)
        for n1 in firsts:
            for n2 in seconds:
                out.append(IndexPair(n1, n2))
    return out


@dataclass(frozen=True, eq=False)
class NikishinPair:
    """Two Nikishin systems sharing their base measure.

    Unified measure indexing: measure(j) is the first system's generator j
    for j >= 0 and the second system's generator -j for j <= 0 (both at
    j = 0 give the shared base).
    """

    s1: NikishinSystem
    s2: NikishinSystem
    #: Mixed moments, the only store of pair data.
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        b1 = self.s1.generators[0]
        b2 = self.s2.generators[0]
        same = b1 is b2 or (
            b1.spec == b2.spec
            and b1.precision_bits == b2.precision_bits
            and len(b1.nodes) == len(b2.nodes)
        )
        if not same:
            raise MeasureError("the two systems must share their base measure")

    @property
    def m1(self) -> int:
        return self.s1.m

    @property
    def m2(self) -> int:
        return self.s2.m

    @property
    def base(self) -> DiscretizedMeasure:
        return self.s1.generators[0]

    @property
    def precision_bits(self) -> int:
        return self.base.precision_bits

    def measure(self, j: int) -> DiscretizedMeasure:
        if j >= 0:
            return self.s1.generators[j]
        return self.s2.generators[-j]

    def hull(self, j: int):
        return self.measure(j).hull

    def swapped(self) -> "NikishinPair":
        return NikishinPair(s1=self.s2, s2=self.s1)

    def base_density1(self, j: int) -> tuple:
        """shat1_{1,j} on the base support (ones for j = 0)."""
        return self.s1.density(0, j)

    def base_density2(self, k: int) -> tuple:
        """shat2_{1,k} on the base support (ones for k = 0)."""
        return self.s2.density(0, k)

    def mixed_moment(self, j: int, k: int, power: int):
        """Integral of x^power * shat1_{1,j}(x) * shat2_{1,k}(x) dbase(x)."""
        key = (j, k, power)
        if key not in self._cache:
            base = self.base
            d1 = self.base_density1(j)
            d2 = self.base_density2(k)
            with working(base.precision_bits):
                self._cache[key] = mp.fsum(
                    w * a * b * x**power
                    for w, a, b, x in zip(
                        base.signed_weights, d1, d2, base.support_points
                    )
                )
        return self._cache[key]


def assemble_moment_system(pair: NikishinPair, index: IndexPair) -> list:
    """Homogeneous moment matrix of the orthogonality conditions, as a list
    of row lists of mpf: one row per (k, nu) in row_layout, one column per
    (j, p) in column_layout, entry equal to the base integral of
    x^(nu+p) shat1_{1,j} shat2_{1,k}."""
    if index.m1 != pair.m1 or index.m2 != pair.m2:
        raise ValueError(
            f"index shape ({index.m1}, {index.m2}) does not match systems "
            f"({pair.m1}, {pair.m2})"
        )
    cols = index.column_layout()
    return [
        [pair.mixed_moment(j, k, nu + p) for j, p in cols]
        for k, nu in index.row_layout()
    ]


#: Fraction bits kept beyond the working precision in the moment solve.
SOLVE_GUARD_BITS = 64


def _solve_fixed(mat: list, bits: int) -> tuple:
    """Solve mat[:, :-1] x = -mat[:, -1] for the n x (n + 1) moment matrix
    ``mat``; returns (x as mpf, smallest pivot ratio).

    Each column c is read exactly as ints at scale 2^(F - top_c),
    F = bits + SOLVE_GUARD_BITS, top_c its ``column_top``: an exact
    power-of-two equilibration that puts every column's largest entry in
    [2^(F-1), 2^F).  Partial-pivot elimination runs in Python ints, each
    multiplier (a << F) // pivot and each update (f * p) >> F floored
    once; back substitution keeps the fixed-point solution at scale 2^F.
    Column scaling commutes with elimination, so the pivot rows are those
    of the unscaled matrix and the unscaled pivot is exactly
    pivot * 2^(top_c - F); its ratio to the largest entry of mat[:, :-1]
    is tested against ``pivot_threshold(bits)``.  Solution entry c is
    y_c * 2^(top_n - top_c - F), rounded to the working precision.
    """
    n = len(mat)
    frac = bits + SOLVE_GUARD_BITS
    tops = [column_top([row[c] for row in mat]) for c in range(n + 1)]
    shifts = [frac - top for top in tops]
    a = [[to_fixed(v, s) for v, s in zip(row, shifts)] for row in mat]
    for row in a:
        row[n] = -row[n]
    # Each column's largest entry converts exactly, so this is the largest
    # |entry| of mat[:, :-1].
    scale = max(
        to_mp(max(abs(row[c]) for row in a), tops[c] - frac)
        for c in range(n)
    )
    if not scale:
        raise NormalityViolation(
            "moment matrix vanishes at the working precision; rebuild the "
            "measures with more bits"
        )
    floor = pivot_threshold(bits)
    min_ratio = mp.inf
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        piv = a[p][c]
        ratio = to_mp(abs(piv), tops[c] - frac) / scale
        min_ratio = min(min_ratio, ratio)
        if ratio < floor:
            raise NormalityViolation(
                f"pivot ratio {mp.nstr(ratio, 5)} of the moment system is "
                f"below the threshold {mp.nstr(floor, 5)}: the conditioning "
                "of the index outgrew the precision; rebuild the measures "
                "with more bits."
            )
        a[c], a[p] = a[p], a[c]
        prow = a[c]
        for row in a[c + 1 :]:
            if row[c]:
                f = (row[c] << frac) // piv
                for k in range(c + 1, n + 1):
                    row[k] -= (f * prow[k]) >> frac
    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = row[n] << frac
        for c in range(r + 1, n):
            acc -= row[c] * y[c]
        y[r] = acc // row[r]
    return [
        to_mp(v, tops[n] - tops[c] - frac) for c, v in enumerate(y)
    ], min_ratio


@dataclass(eq=False)
class MopSolution:
    """Solved coefficient blocks plus cached form evaluations.

    ``coeffs[j]`` holds the ascending coefficients of a_j (empty when
    n1[j] = 0); the last nonempty block has leading coefficient one.
    Treated as immutable after construction; the caches only memoize.
    """

    pair: NikishinPair
    index: IndexPair
    coeffs: tuple
    precision_bits: int
    pivot_ratio: float
    #: Always False: a pivot below the threshold raises instead.  Kept for
    #: readers of the field, such as the benchmark's tracer.
    used_nullspace: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    def a(self, j: int, z):
        """Polynomial block a_j at z."""
        key = ("block", j)
        if key not in self._cache:
            self._cache[key] = FormKernel(
                [(self.coeffs[j], None)], self.precision_bits
            )
        with working(self.precision_bits):
            return self._cache[key](z)

    def form(self, j: int, z):
        """The form A_j at z, for j = -m2-1, ..., m1.

        Nonnegative j: sum_{k=j}^{m1} a_k(z) shat1_{j+1,k}(z) with the k = j
        term the bare polynomial.  Negative j: iterated Cauchy transform of
        A_0 through the second system's generators.  Evaluated by the
        level's ``FormKernel``.
        """
        kernel = self._form_kernel(j)
        with working(self.precision_bits):
            return kernel(z)

    def form_and_slope(self, j: int, z):
        """``form(j, z)`` and its derivative in z, in one pass of the
        level's ``FormKernel``; the value is the number ``form`` returns."""
        kernel = self._form_kernel(j)
        with working(self.precision_bits):
            return kernel(z, slope=True)

    def _form_kernel(self, j: int) -> FormKernel:
        """The int kernel of A_j: the blocks a_k, k >= j, times the
        transforms shat1_{j+1,k} for j >= 0; for j < 0 the Cauchy sum of
        A_{j+1} against the unified measure j + 1, over its point masses
        with the values ``form_on_support(j + 1)``."""
        m1, m2 = self.index.m1, self.index.m2
        if j > m1 or j < -m2 - 1:
            raise IndexError(f"form index {j} out of range")
        key = ("form", j)
        if key not in self._cache:
            if j >= 0:
                s1 = self.pair.s1
                terms = [(self.coeffs[j], None)] + [
                    (self.coeffs[k], s1.kernel(j + 1, k))
                    for k in range(j + 1, m1 + 1)
                    if self.coeffs[k]
                ]
            else:
                src = self.pair.measure(j + 1)
                vals = self.form_on_support(j + 1)
                with working(self.precision_bits):
                    weights = tuple(
                        w * v for w, v in zip(src.signed_weights, vals)
                    )
                terms = [
                    ((mp.mpf(1),), CauchyKernel(
                        weights, src.support_points, self.precision_bits
                    ))
                ]
            self._cache[key] = FormKernel(terms, self.precision_bits)
        return self._cache[key]

    def _support_store(self, j: int):
        """The values of A_j on the support of the unified measure j, one
        slot per point (None until computed), or the tuple of all of them
        once ``form_on_support`` has read the level whole."""
        store = self._cache.get(("support", j))
        if store is None:
            if j > self.index.m1 or j < -self.index.m2:
                raise IndexError(f"support index {j} out of range")
            n = len(self.pair.measure(j).support_points)
            store = self._cache[("support", j)] = [None] * n
        return store

    def form_on_support(self, j: int) -> tuple:
        """Values of A_j on the support of the unified measure j,
        j = -m2, ..., m1: every point of ``support_value``'s store."""
        store = self._support_store(j)
        if type(store) is not tuple:
            store = self._cache[("support", j)] = tuple(
                self.support_value(j, p) for p in range(len(store))
            )
        return store

    def support_value(self, j: int, p: int):
        """A_j at point p of the support of the unified measure j,
        computed once per point: the one evaluation of the forms on the
        supports.  For j > 0 it is ``form``; for j = 0 the cached densities
        shat1_{1,k} at the base point stand in for the level-0 Cauchy sums;
        for j < 0 it is the level's ``FormKernel``."""
        store = self._support_store(j)
        if store[p] is None:
            x = self.pair.measure(j).support_points[p]
            if j > 0:
                store[p] = self.form(j, x)
            else:
                kernel = self._form_kernel(j)
                with working(self.precision_bits):
                    if j == 0:
                        store[p] = kernel(x, factors=[
                            self.pair.base_density1(k)[p]
                            for k in range(self.index.m1 + 1)
                            if self.coeffs[k]
                        ])
                    else:
                        store[p] = kernel(x)
        return store[p]


def solve_mop(pair: NikishinPair, index: IndexPair) -> MopSolution:
    """Solve the orthogonality conditions for ``index`` and normalize so the
    last nonzero block is monic.

    The pinned leading coefficient moves to the right-hand side, and the
    square system is solved by partial-pivot elimination in Python-int
    fixed point after an exact power-of-two scaling of each column
    (``_solve_fixed``).  ``pivot_ratio`` is the smallest pivot relative to
    the largest entry of the unscaled matrix.  A pivot ratio below
    ``pivot_threshold(bits)``, an all-zero matrix, or a leading coefficient
    of any nonzero block that vanishes at the working scale raises
    NormalityViolation; rebuilding the measures with more bits is the only
    remedy.
    """
    bits = pair.precision_bits
    if not any(index.n1):
        raise ValueError("index has no unknowns")
    mat = assemble_moment_system(pair, index)
    with working(bits):
        # With |n2| = 0 there are no conditions and one unknown, the pin.
        sol, ratio = _solve_fixed(mat, bits) if mat else ([], mp.mpf(1))
        stacked = sol + [mp.mpf(1)]
        blocks = []
        pos = 0
        for j in range(index.m1 + 1):
            width = index.n1[j]
            blocks.append(tuple(stacked[pos : pos + width]))
            pos += width
        scale = max(abs(c) for b in blocks for c in b)
        lead_floor = lead_threshold(bits)
        for j, block in enumerate(blocks):
            if block and abs(block[-1]) <= lead_floor * scale:
                raise NormalityViolation(
                    f"block {j} of {index} has degree below n1[j] - 1 "
                    f"(leading ratio {mp.nstr(abs(block[-1]) / scale, 5)})"
                )
    return MopSolution(
        pair=pair,
        index=index,
        coeffs=tuple(blocks),
        precision_bits=bits,
        pivot_ratio=float(ratio),
    )


@functools.lru_cache(maxsize=None)
def solve_cached(pair: NikishinPair, index: IndexPair) -> MopSolution:
    """Memoized solve, keyed on system identity and index value."""
    return solve_mop(pair, index)


@dataclass(frozen=True)
class ZeroSet:
    """Simple real zeros of one form, ascending, with the predicted count."""

    j: int
    zeros: tuple
    expected: int

    def poly_eval(self, z):
        """Monic polynomial with these zeros at a real or complex z.

        The zeros and z are put on one grid, exactly, so every factor
        z - r is an exact int (0 on a zero).  The running product keeps
        p + FORM_GUARD_BITS significant bits, p the ambient precision:
        each of the n products is floored once, at a relative error below
        2^-(p+guard-1), and the result is rounded once to p bits, so

            |value - Q(z)| <= (2^-p + n 2^-(p+guard-2)) |Q(z)|.

        An exact product would grow to n times the width of a zero, which
        costs more than the mpf product it replaces from about 20 zeros on.
        """
        if not self.zeros:
            return mp.mpf(1)
        roots, exp = self._fixed_zeros
        zs, z_exp = exact_parts(z)
        if z_exp < exp:
            roots = [r << (exp - z_exp) for r in roots]
            exp = z_exp
        zs = [v << (z_exp - exp) for v in zs]
        keep = mp.prec + FORM_GUARD_BITS
        out = exp * len(roots)
        if len(zs) == 1:
            (zr,) = zs
            acc = 1
            for r in roots:
                acc *= zr - r
                cut = acc.bit_length() - keep
                if cut > 0:
                    acc >>= cut
                    out += cut
            return to_mp(acc, out)
        zr, zi = zs
        re, im = 1, 0
        for r in roots:
            dr = zr - r
            re, im = re * dr - im * zi, re * zi + im * dr
            cut = max(abs(re), abs(im)).bit_length() - keep
            if cut > 0:
                re >>= cut
                im >>= cut
                out += cut
        return to_mp((re, im), out)

    @functools.cached_property
    def _fixed_zeros(self) -> tuple:
        return fixed(self.zeros, 0)


SCAN_GRID_FACTOR = 4
SCAN_GRID_CAP = 4096


def _safeguarded_newton(fdf, a, b, fa, fb, rel_tol):
    """Zero of f inside the sign bracket a < b, f(a) f(b) < 0, where
    ``fdf(x)`` returns (f(x), f'(x)).

    Starts from the secant point of the scan values.  Every evaluation
    tightens the bracket.  A Newton step is taken when it lands strictly
    inside the bracket and is at most half the step before last; otherwise
    the bracket is bisected.  The loop stops once a step, Newton or
    bisection, is within ``rel_tol * max(1, |a|, |b|)``.  Newton steps
    that stop halving, as when rounding noise in f swamps the slope, give
    way to bisection, which halves the bracket, so the loop always ends.
    """
    neg, pos = (a, b) if fa < 0 else (b, a)
    x = a - fa * (b - a) / (fb - fa)
    step = step_before_last = b - a
    while True:
        fx, dfx = fdf(x)
        if fx == 0:
            return x
        if fx < 0:
            neg = x
        else:
            pos = x
        a, b = min(neg, pos), max(neg, pos)
        tol = rel_tol * max(mp.mpf(1), abs(a), abs(b))
        if dfx != 0:
            newton = fx / dfx
            # Checked before the bracket test: a step this small may round
            # onto the bracket end it started from.
            if abs(newton) <= tol:
                return x - newton
            if a < x - newton < b and 2 * abs(newton) <= abs(step_before_last):
                step_before_last, step = step, newton
                x = x - newton
                continue
        step_before_last, step = step, (b - a) / 2
        x = a + step
        if step <= tol:
            return x


def _scan_grid(lo, hi, size: int, bits: int) -> list:
    """The Chebyshev points mid + rad cos((2i - 1) pi / (2 size)),
    i = size, ..., 1 (ascending), of the hull [lo, hi].

    One mp.cos gives c = cos(theta), theta = pi / (2 size); the odd
    multiples follow from c_{k+2} = 2 cos(2 theta) c_k - c_{k-2}, with
    c_{-1} = c_1, in ints at frac = bits + FORM_GUARD_BITS fraction bits.
    A unit error in a step grows at most like k units over the remaining
    steps, so every cosine comes within 3 size^2 2^-frac of its value.
    Each point is then mid + rad c exactly in ints, rounded once to the
    ambient precision.
    """
    frac = bits + FORM_GUARD_BITS
    with working(frac + 8):
        c1 = to_fixed(mp.cos(mp.pi / (2 * size)), frac)
    two_c2 = 2 * (((2 * c1 * c1) >> frac) - (1 << frac))
    cosines = [c1]
    prev, cur = c1, c1
    for _ in range(size - 1):
        prev, cur = cur, ((two_c2 * cur) >> frac) - prev
        cosines.append(cur)
    (lo_i, hi_i), exp = fixed((lo, hi), 0)
    mid = (lo_i + hi_i) << frac
    rad = hi_i - lo_i
    out = exp - 1 - frac
    return [to_mp(mid + rad * c, out) for c in reversed(cosines)]


def _merge_sorted(*lists) -> list:
    """The union of ascending lists, ascending, without repeats."""
    out = []
    for x in heapq.merge(*lists):
        if not out or x != out[-1]:
            out.append(x)
    return out


def extract_Q(solution: MopSolution, j: int) -> ZeroSet:
    """Locate the zeros of the form A_j inside the hull of the unified
    measure j by a sign scan.  The scan points are a Chebyshev-distributed
    grid (4x the predicted count, doubled on shortfall up to 4096 points),
    built in ints from one mp.cos (``_scan_grid``), merged with the mass
    points of the measure; the doubled grids are merged with them again.
    A_j is analytic at each mass point of measure j, since its Cauchy sums
    run over measures whose hulls are disjoint from hull(j).  A zero that
    a mass point attracts lies between it and the nearest grid point on
    that side, so the mass point alone brackets it for as long as the sign
    of A_j there is resolved.  Every scan value comes from
    ``MopSolution.form``, that is from the level's ``FormKernel``, and no
    point is evaluated twice: a rescan evaluates only its new points.

    The predicted count is exact, so once the scan finds it every bracket
    holds exactly one zero, and the scan can stop there.  Each sign
    bracket is refined by a safeguarded Newton iteration on
    ``MopSolution.form_and_slope`` (_safeguarded_newton): Newton steps
    that stay inside the bracket and at least halve every second step,
    bisection otherwise, stopping once a step falls within
    ``refine_tolerance(bits) * max(1, |a|, |b|)`` of the bracket [a, b].

    Raises ZeroCountMismatch when the count cannot be realized: that is a
    genuine structural failure, not something to paper over.

    A negative prediction only happens for j >= 0 when every block from j
    on is empty, so the form vanishes identically; that level carries no
    zeros and comes back as an empty set.
    """
    index = solution.index
    expected = index.zero_count(j)
    if expected <= 0:
        return ZeroSet(j=j, zeros=(), expected=0)
    pair = solution.pair
    lo, hi = pair.hull(j)
    bits = solution.precision_bits
    rel_tol = refine_tolerance(bits)
    values = {}

    def f(x):
        if x not in values:
            values[x] = solution.form(j, x)
        return values[x]

    def fdf(x):
        return solution.form_and_slope(j, x)

    with working(bits):
        atoms = [loc for loc, _ in pair.measure(j).atoms]
        grid_size = min(SCAN_GRID_FACTOR * expected, SCAN_GRID_CAP)
        while True:
            xs = _merge_sorted(_scan_grid(lo, hi, grid_size, bits), atoms)
            vals = [f(x) for x in xs]
            zeros = []
            brackets = []
            for i in range(len(xs) - 1):
                if vals[i] == 0:
                    zeros.append(xs[i])
                elif (vals[i] > 0) != (vals[i + 1] > 0) and vals[i + 1] != 0:
                    brackets.append(i)
            if vals[-1] == 0:
                zeros.append(xs[-1])
            found = len(zeros) + len(brackets)
            if found > expected:
                raise ZeroCountMismatch(
                    f"form {j} of {index}: {found} sign changes on a "
                    f"{len(xs)}-point grid, predicted {expected}"
                )
            if found == expected:
                break
            if grid_size >= SCAN_GRID_CAP:
                raise ZeroCountMismatch(
                    f"form {j} of {index}: only {found} sign changes up "
                    f"to a {len(xs)}-point grid, predicted {expected}"
                )
            grid_size = min(2 * grid_size, SCAN_GRID_CAP)
        for i in brackets:
            zeros.append(
                _safeguarded_newton(
                    fdf, xs[i], xs[i + 1], vals[i], vals[i + 1], rel_tol
                )
            )
        zeros.sort()
    return ZeroSet(j=j, zeros=tuple(zeros), expected=expected)


@functools.lru_cache(maxsize=None)
def extract_cached(solution: MopSolution, j: int) -> ZeroSet:
    return extract_Q(solution, j)


@dataclass(eq=False)
class VaryingData:
    """Normalization constants of the rescaled zero polynomials.

    ``K[j]`` is the inverse square root of the weighted L2 mass of
    Q_j * A_j / Q_{j-1} over the unified measure j (with K at m1+1 equal to
    one); ``kappa[j] = K[j] / K[j+1]``; ``epsilon[j]`` is the sign of the
    varying measure rho_j on its interval.  ``epsilon`` comes with the
    data; ``K`` and ``kappa`` are computed on first read, since they need
    A_j on every support point and the ``diagnostics`` kind reads only the
    signs.
    """

    solution: MopSolution = field(repr=False)
    zero_sets: dict = field(repr=False)
    epsilon: dict

    @functools.cached_property
    def K(self) -> dict:
        """Sums |w| |Q_j A_j / Q_{j-1}| over the support of the unified
        measure j, with A_j from ``form_on_support`` and each Q from the
        fixed-point product ``ZeroSet.poly_eval``."""
        sol = self.solution
        index = sol.index
        K = {index.m1 + 1: mp.mpf(1)}
        with working(sol.precision_bits):
            for j in range(index.m1, -index.m2 - 1, -1):
                meas = sol.pair.measure(j)
                vals = sol.form_on_support(j)
                q_here = self.zero_sets[j]
                q_lo = self.zero_sets.get(j - 1)
                mass = mp.mpf(0)
                for w, x, av in zip(
                    meas.signed_weights, meas.support_points, vals
                ):
                    lo = q_lo.poly_eval(x) if q_lo else mp.mpf(1)
                    mass += abs(w) * abs(q_here.poly_eval(x) * av / lo)
                if mass == 0:
                    raise ZeroCountMismatch(
                        f"degenerate varying mass at level {j}"
                    )
                K[j] = 1 / mp.sqrt(mass)
        return K

    @functools.cached_property
    def kappa(self) -> dict:
        K = self.K
        index = self.solution.index
        with working(self.solution.precision_bits):
            return {
                j: K[j] / K[j + 1] for j in range(index.m1, -index.m2 - 1, -1)
            }


def _gap_to(zeros: tuple, x):
    """Distance from x to the nearest of the ascending ``zeros`` (one when
    there are none), from the two zeros that bracket x."""
    if not zeros:
        return mp.mpf(1)
    i = bisect.bisect_left(zeros, x)
    return min(abs(x - r) for r in zeros[max(i - 1, 0) : i + 1])


def _reference_index(zeros: tuple, measure: DiscretizedMeasure) -> int:
    """Index of the support point of ``measure`` farthest from the
    ascending ``zeros`` by ``_gap_to``, the first one on ties.

    The distance grows outward past the outer zeros and falls off both
    sides of each midpoint between consecutive zeros, so among the
    ascending nodes only the first, the last and the two around each
    midpoint can be farthest.  The mass points follow the nodes in
    ``support_points`` and are all candidates.  The midpoints are exact.
    """
    pts = measure.support_points
    nodes = measure.nodes
    last = len(nodes) - 1
    candidates = {0, last, *range(len(nodes), len(pts))}
    for a, b in zip(zeros, zeros[1:]):
        k = bisect.bisect_left(nodes, mp.ldexp(mp.fadd(a, b, exact=True), -1))
        candidates.update((max(k - 1, 0), min(k, last)))
    return max(sorted(candidates), key=lambda i: _gap_to(zeros, pts[i]))


def compute_varying_data(solution: MopSolution, zero_sets: dict) -> VaryingData:
    """Constants K, kappa, epsilon from the extracted zero sets (one
    ZeroSet per j in [-m2, m1]).

    epsilon[j] is read at the support point of the unified measure j
    farthest from the zeros of Q_j (``_reference_index``), from the one
    value of A_j there (``MopSolution.support_value``).  K and kappa are
    computed on first read (``VaryingData.K``).
    """
    index = solution.index
    pair = solution.pair
    epsilon = {}
    with working(solution.precision_bits):
        for j in range(index.m1, -index.m2 - 1, -1):
            meas = pair.measure(j)
            q_here = zero_sets[j]
            q_lo = zero_sets.get(j - 1)
            # sign of rho_j = sign(measure) * sign(A_j / Q_j) * sign(Q_{j-1}),
            # constant on the interval; read it at the support point farthest
            # from the zeros of Q_j.
            ref_pos = _reference_index(q_here.zeros, meas)
            ref = meas.support_points[ref_pos]
            ratio = solution.support_value(j, ref_pos) / q_here.poly_eval(ref)
            lo_val = q_lo.poly_eval(ref) if q_lo else mp.mpf(1)
            epsilon[j] = (
                meas.sign * (1 if ratio > 0 else -1) * (1 if lo_val > 0 else -1)
            )
    return VaryingData(solution=solution, zero_sets=zero_sets, epsilon=epsilon)
