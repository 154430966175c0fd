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

import functools
from dataclasses import dataclass, field

from mpmath import mp

from .measures import (
    CauchyKernel,
    DiscretizedMeasure,
    MeasureError,
    NikishinSystem,
    _to_fixed,
)
from .polys import (
    poly_eval,
    poly_eval_and_slope,
    poly_eval_from_roots,
    poly_from_roots,
)
from .precision import pivot_threshold, refine_tolerance, working


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
    _moment_cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        if key not in self._moment_cache:
            base = self.base
            d1 = self.base_density1(j)
            d2 = self.base_density2(k)
            with working(base.precision_bits):
                self._moment_cache[key] = mp.fsum(
                    w * a * b * x**power
                    for w, a, b, x in zip(
                        base.signed_weights, d1, d2, base.support_points
                    )
                )
        return self._moment_cache[key]


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


def _column_top(column) -> int:
    """Exponent e with |v| < 2^e for every v in ``column``, read from the
    largest entry's mantissa (0 for an all-zero column)."""
    return max(
        (v._mpf_[2] + v._mpf_[3] for v in column if v._mpf_[1]), default=0
    )


def _solve_fixed(mat: list, bits: int) -> tuple:
    """Solve mat[:, :-1] x = -mat[:, -1] for the n x (n + 1) moment matrix
    ``mat``; returns (x as mpf, smallest pivot ratio).

    Each column c is read exactly as ints at scale 2^(F - top_c),
    F = bits + SOLVE_GUARD_BITS, top_c its ``_column_top``: an exact
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
    tops = [_column_top([row[c] for row in mat]) for c in range(n + 1)]
    shifts = [frac - top for top in tops]
    a = [[_to_fixed(v, s) for v, s in zip(row, shifts)] for row in mat]
    for row in a:
        row[n] = -row[n]
    # Each column's largest entry converts exactly, so this is the largest
    # |entry| of mat[:, :-1].
    scale = max(
        mp.mpf((max(abs(row[c]) for row in a), tops[c] - frac))
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
        ratio = mp.mpf((abs(piv), tops[c] - frac)) / scale
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
        mp.mpf((v, tops[n] - tops[c] - frac)) for c, v in enumerate(y)
    ], min_ratio


@dataclass(eq=False)
class MopSolution:
    """Solved coefficient blocks plus cached form evaluations.

    ``coeffs[j]`` holds the ascending coefficients of a_j (empty when
    n1[j] = 0); ``monic_block`` is the j whose leading coefficient is one.
    Treated as immutable after construction; the caches only memoize.
    """

    pair: NikishinPair
    index: IndexPair
    coeffs: tuple
    monic_block: int
    precision_bits: int
    pivot_ratio: float
    #: Always False: a pivot below the threshold raises instead.  Kept for
    #: readers of the field, such as the benchmark's tracer.
    used_nullspace: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    def a(self, j: int, z):
        """Polynomial block a_j at z."""
        return poly_eval(self.coeffs[j], z)

    def form(self, j: int, z):
        """The form A_j at z, for j = -m2-1, ..., m1.

        Nonnegative j: sum_{k=j}^{m1} a_k(z) shat1_{j+1,k}(z) with the k = j
        term the bare polynomial.  Negative j: iterated Cauchy transform of
        A_0 through the second system's generators.
        """
        m1, m2 = self.index.m1, self.index.m2
        if j > m1 or j < -m2 - 1:
            raise IndexError(f"form index {j} out of range")
        with working(self.precision_bits):
            if j >= 0:
                acc = self.a(j, z) if self.index.n1[j] else mp.mpf(0)
                for k in range(j + 1, m1 + 1):
                    if self.index.n1[k]:
                        acc += self.a(k, z) * self.pair.s1.s_hat(j + 1, k, z)
                return acc
            return self._chain_kernel(-j - 1).value(z)

    def form_and_slope(self, j: int, z):
        """``form(j, z)`` and its derivative in z, in one pass.

        Polynomial blocks carry their derivative through Horner, each
        chained transform its slope -sum w / (z - x)^2, and a negative level
        sums -sum w v / (z - x)^2 over the cached products w v.  The value
        is computed exactly as ``form`` computes it.
        """
        m1, m2 = self.index.m1, self.index.m2
        if j > m1 or j < -m2 - 1:
            raise IndexError(f"form index {j} out of range")
        with working(self.precision_bits):
            if j < 0:
                return self._chain_kernel(-j - 1).value_and_slope(z)
            val, slope = poly_eval_and_slope(self.coeffs[j], z)
            for k in range(j + 1, m1 + 1):
                if self.index.n1[k]:
                    p, dp = poly_eval_and_slope(self.coeffs[k], z)
                    s, ds = self.pair.s1.s_hat_and_slope(j + 1, k, z)
                    val += p * s
                    slope += dp * s + p * ds
            return val, slope

    def _chain_kernel(self, t: int) -> CauchyKernel:
        """Cauchy sum over the point masses w v of the second system's
        generator t times the values v of A_{-t} on its support."""
        key = ("kernel", t)
        if key not in self._cache:
            src = self.pair.s2.generators[t]
            chain = self._neg_chain(t)
            with working(self.precision_bits):
                self._cache[key] = CauchyKernel(
                    tuple(w * v for w, v in zip(src.signed_weights, chain)),
                    src.support_points,
                    self.precision_bits,
                )
        return self._cache[key]

    def _neg_chain(self, t: int) -> tuple:
        """Values of A_{-t} on the support of the second system's generator
        t (A_0 on the base for t = 0)."""
        key = ("chain", t)
        if key in self._cache:
            return self._cache[key]
        with working(self.precision_bits):
            if t == 0:
                base = self.pair.base
                vals = []
                for p, x in enumerate(base.support_points):
                    acc = mp.mpf(0)
                    for k in range(self.index.m1 + 1):
                        if self.index.n1[k]:
                            acc += self.a(k, x) * self.pair.base_density1(k)[p]
                    vals.append(acc)
            else:
                kernel = self._chain_kernel(t - 1)
                dst = self.pair.s2.generators[t]
                vals = [kernel.value(y) for y in dst.support_points]
        self._cache[key] = tuple(vals)
        return self._cache[key]

    def form_on_support(self, j: int) -> tuple:
        """Values of A_j on the support of the unified measure j,
        j = -m2, ..., m1."""
        if j > self.index.m1 or j < -self.index.m2:
            raise IndexError(f"support index {j} out of range")
        key = ("support", j)
        if key in self._cache:
            return self._cache[key]
        if j <= 0:
            vals = self._neg_chain(-j)
        else:
            meas = self.pair.s1.generators[j]
            with working(self.precision_bits):
                vals = tuple(self.form(j, x) for x in meas.support_points)
        self._cache[key] = tuple(vals)
        return self._cache[key]


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
        monic_block = max(j for j in range(index.m1 + 1) if index.n1[j])
        scale = max(abs(c) for b in blocks for c in b)
        lead_floor = mp.mpf(10) ** (-0.6 * bits * mp.log(2) / mp.log(10))
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
        monic_block=monic_block,
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
        """Monic polynomial with these zeros, evaluated in product form."""
        return poly_eval_from_roots(self.zeros, z)

    def poly_coeffs(self) -> tuple:
        return poly_from_roots(self.zeros)


SCAN_GRID_FACTOR = 16
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


def _atom_scan_points(measure, lo, hi, rel_tol):
    """Geometric ladders of scan points closing in on each mass point.

    Zeros are attracted to atoms at a geometric rate in the index size,
    so past a modest size the nearest zero falls between consecutive
    points of any fixed grid.  Decade-spaced offsets down to the
    refinement tolerance keep one scan point on each side of the zero
    no matter how close it has crept.
    """
    pts = []
    rad = (hi - lo) / 2
    decades = int(mp.ceil(-mp.log10(rel_tol))) + 2
    for loc, _ in measure.atoms:
        step = rad
        for _ in range(decades):
            step = step / 10
            for x in (loc - step, loc + step):
                if lo < x < hi:
                    pts.append(x)
    return pts


def extract_Q(solution: MopSolution, j: int) -> ZeroSet:
    """Locate the zeros of the form A_j inside the hull of the unified
    measure j by a sign scan on a Chebyshev-distributed grid (16x the
    predicted count, doubled on shortfall up to 4096 points).  When the
    measure carries mass points the grid is topped up with ladders from
    _atom_scan_points.

    Each sign bracket is refined by a safeguarded Newton iteration on
    ``MopSolution.form_and_slope`` (_safeguarded_newton): Newton steps that
    stay inside the bracket and at least halve every second step, bisection
    otherwise, stopping once a step falls within
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
    lo, hi = solution.pair.hull(j)
    bits = solution.precision_bits
    rel_tol = refine_tolerance(bits)

    def f(x):
        return solution.form(j, x)

    def fdf(x):
        return solution.form_and_slope(j, x)

    with working(bits):
        mid = (lo + hi) / 2
        rad = (hi - lo) / 2
        ladder = _atom_scan_points(solution.pair.measure(j), lo, hi, rel_tol)
        grid_size = min(SCAN_GRID_FACTOR * expected, SCAN_GRID_CAP)
        while True:
            xs = [
                mid + rad * mp.cos(mp.pi * (2 * i - 1) / (2 * grid_size))
                for i in range(grid_size, 0, -1)
            ]
            if ladder:
                xs = sorted(set(xs) | set(ladder))
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
                    f"form {j} of {index}: only {found} sign changes up to a "
                    f"{len(xs)}-point grid, predicted {expected}"
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
    varying measure rho_j on its interval.
    """

    solution: MopSolution
    zero_sets: dict
    K: dict
    kappa: dict
    epsilon: dict


def compute_varying_data(solution: MopSolution, zero_sets: dict) -> VaryingData:
    """Constants K, kappa, epsilon from the extracted zero sets (one
    ZeroSet per j in [-m2, m1])."""
    index = solution.index
    pair = solution.pair
    bits = solution.precision_bits
    K = {index.m1 + 1: mp.mpf(1)}
    epsilon = {}
    with working(bits):
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
        for j in range(index.m1, -index.m2 - 1, -1):
            # sign of rho_j = sign(measure) * sign(A_j / Q_j) * sign(Q_{j-1}),
            # constant on the interval; read it at the support point farthest
            # from the zeros of Q_j.
            meas = pair.measure(j)
            q_here = zero_sets[j]
            q_lo = zero_sets.get(j - 1)
            pts = meas.support_points
            ref_pos = max(
                range(len(pts)),
                key=lambda i: min(
                    (abs(pts[i] - r) for r in q_here.zeros), default=mp.mpf(1)
                ),
            )
            ref = pts[ref_pos]
            av = solution.form_on_support(j)[ref_pos]
            ratio = av / q_here.poly_eval(ref)
            lo_val = q_lo.poly_eval(ref) if q_lo else mp.mpf(1)
            sgn = meas.sign * (1 if ratio > 0 else -1) * (1 if lo_val > 0 else -1)
            epsilon[j] = sgn
        kappa = {
            j: K[j] / K[j + 1] for j in range(index.m1, -index.m2 - 1, -1)
        }
    return VaryingData(
        solution=solution, zero_sets=zero_sets, K=K, kappa=kappa, epsilon=epsilon
    )
