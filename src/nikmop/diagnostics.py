"""Structural checks on solved systems: zero placement, interlacing of
consecutive solutions, and the interval-orientation sign tables that
predict how the varying-measure signs react to index shifts."""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .measures import DiscretizedMeasure
from .mop import MopSolution, extract_cached, solve_cached
from .precision import refine_tolerance, working


class InterlacingIndeterminate(RuntimeError):
    """Two zeros coincide within the refinement tolerance, so alternation
    cannot be decided at this precision."""


def check_interlacing(zs1, zs2, tie_tol=0) -> bool:
    """True iff the merged sequence of the two sorted zero lists strictly
    alternates between sources.

    Lists must be strictly increasing and their lengths may differ by at
    most one.  Any pair of zeros closer than ``tie_tol`` raises
    InterlacingIndeterminate: coincident zeros are a precision failure,
    not an interlacing verdict.
    """
    for zs in (zs1, zs2):
        for a, b in zip(zs, zs[1:]):
            if not a < b:
                raise ValueError("zero list is not strictly increasing")
    if abs(len(zs1) - len(zs2)) > 1:
        raise ValueError(
            "interlacing needs lengths differing by at most one, got "
            f"{len(zs1)} and {len(zs2)}"
        )
    merged = sorted(
        [(x, 0) for x in zs1] + [(x, 1) for x in zs2], key=lambda t: t[0]
    )
    if tie_tol:
        for (a, sa), (b, sb) in zip(merged, merged[1:]):
            if sa != sb and b - a <= tie_tol:
                raise InterlacingIndeterminate(
                    f"zeros {mp.nstr(a, 10)} and {mp.nstr(b, 10)} coincide "
                    "within tolerance"
                )
    for (_, sa), (_, sb) in zip(merged, merged[1:]):
        if sa == sb:
            return False
    return True


def zero_separation(pair, j: int, bits: int):
    """Distance at or below which two zeros at level j count as one: ten
    refinement tolerances at the scale of hull(j)."""
    lo, hi = pair.hull(j)
    with working(bits):
        return 10 * refine_tolerance(bits) * max(1, abs(lo), abs(hi))


def support_gaps(measure: DiscretizedMeasure) -> tuple:
    """Open components of hull(measure) minus its support, as (lo, hi)
    pairs.  The support is the weight interval together with any mass
    points; gaps only arise from atoms placed off the interval."""
    lo, hi = measure.interval
    pieces = [(lo, hi)]
    for loc, _ in measure.atoms:
        if not lo <= loc <= hi:
            pieces.append((loc, loc))
    pieces.sort()
    gaps = []
    right = pieces[0][1]
    for a, b in pieces[1:]:
        if a > right:
            gaps.append((right, a))
        right = max(right, b)
    return tuple(gaps)


@dataclass(frozen=True)
class ZeroCountReport:
    """Per-level zero bookkeeping for one solution.

    ``counts`` maps each level j to (expected, found).  The boolean
    fields aggregate over all levels: zeros strictly inside the hull,
    pairwise separation above the tie tolerance, and at most one zero
    in each gap of the support.
    """

    counts: dict
    interior_ok: bool
    simple_ok: bool
    gap_ok: bool

    @property
    def passed(self) -> bool:
        expected_match = all(e == f for e, f in self.counts.values())
        return (
            expected_match and self.interior_ok and self.simple_ok and self.gap_ok
        )


def check_zero_counts(solution: MopSolution, zero_sets: dict) -> ZeroCountReport:
    """Verify count, interiority, simplicity, and the one-zero-per-gap
    rule for every extracted level of a solution.

    ``zero_sets`` maps j in [-m2, m1] to the ZeroSet at that level.  The
    level -m2-1 carries no zeros by definition and is recorded with
    expected = found = 0.
    """
    index = solution.index
    pair = solution.pair
    bits = solution.precision_bits
    counts = {-index.m2 - 1: (0, 0)}
    interior_ok = True
    simple_ok = True
    gap_ok = True
    with working(bits):
        for j in range(-index.m2, index.m1 + 1):
            zs = zero_sets[j]
            # A level whose blocks are all empty holds an identically zero
            # form; the count statement is vacuous there.
            counts[j] = (max(index.zero_count(j), 0), len(zs.zeros))
            lo, hi = pair.hull(j)
            separation = zero_separation(pair, j, bits)
            for r in zs.zeros:
                if not lo < r < hi:
                    interior_ok = False
            for a, b in zip(zs.zeros, zs.zeros[1:]):
                if b - a <= separation:
                    simple_ok = False
            for glo, ghi in support_gaps(pair.measure(j)):
                inside = sum(1 for r in zs.zeros if glo < r < ghi)
                if inside > 1:
                    gap_ok = False
    return ZeroCountReport(
        counts=counts,
        interior_ok=interior_ok,
        simple_ok=simple_ok,
        gap_ok=gap_ok,
    )


def sign_configuration(pair) -> dict:
    """Orientation signs of consecutive supports in the unified chain.

    Returns {j: +1 or -1} for j in [-m2, m1-1]: +1 when hull(j) lies
    entirely to the left of hull(j+1), -1 when to the right.  A valid
    chain has disjoint consecutive hulls, so one of the two holds.
    """
    out = {}
    for j in range(-pair.m2, pair.m1):
        lo0, hi0 = pair.hull(j)
        lo1, hi1 = pair.hull(j + 1)
        if hi0 < lo1:
            out[j] = 1
        elif hi1 < lo0:
            out[j] = -1
        else:
            raise ValueError(f"hulls at levels {j} and {j + 1} overlap")
    return out


def _orient(delta: dict, k: int) -> int:
    try:
        return delta[k]
    except KeyError:
        raise ValueError(f"orientation sign asked outside the chain: {k}")


def shift_sign_factor(delta: dict, l1: int, l2: int, j: int) -> int:
    """Single-level factor by which the varying-measure sign at level j
    reacts to the index shift (l1; l2), as a function of the interval
    orientations.  Two regimes: a nonzero shift, whose middle range
    -l2+1 <= j <= l1-1 is empty when l1 + l2 = 1, and the zero shift."""
    if l1 + l2 >= 1:
        if j >= l1 + 2:
            return 1
        if j in (l1, l1 + 1):
            return _orient(delta, j - 1)
        if -l2 + 1 <= j <= l1 - 1:
            return -_orient(delta, j - 1) * _orient(delta, j)
        if j in (-l2 - 1, -l2):
            return -_orient(delta, j)
        return 1
    if j == 1:
        return _orient(delta, 0)
    if j == -1:
        return -_orient(delta, -1)
    return 1


def expected_epsilon_ratio(delta: dict, l1: int, l2: int, j: int, m1: int) -> int:
    """Predicted ratio of varying-measure signs at level j between the
    shifted index and the base index: the product of shift_sign_factor
    over levels j..m1.  Depends only on the interval layout and the
    shift, never on the index itself."""
    prod = 1
    for k in range(j, m1 + 1):
        prod *= shift_sign_factor(delta, l1, l2, k)
    return prod


def orthogonality_residuals(solution: MopSolution, zero_sets: dict) -> dict:
    """Worst relative residuals of the three orthogonality families.

    ``first_side``: moments of A_j against generator j over Q_{j-1},
    j = 1..m1, powers up to the tail sum minus two.  ``second_side``:
    moments of A_{-j} against generator j of the second chain over
    Q_{-j-1}, j = 0..m2, powers up to the tail sum minus one.
    ``chained``: moments of A_{-j} against every chained measure
    starting at j on the second side, powers below the block size (at
    j = 0 these are the defining relations of the solution).

    Each residual is divided by the sum of absolute contributions, so
    exact cancellation shows up at the working-precision floor
    regardless of the scale of the form.  Levels whose form vanishes
    identically are skipped.
    """
    index = solution.index
    pair = solution.pair
    worst = {"first_side": mp.mpf(0), "second_side": mp.mpf(0), "chained": mp.mpf(0)}

    def bump(key, terms, xs, powers):
        for nu in range(powers):
            num = mp.mpf(0)
            den = mp.mpf(0)
            for t, x in zip(terms, xs):
                c = t * x**nu
                num += c
                den += abs(c)
            if den > 0:
                worst[key] = max(worst[key], abs(num) / den)

    with working(solution.precision_bits):
        for j in range(1, index.m1 + 1):
            if index.tail_sum1(j) == 0:
                continue
            meas = pair.measure(j)
            avals = solution.form_on_support(j)
            q_lo = zero_sets[j - 1]
            terms = [
                w * av / q_lo.poly_eval(x)
                for w, x, av in zip(meas.signed_weights, meas.support_points, avals)
            ]
            bump("first_side", terms, meas.support_points, index.tail_sum1(j) - 1)
        for j in range(index.m2 + 1):
            meas = pair.measure(-j)
            avals = solution.form_on_support(-j)
            q_lo = zero_sets.get(-j - 1)
            terms = [
                w * av / (q_lo.poly_eval(x) if q_lo else mp.mpf(1))
                for w, x, av in zip(meas.signed_weights, meas.support_points, avals)
            ]
            bump("second_side", terms, meas.support_points, index.tail_sum2(j))
            for k in range(j, index.m2 + 1):
                terms = [w * av for w, av in zip(pair.s2.s_weights(j, k), avals)]
                bump("chained", terms, meas.support_points, index.n2[k])
    return worst


def form_integral_residual(solution: MopSolution, zero_sets: dict, j: int, z):
    """Relative mismatch of the integral representation of A_j / Q_j.

    Both sides of the chain satisfy the same statement over the unified
    level index: A_j(z)/Q_j(z) equals the Cauchy integral of
    A_{j+1}/Q_j against generator j+1, for j from -m2-1 to m1-1 (Q at
    the bottom level is identically one).  The point z must lie off the
    hull of generator j+1 and off the zeros of Q_j.
    """
    index = solution.index
    if not -index.m2 - 1 <= j <= index.m1 - 1:
        raise IndexError(f"no integral representation at level {j}")
    if j >= 0 and index.tail_sum1(j + 1) == 0:
        raise ValueError(f"form at level {j + 1} vanishes identically")
    pair = solution.pair
    meas = pair.measure(j + 1)
    q_here = zero_sets.get(j)
    with working(solution.precision_bits):
        qz = q_here.poly_eval(z) if q_here else mp.mpf(1)
        lhs = solution.form(j, z) / qz
        rhs = mp.mpf(0)
        avals = solution.form_on_support(j + 1)
        for w, x, av in zip(meas.signed_weights, meas.support_points, avals):
            qx = q_here.poly_eval(x) if q_here else mp.mpf(1)
            rhs += w * av / (qx * (z - x))
        scale = max(abs(lhs), abs(rhs))
        if scale == 0:
            return mp.mpf(0)
        return abs(lhs - rhs) / scale


def mass_point_attraction(pair, indices, level: int) -> list:
    """Distance from each atom-bearing support point to the nearest zero
    at the given level, for a growing sequence of indices.

    The generator at ``level`` must carry at least one mass point.  The
    returned list has one entry per index: the distance from the atom
    (the first one, if several) to the nearest extracted zero.  Zeros
    accumulate on every support point, so the distances should trend to
    zero along a ray of indices.
    """
    meas = pair.measure(level)
    if not meas.atoms:
        raise ValueError(f"generator at level {level} has no mass points")
    loc = meas.atoms[0][0]
    out = []
    for index in indices:
        sol = solve_cached(pair, index)
        zs = extract_cached(sol, level)
        with working(sol.precision_bits):
            out.append(min(abs(r - loc) for r in zs.zeros))
    return out
