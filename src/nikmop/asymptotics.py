"""Staircase index rays and the measurement harnesses for nth-root and
ratio limits.

Rays live on the canonical staircase: starting from a balanced base the
index is bumped one component at a time, cycling through both sides, so
every component ratio tends to the equal-ratio vector and consecutive
samples realize each one-step shift of the period exactly once.  All
measurements are recorded as ConvergenceRecord values; trend assertions
belong to the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .diagnostics import expected_epsilon_ratio, sign_configuration
from .mop import (
    IndexPair,
    compute_varying_data,
    extract_cached,
    solve_cached,
)
from .precision import working
from .reporting import ConvergenceRecord


def staircase_component(m: int, r: int) -> tuple:
    """Component vector after r one-step bumps cycling through m+1
    slots: the first s slots hold k+1 and the rest k, r = k(m+1)+s."""
    if r < 0:
        raise ValueError("negative staircase position")
    k, s = divmod(r, m + 1)
    return (k + 1,) * s + (k,) * (m + 1 - s)


def period(m1: int, m2: int) -> int:
    return math.lcm(m1 + 1, m2 + 1)


def staircase_shift(m1: int, m2: int, r: int) -> tuple:
    """The shift pair realized by the step from position r to r+1."""
    return (r % (m1 + 1), r % (m2 + 1))


def balanced_base(m1: int, m2: int, size1: int) -> IndexPair:
    """Smallest-spread decreasing index with |n1| = size1: equal
    components on the first side, a near-equal split of size1 - 1 on
    the second."""
    if size1 % (m1 + 1):
        raise ValueError(
            f"size {size1} is not a multiple of {m1 + 1}; the first side "
            "cannot be balanced"
        )
    c = size1 // (m1 + 1)
    q, rem = divmod(size1 - 1, m2 + 1)
    n2 = (q + 1,) * rem + (q,) * (m2 + 1 - rem)
    return IndexPair((c,) * (m1 + 1), n2)


@dataclass(frozen=True)
class IndexRay:
    """Staircase ray: position r holds base + the r-th staircase bump on
    both sides.  Sampling at multiples of the period keeps the ray
    inside the equal-ratio class with bounded component spread."""

    base: IndexPair
    m1: int
    m2: int

    def at(self, r: int) -> IndexPair:
        q1 = staircase_component(self.m1, r)
        q2 = staircase_component(self.m2, r)
        return IndexPair(
            tuple(b + q for b, q in zip(self.base.n1, q1)),
            tuple(b + q for b, q in zip(self.base.n2, q2)),
        )

    def pair_at(self, r: int) -> tuple:
        """(index, shifted index, shift) for the step r -> r+1."""
        return self.at(r), self.at(r + 1), staircase_shift(self.m1, self.m2, r)


def equal_ratio_ray(m1: int, m2: int, start_size: int = None) -> IndexRay:
    """Ray from the balanced base; default base size is one period."""
    if start_size is None:
        start_size = period(m1, m2)
    return IndexRay(base=balanced_base(m1, m2, start_size), m1=m1, m2=m2)


def equal_ratio_vectors(m1: int, m2: int) -> tuple:
    return (
        tuple(1.0 / (m1 + 1) for _ in range(m1 + 1)),
        tuple(1.0 / (m2 + 1) for _ in range(m2 + 1)),
    )


def _ray_pairs(ray: IndexRay, start: int, stride: int, steps: int):
    """(at(r), at(r + stride)) for r = start + s * period, s < steps."""
    m = period(ray.m1, ray.m2)
    return ((ray.at(r), ray.at(r + stride)) for r in range(start, start + steps * m, m))


def _record(label, points, samples, bits, value, targets=None):
    """The sample loop of the record harnesses: ``samples`` yields
    (sample size, state), and ``value(state, z)`` is recorded at every
    point at working precision ``bits``, with its absolute error when
    ``targets`` are given."""
    sizes, values = [], [[] for _ in points]
    for size, state in samples:
        sizes.append(size)
        with working(bits):
            for row, z in zip(values, points):
                row.append(value(state, z))
    return ConvergenceRecord(
        label=label,
        points=tuple(points),
        sample_sizes=tuple(sizes),
        values=tuple(map(tuple, values)),
        targets=None if targets is None else tuple(targets),
        errors=None if targets is None else tuple(
            tuple(abs(v - t) for v in row) for row, t in zip(values, targets)
        ),
    )


def nth_root_harness(
    pair, ray: IndexRay, j: int, points, equilibrium, samples
) -> ConvergenceRecord:
    """Record |form_j|^(1/|n1|) against the equilibrium prediction at
    the given points, along full-period ray samples.

    ``samples`` lists staircase positions (multiples of the period keep
    the shift pattern aligned).  Points must avoid the two intervals
    adjacent to level j.
    """
    return _record(
        f"nth-root level {j}",
        points,
        ((i.size, solve_cached(pair, i)) for i in map(ray.at, samples)),
        pair.precision_bits,
        lambda sol, z: float(
            abs(sol.form(j, mp.mpmathify(z))) ** (mp.mpf(1) / sol.index.size)
        ),
        targets=[equilibrium.eval_G(j, complex(z)) for z in points],
    )


def ratio_harness(
    pair, ray: IndexRay, shift_position: int, j: int, points, steps: int
) -> ConvergenceRecord:
    """Successive ratios of the monic zero polynomials for a fixed shift
    along the ray: sample s compares positions shift_position + s*m and
    its one-step successor, so every sample realizes the same shift pair.

    Targets are unknown (Riemann-surface data); the record carries the
    raw ratio values for stabilization metrics.  Form ratios are recorded
    by ``periodic_product_harness`` and ``telescoping_check``.
    """

    def ratio(zero_sets, z):
        zv = mp.mpmathify(z)
        den = zero_sets[0].poly_eval(zv)
        if den == 0:
            raise ZeroDivisionError(
                f"test point {z} hits a zero of the level-{j} "
                "polynomial; move the point"
            )
        return complex(zero_sets[1].poly_eval(zv) / den)

    samples = (
        (lo.size, [extract_cached(solve_cached(pair, i), j) for i in (lo, hi)])
        for lo, hi in _ray_pairs(ray, shift_position, 1, steps)
    )
    return _record(
        f"ratio level {j} shift at {shift_position} (zero_poly)",
        points, samples, pair.precision_bits, ratio,
    )


def periodic_product_harness(
    pair, ray: IndexRay, start: int, j: int, points, steps: int
) -> ConvergenceRecord:
    """Full-period form ratios along the ray.  Together with
    telescoping_check this covers the periodic structure: the identity
    is exact per sample, and the recorded full-period ratios stabilize
    as the ray deepens."""

    def ratio(sols, z):
        zv = mp.mpmathify(z)
        return complex(sols[1].form(j, zv) / sols[0].form(j, zv))

    samples = (
        (lo.size, [solve_cached(pair, i) for i in (lo, hi)])
        for lo, hi in _ray_pairs(ray, start, period(ray.m1, ray.m2), steps)
    )
    return _record(
        f"full-period form ratio level {j}",
        points, samples, pair.precision_bits, ratio,
    )


def kappa_ratio_harness(
    pair, ray: IndexRay, shift_position: int, j: int, steps: int
) -> ConvergenceRecord:
    """Successive ratios of the orthonormalizing constants for a fixed
    shift; their limit is the inverse square root of the
    boundary-product constant at level j (2 against 1/4 in the
    single-measure case)."""
    samples = (
        (lo.size, [varying_cached(pair, i) for i in (lo, hi)])
        for lo, hi in _ray_pairs(ray, shift_position, 1, steps)
    )
    return _record(
        f"kappa ratio level {j} shift at {shift_position}",
        ("kappa",), samples, pair.precision_bits,
        lambda vds, _: float(vds[1].kappa[j] / vds[0].kappa[j]),
    )


def varying_cached(pair, index: IndexPair):
    """Varying data of ``index``, memoized in its cached solution's
    ``_cache``: the one store of K, kappa and epsilon."""
    sol = solve_cached(pair, index)
    if "varying" not in sol._cache:
        zero_sets = {
            j: extract_cached(sol, j)
            for j in range(-index.m2, index.m1 + 1)
        }
        sol._cache["varying"] = compute_varying_data(sol, zero_sets)
    return sol._cache["varying"]


def epsilon_ratio_check(pair, ray: IndexRay, positions, j: int) -> list:
    """Measured against predicted varying-measure sign ratios for the
    staircase steps at the given positions.  Returns one dict per step;
    'match' must be True everywhere."""
    delta = sign_configuration(pair)
    out = []
    for r in positions:
        lo, hi, (l1, l2) = ray.pair_at(r)
        vd_lo = varying_cached(pair, lo)
        vd_hi = varying_cached(pair, hi)
        got = vd_hi.epsilon[j] * vd_lo.epsilon[j]
        want = expected_epsilon_ratio(delta, l1, l2, j, ray.m1)
        out.append(
            {
                "position": r,
                "shift": (l1, l2),
                "measured": got,
                "predicted": want,
                "match": got == want,
            }
        )
    return out


def telescoping_check(pair, ray: IndexRay, start: int, j: int, points):
    """Full-period form ratio versus the product of its one-step
    factors: an exact algebraic identity that exercises the harness
    plumbing end to end.  Returns the worst relative deviation."""
    m = period(ray.m1, ray.m2)
    bits = pair.precision_bits
    sol_first = solve_cached(pair, ray.at(start))
    sol_last = solve_cached(pair, ray.at(start + m))
    worst = mp.mpf(0)
    with working(bits):
        for z in points:
            zv = mp.mpmathify(z)
            full = sol_last.form(j, zv) / sol_first.form(j, zv)
            prod = mp.mpf(1)
            for r in range(start, start + m):
                a = solve_cached(pair, ray.at(r))
                b = solve_cached(pair, ray.at(r + 1))
                prod *= b.form(j, zv) / a.form(j, zv)
            worst = max(worst, abs(full - prod) / abs(full))
    return worst


def _gap_spacing(zeros, x):
    """Distance scale of the zero set around x: the width of the gap
    containing x, or the nearest spacing at the edges."""
    below = [r for r in zeros if r <= x]
    above = [r for r in zeros if r > x]
    if below and above:
        return above[0] - below[-1]
    gaps = [b - a for a, b in zip(zeros, zeros[1:])]
    return min(gaps) if gaps else mp.mpf(1)


HEIGHT_MULTIPLIERS = (1.5, 2.25, 3.0, 4.0, 5.0)

#: Points of the boundary-product grid, and the fraction of the interval
#: left out at each end.
BOUNDARY_GRID_POINTS = 9
BOUNDARY_GRID_TRIM = 0.2


def boundary_modulus(zs_num, zs_den, x, bits):
    """Modulus of the zero-polynomial ratio on the cut, by least-squares
    quadratic extrapolation of log|ratio| at heights proportional to the
    local zero spacing down to height zero.

    Directly on the cut the ratio oscillates as zeros sweep past; a few
    spacings above, the oscillation is damped while the harmonic drift
    away from the boundary value is smooth in the height, so a low-order
    fit recovers the limit."""
    with working(bits):
        spacing = _gap_spacing(zs_den.zeros, x)
        hs = [spacing * mp.mpf(c) for c in HEIGHT_MULTIPLIERS]
        logs = []
        for h in hs:
            z = mp.mpc(x, h)
            logs.append(mp.log(abs(zs_num.poly_eval(z) / zs_den.poly_eval(z))))
        cols = [[mp.mpf(1), h, h * h] for h in hs]
        ata = [
            [mp.fsum(r[i] * r[k] for r in cols) for k in range(3)]
            for i in range(3)
        ]
        atb = [
            mp.fsum(r[i] * v for r, v in zip(cols, logs)) for i in range(3)
        ]
        coeffs = mp.lu_solve(mp.matrix(ata), mp.matrix(atb))
        return mp.e ** coeffs[0]


def boundary_product_harness(
    pair, ray: IndexRay, shift_position: int, j: int, steps: int
) -> dict:
    """Constancy of |F_j|^2 / |F_{j-1} F_{j+1}| across the interior of
    the level-j interval, measured from the last ray sample.

    The self factor needs the boundary modulus (both polynomials
    oscillate on their own interval); the neighbor factors converge
    pointwise at real points off their supports and are evaluated
    directly.  Returns the grid values and their coefficient of
    variation; out-of-chain neighbors contribute factor one.
    """
    m = period(ray.m1, ray.m2)
    r = shift_position + (steps - 1) * m
    lo, hi, _ = ray.pair_at(r)
    sol_lo = solve_cached(pair, lo)
    sol_hi = solve_cached(pair, hi)
    bits = pair.precision_bits

    a, b = pair.hull(j)
    with working(bits):
        width = b - a
        trim = BOUNDARY_GRID_TRIM
        xs = [
            a + width * (trim + (1 - 2 * trim) * i / (BOUNDARY_GRID_POINTS - 1))
            for i in range(BOUNDARY_GRID_POINTS)
        ]
        vals = []
        for x in xs:
            self_mod = boundary_modulus(
                extract_cached(sol_hi, j), extract_cached(sol_lo, j), x, bits
            )
            prod = self_mod**2
            for nb in (j - 1, j + 1):
                if -pair.m2 <= nb <= pair.m1:
                    num = extract_cached(sol_hi, nb).poly_eval(x)
                    den = extract_cached(sol_lo, nb).poly_eval(x)
                    prod /= abs(num / den)
            vals.append(prod)
        mean = mp.fsum(vals) / len(vals)
        var = mp.fsum((v - mean) ** 2 for v in vals) / len(vals)
        cov = float(mp.sqrt(var) / abs(mean))
    return {
        "grid": [float(x) for x in xs],
        "values": [float(v) for v in vals],
        "mean": float(mean),
        "cov": cov,
    }


def joukowski_exterior(z):
    """The branch of z + sqrt(z^2 - 1) with modulus >= 1."""
    z = mp.mpmathify(z)
    s = mp.sqrt(z * z - 1)
    if abs(z + s) < 1:
        s = -s
    return z + s


def classical_ratio_target(z, interval=(-1, 1)):
    """Limit of one-step monic ratios for a single measure on an
    interval: the exterior conformal factor scaled by capacity."""
    a, b = interval
    u = (2 * mp.mpmathify(z) - a - b) / (b - a)
    return joukowski_exterior(u) * (b - a) / 4
