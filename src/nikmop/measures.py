"""Signed measures on real intervals, their Gauss discretizations, and the
nested Cauchy-transform machinery for chains of generating measures.

A measure is ``sign * (absolutely continuous part + finitely many mass
points)``.  The absolutely continuous part is one of the classical weight
families on an interval, discretized once at construction by a Gauss rule of
the requested size and binary precision.  After that the object is a plain
immutable collection of support points and positive weights; every integral
in the package is a finite sum over such supports.

For a chain of measures (s_0, ..., s_m) with consecutive supports disjoint,
the products <s_j, ..., s_k> are defined recursively: <s_j, ..., s_k> is the
measure with density x -> hat{<s_{j+1},...,s_k>}(x) with respect to s_j,
where hat{.} denotes the Cauchy transform and the empty chain has density 1.
`NikishinSystem` caches those density vectors on each generator's support.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

from mpmath import mp

from .precision import DEFAULT_PRECISION_BITS, working

DEFAULT_NODES = 128

WEIGHT_FAMILIES = ("chebyshev1", "chebyshev2", "legendre", "jacobi")


class MeasureError(ValueError):
    """Invalid weight description or measure construction."""


class QuadratureError(ArithmeticError):
    """Gauss rule construction failed to converge."""


def _as_mpf(value):
    # decimal literals in specs mean their decimal value at working precision
    if isinstance(value, (int, mp.mpf)):
        return mp.mpf(value)
    return mp.mpf(str(value))


@dataclass(frozen=True)
class WeightSpec:
    """Declarative description of one generating measure.

    ``family`` is one of ``chebyshev1``, ``chebyshev2``, ``legendre``,
    ``jacobi`` (the last needs ``alpha``/``beta`` > -1).  ``interval`` is the
    support of the continuous part; the classical weight is pushed forward
    affinely from [-1, 1], so Gauss weights are unchanged by the map.
    ``mass_points`` is a tuple of (location, mass) pairs with positive mass.
    ``sign`` multiplies the whole measure.
    """

    family: str
    interval: tuple[float, float]
    sign: int = 1
    alpha: float | None = None
    beta: float | None = None
    mass_points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.family not in WEIGHT_FAMILIES:
            raise MeasureError(f"unknown weight family {self.family!r}")
        if len(self.interval) != 2 or not float(self.interval[0]) < float(self.interval[1]):
            raise MeasureError(f"interval must be (a, b) with a < b, got {self.interval!r}")
        if self.sign not in (-1, 1):
            raise MeasureError(f"sign must be +1 or -1, got {self.sign!r}")
        if self.family == "jacobi":
            if self.alpha is None or self.beta is None:
                raise MeasureError("jacobi weight needs alpha and beta")
            if not (float(self.alpha) > -1 and float(self.beta) > -1):
                raise MeasureError("jacobi exponents must exceed -1")
        for pt in self.mass_points:
            if len(pt) != 2 or not float(pt[1]) > 0:
                raise MeasureError(f"mass point must be (location, mass > 0), got {pt!r}")
        object.__setattr__(self, "interval", tuple(self.interval))
        object.__setattr__(
            self, "mass_points", tuple(tuple(p) for p in self.mass_points)
        )

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "interval": list(self.interval),
            "sign": self.sign,
            "alpha": self.alpha,
            "beta": self.beta,
            "mass_points": [list(p) for p in self.mass_points],
        }

    @staticmethod
    def from_dict(data: dict) -> "WeightSpec":
        allowed = {"family", "interval", "sign", "alpha", "beta", "mass_points"}
        unknown = set(data) - allowed
        if unknown:
            raise MeasureError(f"unknown weight spec keys: {sorted(unknown)}")
        if "family" not in data or "interval" not in data:
            raise MeasureError("weight spec needs at least family and interval")
        return WeightSpec(
            family=data["family"],
            interval=tuple(data["interval"]),
            sign=data.get("sign", 1),
            alpha=data.get("alpha"),
            beta=data.get("beta"),
            mass_points=tuple(tuple(p) for p in data.get("mass_points", ())),
        )


def _jacobi_recurrence(k: int, alpha, beta):
    """Monic three-term recurrence coefficients (a_k, b_k) for the Jacobi
    weight (1-x)^alpha (1+x)^beta on [-1, 1]; b_0 is unused."""
    s = alpha + beta
    if k == 0:
        ak = (beta - alpha) / (s + 2)
    else:
        ak = (beta * beta - alpha * alpha) / ((2 * k + s) * (2 * k + s + 2))
    if k == 0:
        bk = mp.mpf(0)
    elif k == 1:
        bk = 4 * (1 + alpha) * (1 + beta) / ((2 + s) ** 2 * (3 + s))
    else:
        bk = (
            4 * k * (k + alpha) * (k + beta) * (k + s)
            / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
        )
    return ak, bk


def _jacobi_mass(alpha, beta):
    return mp.power(2, alpha + beta + 1) * mp.beta(alpha + 1, beta + 1)


def _monic_jacobi_and_derivative(n: int, x, rec):
    p_prev, p = mp.mpf(0), mp.mpf(1)
    d_prev, d = mp.mpf(0), mp.mpf(0)
    for k in range(n):
        ak, bk = rec[k]
        p_next = (x - ak) * p - bk * p_prev
        d_next = p + (x - ak) * d - bk * d_prev
        p_prev, p = p, p_next
        d_prev, d = d, d_next
    return p, d


def _gauss_jacobi(n: int, alpha, beta, bits: int):
    """Gauss nodes/weights for the Jacobi weight on [-1, 1] at ``bits``
    precision.  Double-precision root estimates are Newton-refined against
    the monic three-term recurrence; weights come from the Christoffel sum."""
    from scipy.special import roots_jacobi

    guesses, _ = roots_jacobi(n, float(alpha), float(beta))
    rec = [_jacobi_recurrence(k, alpha, beta) for k in range(n)]
    stop = mp.mpf(2) ** (-(bits - 8))
    nodes = []
    for g in sorted(guesses):
        x = mp.mpf(g)
        for _ in range(80):
            p, d = _monic_jacobi_and_derivative(n, x, rec)
            if d == 0:
                raise QuadratureError("vanishing derivative in Newton refinement")
            dx = p / d
            x = x - dx
            if abs(dx) <= stop * max(mp.mpf(1), abs(x)):
                break
        else:
            raise QuadratureError(f"Newton refinement stalled for node near {g}")
        nodes.append(x)
    mu0 = _jacobi_mass(alpha, beta)
    norms = [mu0]
    for k in range(1, n):
        norms.append(norms[-1] * rec[k][1])
    weights = []
    for x in nodes:
        p_prev, p = mp.mpf(0), mp.mpf(1)
        acc = p * p / norms[0]
        for k in range(n - 1):
            ak, bk = rec[k]
            p_next = (x - ak) * p - bk * p_prev
            p_prev, p = p, p_next
            acc += p * p / norms[k + 1]
        weights.append(1 / acc)
    return nodes, weights


def _reference_rule(family: str, n: int, alpha, beta, bits: int):
    """Nodes/weights on the reference interval [-1, 1], ascending nodes."""
    if family == "chebyshev1":
        nodes = [mp.cos(mp.pi * (2 * k - 1) / (2 * n)) for k in range(n, 0, -1)]
        weights = [mp.pi / n] * n
        return nodes, weights
    if family == "chebyshev2":
        nodes = [mp.cos(mp.pi * k / (n + 1)) for k in range(n, 0, -1)]
        weights = [
            mp.pi / (n + 1) * mp.sin(mp.pi * k / (n + 1)) ** 2
            for k in range(n, 0, -1)
        ]
        return nodes, weights
    if family == "legendre":
        return _gauss_jacobi(n, mp.mpf(0), mp.mpf(0), bits)
    return _gauss_jacobi(n, alpha, beta, bits)


@dataclass(frozen=True, eq=False)
class DiscretizedMeasure:
    """A signed measure realized as a finite sum of point masses.

    ``nodes``/``weights`` hold the Gauss rule of the continuous part (weights
    positive), ``atoms`` the explicit mass points.  The measure itself is
    ``spec.sign`` times the sum of all point masses.
    """

    spec: WeightSpec
    precision_bits: int
    nodes: tuple
    weights: tuple
    atoms: tuple

    @property
    def sign(self) -> int:
        return self.spec.sign

    @property
    def interval(self):
        a, b = self.spec.interval
        return (_as_mpf(a), _as_mpf(b))

    @property
    def hull(self):
        """Smallest closed interval containing the support."""
        a, b = self.interval
        locs = [loc for loc, _ in self.atoms]
        lo = min([a] + locs)
        hi = max([b] + locs)
        return (lo, hi)

    @functools.cached_property
    def support_points(self) -> tuple:
        return self.nodes + tuple(loc for loc, _ in self.atoms)

    @functools.cached_property
    def signed_weights(self) -> tuple:
        # Built once at the measure's own precision: the first reader may
        # sit at any ambient precision, and the cache outlives that call.
        s = self.sign
        with working(self.precision_bits):
            return tuple(s * w for w in self.weights) + tuple(
                s * m for _, m in self.atoms
            )

    def quad(self, values: Sequence):
        """Integral of a function given by its values on ``support_points``."""
        with working(self.precision_bits):
            return mp.fsum(w * v for w, v in zip(self.signed_weights, values))

    def moment(self, power: int):
        with working(self.precision_bits):
            return mp.fsum(
                w * x**power
                for w, x in zip(self.signed_weights, self.support_points)
            )

    def total_mass(self):
        return self.moment(0)

    def cauchy(self, z):
        """Cauchy transform: integral of 1/(z - x) against the measure."""
        with working(self.precision_bits):
            return mp.fsum(
                w / (z - x)
                for w, x in zip(self.signed_weights, self.support_points)
            )


def build_gauss_rule(
    spec: WeightSpec,
    nodes: int = DEFAULT_NODES,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> DiscretizedMeasure:
    """Discretize ``spec`` with an ``nodes``-point Gauss rule at the given
    binary precision.  Nodes are mapped affinely onto the spec's interval and
    weights kept as-is (pushforward), so the rule integrates polynomials of
    degree up to ``2 * nodes - 1`` against the continuous part exactly."""
    if nodes < 1:
        raise MeasureError(f"need at least one node, got {nodes}")
    with working(precision_bits):
        alpha = _as_mpf(spec.alpha) if spec.alpha is not None else None
        beta = _as_mpf(spec.beta) if spec.beta is not None else None
        ref_nodes, ref_weights = _reference_rule(
            spec.family, nodes, alpha, beta, precision_bits
        )
        a, b = (_as_mpf(v) for v in spec.interval)
        mid = (a + b) / 2
        rad = (b - a) / 2
        xs = tuple(mid + rad * t for t in ref_nodes)
        ws = tuple(mp.mpf(w) for w in ref_weights)
        atoms = tuple(
            (_as_mpf(loc), _as_mpf(mass)) for loc, mass in sorted(spec.mass_points)
        )
    return DiscretizedMeasure(
        spec=spec, precision_bits=precision_bits, nodes=xs, weights=ws, atoms=atoms
    )


def cauchy_sum_and_slope(weights: Sequence, points: Sequence, z):
    """sum w / (z - x) and its derivative -sum w / (z - x)^2 in z, at the
    ambient precision.  The value terms are the ones ``mp.fsum`` sums in
    every Cauchy transform here, so the value matches them bit for bit."""
    terms = []
    slopes = []
    for w, x in zip(weights, points):
        d = z - x
        t = w / d
        terms.append(t)
        slopes.append(t / d)
    return mp.fsum(terms), -mp.fsum(slopes)


def cauchy_transform(measure: DiscretizedMeasure, z):
    """Cauchy transform of a discretized measure at ``z``."""
    return measure.cauchy(z)


@functools.lru_cache(maxsize=None)
def _chain_density(measures: tuple):
    """Density of <m_0, m_1, ..., m_k> with respect to m_0, evaluated on
    m_0's support points.  Recursive over the tail of the chain."""
    head = measures[0]
    if len(measures) == 1:
        return tuple(mp.mpf(1) for _ in head.support_points)
    tail_density = _chain_density(measures[1:])
    nxt = measures[1]
    with working(head.precision_bits):
        pts = nxt.support_points
        wts = nxt.signed_weights
        out = []
        for x in head.support_points:
            out.append(
                mp.fsum(
                    w * d / (x - t) for w, d, t in zip(wts, tail_density, pts)
                )
            )
    return tuple(out)


def nested_cauchy_transform(measures: Sequence[DiscretizedMeasure], z):
    """Cauchy transform of the chained measure <m_0, m_1, ..., m_k> at ``z``.

    Consecutive supports must be disjoint for the chain to make sense; no
    check is repeated here beyond nonzero denominators.
    """
    chain = tuple(measures)
    head = chain[0]
    density = _chain_density(chain)
    with working(head.precision_bits):
        return mp.fsum(
            w * d / (z - x)
            for w, d, x in zip(head.signed_weights, density, head.support_points)
        )


def _hulls_disjoint(m1: DiscretizedMeasure, m2: DiscretizedMeasure) -> bool:
    a1, b1 = m1.hull
    a2, b2 = m2.hull
    return b1 < a2 or b2 < a1


@dataclass(frozen=True, eq=False)
class NikishinSystem:
    """A chain of generating measures with consecutive supports disjoint.

    ``density(j, k)`` caches the density of <s_j, ..., s_k> with respect to
    s_j on s_j's support; ``s_hat(j, k, z)`` is the Cauchy transform of that
    chained measure and ``s_weights(j, k)`` its point masses, so chained
    measures can be integrated against like any other discrete measure.
    Densities and point masses share ``_density_cache``.
    """

    generators: tuple
    _density_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.generators:
            raise MeasureError("a system needs at least one generating measure")
        object.__setattr__(self, "generators", tuple(self.generators))
        for j in range(len(self.generators) - 1):
            if not _hulls_disjoint(self.generators[j], self.generators[j + 1]):
                raise MeasureError(
                    f"supports of consecutive generators {j} and {j + 1} overlap"
                )

    @property
    def m(self) -> int:
        return len(self.generators) - 1

    def _check_range(self, j: int, k: int):
        if not 0 <= j <= k <= self.m:
            raise IndexError(f"chain indices out of range: ({j}, {k}) with m={self.m}")

    def density(self, j: int, k: int) -> tuple:
        """Values of the Cauchy transform of <s_{j+1}, ..., s_k> on the
        support of s_j (all ones when k == j)."""
        self._check_range(j, k)
        key = (j, k)
        if key not in self._density_cache:
            self._density_cache[key] = _chain_density(self.generators[j : k + 1])
        return self._density_cache[key]

    def s_weights(self, j: int, k: int) -> tuple:
        """Point masses of <s_j, ..., s_k> on the support of s_j."""
        key = ("weights", j, k)
        if key not in self._density_cache:
            gen = self.generators[j]
            density = self.density(j, k)
            with working(gen.precision_bits):
                self._density_cache[key] = tuple(
                    w * d for w, d in zip(gen.signed_weights, density)
                )
        return self._density_cache[key]

    def s_hat(self, j: int, k: int, z):
        """Cauchy transform of <s_j, ..., s_k> at z (z off s_j's support)."""
        gen = self.generators[j]
        weights = self.s_weights(j, k)
        with working(gen.precision_bits):
            return mp.fsum(
                w / (z - x) for w, x in zip(weights, gen.support_points)
            )

    def s_hat_and_slope(self, j: int, k: int, z):
        """``s_hat(j, k, z)`` and its derivative -sum w / (z - x)^2 in z,
        from one pass over the point masses."""
        gen = self.generators[j]
        weights = self.s_weights(j, k)
        with working(gen.precision_bits):
            return cauchy_sum_and_slope(weights, gen.support_points, z)


def check_cauchy_identity(system: NikishinSystem, i: int, j: int, z) -> dict:
    """Both sides of the reversal identity for chained Cauchy transforms:

    hat<s_j,...,s_i>(z) = sum_{k=i}^{j-1} (-1)^{k-i} hat<s_i,...,s_k>(z)
    hat<s_j,...,s_{k+1}>(z) + (-1)^{j-i} hat<s_i,...,s_j>(z),  i < j.

    Descending chains are computed through their own nested sums, so the two
    sides share no intermediate quantities beyond the generators themselves.
    """
    if not 0 <= i < j <= system.m:
        raise IndexError(f"need 0 <= i < j <= m, got ({i}, {j})")
    gens = system.generators
    bits = gens[0].precision_bits

    def fwd(lo, hi):
        return nested_cauchy_transform(gens[lo : hi + 1], z)

    def rev(hi, lo):
        return nested_cauchy_transform(tuple(reversed(gens[lo : hi + 1])), z)

    with working(bits):
        lhs = rev(j, i)
        rhs = mp.mpf(0)
        for k in range(i, j):
            rhs += (-1) ** (k - i) * fwd(i, k) * rev(j, k + 1)
        rhs += (-1) ** (j - i) * fwd(i, j)
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs), mp.mpf(1) * mp.mpf(10) ** (-30))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "abs_err": abs_err,
        "rel_err": abs_err / scale,
    }
