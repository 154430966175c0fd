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
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath import mp

from .fixed import CauchyKernel, exact_parts, to_fixed, to_mp
from .precision import working

WEIGHT_FAMILIES = ("chebyshev1", "chebyshev2", "legendre", "jacobi")


class MeasureError(ValueError):
    """Invalid weight description or measure construction."""


class QuadratureError(ArithmeticError):
    """Gauss rule construction failed to converge."""


def _hull(lo, hi, locations):
    return (min([lo, *locations]), max([hi, *locations]))


def _as_mpf(value):
    # decimal literals in specs mean their decimal value at working precision
    if isinstance(value, (int, mp.mpf)):
        return mp.mpf(value)
    return mp.mpf(str(value))


def _number(value):
    """A spec number (int, float, mpf or decimal string) as a float; None
    for anything else, NaN included."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str, mp.mpf)):
        return None
    try:
        out = float(value)
    except ValueError:
        return None
    except OverflowError:  # an int beyond the float range
        out = math.inf if value > 0 else -math.inf
    return None if math.isnan(out) else out


def _exact(value):
    # the exact number a finite spec entry denotes, read as _as_mpf reads it
    if isinstance(value, mp.mpf):
        (man,), exp = exact_parts(value)
        return Fraction(man) * Fraction(2) ** exp
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value))


@dataclass(frozen=True)
class WeightSpec:
    """Declarative description of one generating measure.

    ``family`` is one of ``chebyshev1``, ``chebyshev2``, ``legendre``,
    ``jacobi`` (the last needs ``alpha``/``beta`` > -1, which no other
    family accepts).  ``interval`` is the support of the continuous part;
    the classical weight is pushed forward affinely from [-1, 1], so Gauss
    weights are unchanged by the map.
    ``mass_points`` is a tuple of (location, mass) pairs with positive mass.
    ``sign``, the int 1 or -1, multiplies the whole measure.
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
        ends = (
            [_number(v) for v in self.interval]
            if isinstance(self.interval, (tuple, list)) else []
        )
        if len(ends) != 2 or None in ends or not ends[0] < ends[1]:
            raise MeasureError(f"interval must be (a, b) with a < b, got {self.interval!r}")
        # type, not equality: True == 1 and 1.0 == 1, but they hash apart
        if type(self.sign) is not int or self.sign not in (-1, 1):
            raise MeasureError(f"sign must be the int +1 or -1, got {self.sign!r}")
        exps = [_number(v) for v in (self.alpha, self.beta) if v is not None]
        if None in exps:
            raise MeasureError(
                f"alpha and beta must be numbers, got {self.alpha!r}, {self.beta!r}"
            )
        if self.family != "jacobi":
            for name in ("alpha", "beta"):
                if getattr(self, name) is not None:
                    raise MeasureError(
                        f"{name} is read only by the jacobi family, got "
                        f"{name}={getattr(self, name)!r} on {self.family!r}"
                    )
        elif len(exps) != 2:
            raise MeasureError("jacobi weight needs alpha and beta")
        elif not min(exps) > -1:
            raise MeasureError("jacobi exponents must exceed -1")
        if not isinstance(self.mass_points, (tuple, list)):
            raise MeasureError(
                f"mass_points must be a list of (location, mass) pairs, got "
                f"{self.mass_points!r}"
            )
        for pt in self.mass_points:
            nums = [_number(v) for v in pt] if isinstance(pt, (tuple, list)) else []
            if len(nums) != 2 or None in nums or not nums[1] > 0:
                raise MeasureError(f"mass point must be (location, mass > 0), got {pt!r}")
        numbers = [*self.interval, self.alpha, self.beta,
                   *(v for pt in self.mass_points for v in pt)]
        # ints are exact however large; _number reads them past the float
        # range as infinities
        if not all(
            v is None or isinstance(v, int) or math.isfinite(_number(v))
            for v in numbers
        ):
            raise MeasureError("spec numbers must be finite")
        object.__setattr__(self, "interval", tuple(self.interval))
        object.__setattr__(
            self, "mass_points", tuple(tuple(p) for p in self.mass_points)
        )

    @property
    def hull(self):
        """Smallest closed interval holding the interval and the mass
        points, exactly: the hull every discretization of the spec has."""
        a, b = self.interval
        return _hull(_exact(a), _exact(b), [_exact(loc) for loc, _ in self.mass_points])

    @property
    def sorted_mass_points(self) -> tuple:
        """The mass points by exact location, then mass: the atom order
        of every discretization of the spec."""
        return tuple(sorted(
            self.mass_points, key=lambda pt: (_exact(pt[0]), _exact(pt[1]))
        ))

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
        if not isinstance(data, dict):
            raise MeasureError(f"weight spec must be an object, got {data!r}")
        allowed = {"family", "interval", "sign", "alpha", "beta", "mass_points"}
        unknown = set(data) - allowed
        if unknown:
            raise MeasureError(f"unknown weight spec keys: {sorted(unknown)}")
        if "family" not in data or "interval" not in data:
            raise MeasureError("weight spec needs at least family and interval")
        return WeightSpec(
            family=data["family"],
            interval=data["interval"],
            sign=data.get("sign", 1),
            alpha=data.get("alpha"),
            beta=data.get("beta"),
            mass_points=data.get("mass_points", ()),
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


#: Fixed-point bits kept beyond the requested precision in Gauss rules.
GAUSS_GUARD_BITS = 40

#: Newton steps allowed per Gauss node before the rule gives up.
GAUSS_NEWTON_STEPS = 80


def _scaled_monic(n: int, x: int, a2, b4, bits: int):
    """P_n(x), P_n'(x) and P_{n-1}(x) for P_k = 2^k p_k, p_k the monic
    orthogonal polynomials, all ints at scale 2^bits.

    P_{k+1} = 2(x - a_k) P_k - 4 b_k P_{k-1} with 2 a_k and 4 b_k given
    at scale 2^bits in ``a2``/``b4``; each product is floored once.
    """
    p_prev, p = 0, 1 << bits
    d_prev, d = 0, 0
    for a, b in zip(a2, b4):
        t = 2 * x - a
        p_prev, p, d_prev, d = (
            p,
            (t * p - b * p_prev) >> bits,
            d,
            ((t * d - b * d_prev) >> bits) + 2 * p,
        )
    return p, d, p_prev


def _gauss_jacobi(n: int, alpha, beta, bits: int):
    """Gauss nodes/weights for the Jacobi weight on [-1, 1], rounded to
    the ambient precision.

    Golub-Welsch: the eigenvalues of the Jacobi matrix in double precision
    are the starting guesses.  Each is refined by Newton on the scaled
    monic recurrence in Python-int fixed point at bits + GAUSS_GUARD_BITS
    (P_k = 2^k p_k stays polynomially bounded on [-1, 1], so one scale
    serves every k) until a step is at most 2^-(bits-8) max(1, |x|).  The
    weights come from one more evaluation at each node:
    w = h_{n-1} / (p_{n-1}(x) p_n'(x)) = 2H / (P_{n-1}(x) P_n'(x)) with
    H = mu_0 prod_{k=1}^{n-1} 4 b_k.
    """
    scale = bits + GAUSS_GUARD_BITS
    with working(scale):
        rec = [_jacobi_recurrence(k, alpha, beta) for k in range(n)]
        a2 = [to_fixed(2 * a, scale) for a, _ in rec]
        b4 = [to_fixed(4 * b, scale) for _, b in rec]
        h2 = 2 * _jacobi_mass(alpha, beta) * mp.fprod(4 * b for _, b in rec[1:])
    jacobi_matrix = (
        np.diag([float(a) for a, _ in rec])
        + np.diag([math.sqrt(float(b)) for _, b in rec[1:]], 1)
    )
    guesses = np.linalg.eigvalsh(jacobi_matrix, UPLO="U")
    one = 1 << scale
    nodes = []
    weights = []
    for g in guesses:
        x = to_fixed(mp.mpf(g), scale)
        for _ in range(GAUSS_NEWTON_STEPS):
            p, d, _ = _scaled_monic(n, x, a2, b4, scale)
            if d == 0:
                raise QuadratureError("vanishing derivative in Newton refinement")
            dx = (p << scale) // d
            x -= dx
            if abs(dx) << (bits - 8) <= max(one, abs(x)):
                break
        else:
            raise QuadratureError(f"Newton refinement stalled for node near {g}")
        _, d, p_prev = _scaled_monic(n, x, a2, b4, scale)
        nodes.append(to_mp(x, -scale))
        with working(scale):
            w = mp.ldexp(h2, 2 * scale) / (p_prev * d)
        weights.append(+w)
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
        # Decimal endpoints mean their value at the measure's precision,
        # as the nodes were mapped, whatever the caller's precision.
        a, b = self.spec.interval
        with working(self.precision_bits):
            return (_as_mpf(a), _as_mpf(b))

    @property
    def hull(self):
        """Smallest closed interval containing the support."""
        a, b = self.interval
        return _hull(a, b, [loc for loc, _ in self.atoms])

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

    def cauchy(self, z):
        """Cauchy transform: integral of 1/(z - x) against the measure."""
        with working(self.precision_bits):
            return CauchyKernel(
                self.signed_weights, self.support_points, self.precision_bits
            ).value(z)


def build_gauss_rule(
    spec: WeightSpec,
    nodes: int,
    precision_bits: int,
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
            (_as_mpf(loc), _as_mpf(mass)) for loc, mass in spec.sorted_mass_points
        )
    return DiscretizedMeasure(
        spec=spec, precision_bits=precision_bits, nodes=xs, weights=ws, atoms=atoms
    )


def _chain_density(system: "NikishinSystem", j: int, k: int) -> tuple:
    """Density of <s_j, ..., s_k> with respect to s_j on s_j's support:
    the system's Cauchy sum over <s_{j+1}, ..., s_k> evaluated there, all
    ones when j == k."""
    head = system.generators[j]
    if j == k:
        return tuple(mp.mpf(1) for _ in head.support_points)
    kernel = system.kernel(j + 1, k)
    with working(head.precision_bits):
        return tuple(kernel.value(x) for x in head.support_points)


def nested_cauchy_transform(measures: Sequence[DiscretizedMeasure], z):
    """Cauchy transform of the chained measure <m_0, m_1, ..., m_k> at ``z``,
    through a fresh ``NikishinSystem`` over the chain (which checks that
    consecutive supports are disjoint)."""
    system = NikishinSystem(generators=tuple(measures))
    return system.s_hat(0, system.m, z)


def check_chain_hulls(hulls: Sequence) -> None:
    """Raise MeasureError unless consecutive hulls (lo, hi) are disjoint.
    Applies alike to discretized generators and to the specs they come
    from, whose hulls compare the same way."""
    for j, ((a1, b1), (a2, b2)) in enumerate(zip(hulls, hulls[1:])):
        if not (b1 < a2 or b2 < a1):
            raise MeasureError(
                f"supports of consecutive generators {j} and {j + 1} overlap"
            )


@dataclass(frozen=True, eq=False)
class NikishinSystem:
    """A chain of generating measures with consecutive supports disjoint.

    ``density(j, k)`` caches the density of <s_j, ..., s_k> with respect to
    s_j on s_j's support; ``s_hat(j, k, z)`` is the Cauchy transform of that
    chained measure and ``s_weights(j, k)`` its point masses, so chained
    measures can be integrated against like any other discrete measure.
    Densities, point masses and their Cauchy kernels share
    ``_density_cache``, the only store of chain data.
    """

    generators: tuple
    _density_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.generators:
            raise MeasureError("a system needs at least one generating measure")
        object.__setattr__(self, "generators", tuple(self.generators))
        check_chain_hulls([g.hull for g in self.generators])

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
            self._density_cache[key] = _chain_density(self, j, k)
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

    def kernel(self, j: int, k: int) -> CauchyKernel:
        """Cauchy sum over the point masses of <s_j, ..., s_k>."""
        key = ("kernel", j, k)
        if key not in self._density_cache:
            gen = self.generators[j]
            self._density_cache[key] = CauchyKernel(
                self.s_weights(j, k), gen.support_points, gen.precision_bits
            )
        return self._density_cache[key]

    def s_hat(self, j: int, k: int, z):
        """Cauchy transform of <s_j, ..., s_k> at z (z off s_j's support)."""
        kernel = self.kernel(j, k)
        with working(kernel.bits):
            return kernel.value(z)


def check_cauchy_identity(system: NikishinSystem, i: int, j: int, z) -> dict:
    """Both sides of the reversal identity for chained Cauchy transforms:

    hat<s_j,...,s_i>(z) = sum_{k=i}^{j-1} (-1)^{k-i} hat<s_i,...,s_k>(z)
    hat<s_j,...,s_{k+1}>(z) + (-1)^{j-i} hat<s_i,...,s_j>(z),  i < j.

    Every chain, ascending or descending, is summed by its own fresh system
    (``nested_cauchy_transform``), so the two sides share no intermediate
    quantities beyond the generators themselves.
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
