"""Shared measure systems for the whole suite.

Session scope matters here: the solve and zero-extraction caches are
keyed on the pair objects, so building each pair exactly once is what
keeps the acceptance tests affordable.  The interval layout is the one
used throughout: base on [-1, 1], first chain climbing through [2, 3]
and [5, 6], second chain descending through [-3, -2].
"""

import pytest
from mpmath import mp

from nikmop.measures import NikishinSystem, WeightSpec, build_gauss_rule
from nikmop.mop import NikishinPair

BITS = 256
HI_BITS = 512
NODES = 64
HI_NODES = 96

BASE = WeightSpec(family="chebyshev2", interval=(-1, 1))
UP1 = WeightSpec(family="chebyshev1", interval=(2, 3))
UP2 = WeightSpec(family="jacobi", interval=(5, 6), alpha=0.5, beta=-0.5)
DOWN1 = WeightSpec(family="legendre", interval=(-3, -2))
ATOM_BASE = WeightSpec(
    family="chebyshev2", interval=(-1, 1), mass_points=((1.5, 0.5),)
)
TWO_ATOM_BASE = WeightSpec(
    family="chebyshev2", interval=(-1, 1),
    mass_points=((1.5, 0.5), (-1.3, 0.25)),
)
INNER_ATOM_BASE = WeightSpec(
    family="chebyshev2", interval=(-1, 1), mass_points=((0.4, 0.5),)
)


def monic_chebyshev_u(n):
    """Monic second-kind Chebyshev coefficients, ascending."""
    prev, cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [mp.mpf(0)] + cur
        for k, c in enumerate(prev):
            nxt[k] -= c / 4
        prev, cur = cur, nxt
    return cur


def poly_eval(coeffs, z):
    """Horner evaluation of an ascending-coefficient polynomial at ``z``."""
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_eval_and_slope(coeffs, z):
    """Value and derivative at ``z`` from one Horner pass."""
    acc = mp.mpf(0)
    slope = mp.mpf(0)
    for c in reversed(coeffs):
        slope = slope * z + acc
        acc = acc * z + c
    return acc, slope


def poly_from_roots(roots):
    """Ascending coefficients of the monic polynomial with the given roots."""
    coeffs = [mp.mpf(1)]
    for r in roots:
        coeffs = [mp.mpf(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return tuple(coeffs)


def poly_eval_from_roots(roots, z):
    """Product-form evaluation of the monic polynomial with the given roots."""
    acc = mp.mpf(1)
    for r in roots:
        acc = acc * (z - r)
    return acc


def poly_degree(coeffs, rel_tol) -> int:
    """Numerical degree: index of the last coefficient above ``rel_tol``
    relative to the largest coefficient magnitude.  Returns -1 for zero."""
    if not coeffs:
        return -1
    scale = max(abs(c) for c in coeffs)
    if scale == 0:
        return -1
    for i in range(len(coeffs) - 1, -1, -1):
        if abs(coeffs[i]) > rel_tol * scale:
            return i
    return -1


def poly_derivative(coeffs):
    """Ascending coefficients of the derivative."""
    return tuple(coeffs[i] * i for i in range(1, len(coeffs)))


def make_pair(specs1, specs2, nodes=NODES, bits=BITS):
    rules = {}

    def rule(spec):
        if spec not in rules:
            rules[spec] = build_gauss_rule(spec, nodes, bits)
        return rules[spec]

    s1 = NikishinSystem(tuple(rule(s) for s in specs1))
    s2 = NikishinSystem(tuple(rule(s) for s in specs2))
    return NikishinPair(s1, s2)


@pytest.fixture(scope="session")
def pair00():
    return make_pair((BASE,), (BASE,))


@pytest.fixture(scope="session")
def pair10():
    return make_pair((BASE, UP1), (BASE,))


@pytest.fixture(scope="session")
def pair11():
    return make_pair((BASE, UP1), (BASE, DOWN1))


@pytest.fixture(scope="session")
def pair21():
    return make_pair((BASE, UP1, UP2), (BASE, DOWN1))


@pytest.fixture(scope="session")
def all_pairs(pair00, pair10, pair11, pair21):
    return {(0, 0): pair00, (1, 0): pair10, (1, 1): pair11, (2, 1): pair21}


@pytest.fixture(scope="session")
def pair00_hi():
    return make_pair((BASE,), (BASE,), nodes=HI_NODES, bits=HI_BITS)


@pytest.fixture(scope="session")
def pair10_hi():
    return make_pair((BASE, UP1), (BASE,), nodes=HI_NODES, bits=HI_BITS)


@pytest.fixture(scope="session")
def pair11_hi():
    return make_pair((BASE, UP1), (BASE, DOWN1), nodes=HI_NODES, bits=HI_BITS)


@pytest.fixture(scope="session")
def atom_pair():
    return make_pair((ATOM_BASE,), (ATOM_BASE,))


@pytest.fixture(scope="session")
def two_atom_pair():
    """Mass points on both sides of the base interval."""
    return make_pair((TWO_ATOM_BASE,), (TWO_ATOM_BASE,))


@pytest.fixture(scope="session")
def inner_atom_pair():
    """A mass point inside the base interval."""
    return make_pair((INNER_ATOM_BASE,), (INNER_ATOM_BASE,))
