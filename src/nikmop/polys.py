"""Dense real polynomials over mpmath scalars, ascending-coefficient layout.

Everything here treats a polynomial as a tuple of mpf coefficients
``(c0, c1, ..., cd)`` for ``c0 + c1 x + ... + cd x^d``.  The empty tuple is
the zero polynomial.  Evaluation accepts real or complex arguments.
"""
from __future__ import annotations

from typing import Sequence

from mpmath import mp


def poly_eval(coeffs: Sequence, z):
    """Horner evaluation of an ascending-coefficient polynomial at ``z``."""
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_eval_and_slope(coeffs: Sequence, z):
    """Value and derivative at ``z`` from one Horner pass."""
    acc = mp.mpf(0)
    slope = mp.mpf(0)
    for c in reversed(coeffs):
        slope = slope * z + acc
        acc = acc * z + c
    return acc, slope


def poly_from_roots(roots: Sequence):
    """Ascending coefficients of the monic polynomial with the given roots."""
    coeffs = [mp.mpf(1)]
    for r in roots:
        coeffs = [mp.mpf(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return tuple(coeffs)


def poly_eval_from_roots(roots: Sequence, z):
    """Product-form evaluation of the monic polynomial with the given roots."""
    acc = mp.mpf(1)
    for r in roots:
        acc = acc * (z - r)
    return acc


def poly_degree(coeffs: Sequence, rel_tol) -> int:
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


def poly_derivative(coeffs: Sequence):
    """Ascending coefficients of the derivative."""
    return tuple(coeffs[i] * i for i in range(1, len(coeffs)))
