"""Binary-precision plumbing shared by the arbitrary-precision modules.

Precision is always specified in bits and applied through mpmath's context
manager, so no function leaks a changed global precision to its caller.
"""
from __future__ import annotations

import functools
import math

from mpmath import mp

#: Fewest binary digits ``working`` accepts.
MIN_PRECISION_BITS = 8

#: Pivot threshold exponent fraction for the moment-system elimination.
PIVOT_EXPONENT_FRACTION = 0.8

#: Leading-coefficient threshold exponent fraction for the moment solve.
LEAD_EXPONENT_FRACTION = 0.6

#: Relative step target exponent fraction for zero refinement.
REFINE_EXPONENT_FRACTION = 0.25


def working(bits: int):
    """Context manager running the enclosed block at ``bits`` binary digits."""
    if bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision must be at least {MIN_PRECISION_BITS} bits, got {bits}"
        )
    return mp.workprec(bits)


# The thresholds below are fixed mpf values of ``bits`` alone, taken at
# ``working(bits)`` once per ``bits`` whatever the caller's precision.


@functools.lru_cache(maxsize=None)
def pivot_threshold(bits: int):
    """Relative pivot size below which the moment system counts as singular."""
    with working(bits):
        return mp.mpf(10) ** (-PIVOT_EXPONENT_FRACTION * bits * math.log10(2.0))


@functools.lru_cache(maxsize=None)
def lead_threshold(bits: int):
    """Relative size at or below which a solved block's leading coefficient
    counts as zero."""
    with working(bits):
        return mp.mpf(10) ** (
            -LEAD_EXPONENT_FRACTION * bits * mp.log(2) / mp.log(10)
        )


@functools.lru_cache(maxsize=None)
def refine_tolerance(bits: int):
    """Relative step size at which zero refinement stops."""
    with working(bits):
        return mp.mpf(10) ** (-REFINE_EXPONENT_FRACTION * bits)
