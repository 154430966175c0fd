"""The fixed-point number format: a real number as an int mantissa at a
binary exponent, ``man * 2**exp``, and a complex one as an (re, im) pair
of ints at one exponent.

This module is the only one that reads the parts of an mpf or mpc or
builds one from its parts.  Every Cauchy sum (``CauchyKernel``) and every
form (``FormKernel``) runs on such ints and rounds once to the ambient
precision at the end; the moment solve, the scan grid, the Gauss rules
and the zero polynomials take their ints through ``fixed``,
``exact_parts`` and ``to_fixed`` and give them back through ``to_mp``.
"""
from __future__ import annotations

from typing import Sequence

from mpmath import mp


def to_fixed(value, bits: int) -> int:
    """floor(value * 2**bits) for an mpf value, exactly."""
    sign, man, exp, _ = value._mpf_
    if sign:
        man = -man
    shift = exp + bits
    return man << shift if shift >= 0 else man >> -shift


def column_top(column) -> int:
    """Exponent e with |v| < 2^e for every mpf v in ``column``, read from
    the largest entry's mantissa (0 for an all-zero column)."""
    return max(
        (v._mpf_[2] + v._mpf_[3] for v in column if v._mpf_[1]), default=0
    )


def _read(parts, guard: int):
    """Ints n_i and one exponent e with n_i * 2**e equal to the mpf
    tuples ``parts`` exactly: each nonzero mantissa shifted to the finest
    exponent among them, less ``guard`` further bits, and each zero
    mantissa 0 (e is -guard when all are zero)."""
    pairs = []
    low = None
    for sign, man, exp, _ in parts:
        if not man:
            if exp:
                raise ValueError("fixed-point numbers must be finite")
            pairs.append((0, 0))
            continue
        pairs.append((-man if sign else man, exp))
        if low is None or exp < low:
            low = exp
    base = (0 if low is None else low) - guard
    return [m << (e - base) if m else 0 for m, e in pairs], base


def fixed(values, guard: int):
    """Real ``values`` as ints n_i and one exponent e with n_i * 2**e ==
    values[i] exactly, e the finest exponent among the nonzero values
    less ``guard`` further bits."""
    return _read(
        [(v if isinstance(v, mp.mpf) else mp.mpf(v))._mpf_ for v in values],
        guard,
    )


def exact_parts(z) -> tuple:
    """A real or complex z as ints and one exponent, exactly: ([m], e) or
    ([re, im], e) with z = m 2^e, e the finer exponent of the nonzero
    parts (0 when z is zero)."""
    if not isinstance(z, (mp.mpf, mp.mpc)):
        z = mp.mpmathify(z)
    return _read((z._mpf_,) if isinstance(z, mp.mpf) else z._mpc_, 0)


def to_mp(man, exp):
    """man 2^exp rounded once to the ambient precision: an mpf for an int
    man, an mpc for an (re, im) pair."""
    if isinstance(man, int):
        return mp.mpf((man, exp))
    return mp.mpc(mp.mpf((man[0], exp)), mp.mpf((man[1], exp)))


#: Bits kept beyond the requested precision in every Cauchy sum.
CAUCHY_GUARD_BITS = 40


class CauchyKernel:
    """The discrete Cauchy sum  S(z) = sum_i w_i / (z - x_i)  and its slope
    S'(z) = -sum_i w_i / (z - x_i)^2, in Python-int fixed point.

    Weights and points are stored exactly as ints, each at one common
    exponent; the points carry ``CAUCHY_GUARD_BITS`` extra zero bits so
    that most z lie on their grid and leave the points unshifted.  Every
    distance z - x_i is exact (see ``place``).  Each term is one floor
    division at an output scale chosen from Sum |w| and the nearest and
    farthest distance, so the truncation of all terms together stays
    within 2^-(bits+guard) Sum |w/(z-x)|; the slope divides each term once
    more by the same distance and is bounded the same way against
    Sum |w/(z-x)^2|.  The exact int sums are converted to mpf once, at the
    ambient precision p, so

        |value - S(z)| <= 2^-p |S(z)| + 2^-(bits+guard-1) Sum |w/(z-x)|,

    and the same for the slope, within the 2^-bits Sum |w/(z-x)| that a
    sum of terms rounded to ``bits`` meets.  A complex z runs the same
    loop with conj(d)/|d|^2.  A z on a point raises ZeroDivisionError.
    ``place`` and ``sums`` expose the exact int sums, so that kernels over
    one set of points can share a placement of z.
    """

    __slots__ = ("bits", "_w", "_w_exp", "_w_bits", "_x", "_x_exp",
                 "_lo", "_hi", "_n_bits")

    def __init__(self, weights: Sequence, points: Sequence, bits: int):
        if len(weights) != len(points):
            raise ValueError("a Cauchy kernel needs one weight per point")
        self.bits = bits
        self._w, self._w_exp = fixed(weights, 0)
        self._x, self._x_exp = fixed(points, CAUCHY_GUARD_BITS)
        # Sum |w| >= 2^_w_bits in units of 2^_w_exp.
        self._w_bits = sum(abs(w) for w in self._w).bit_length() - 1
        self._lo = min(self._x)
        self._hi = max(self._x)
        self._n_bits = len(self._x).bit_length()

    def place(self, parts) -> tuple:
        """z, given as its ``exact_parts``, and the points as ints on one
        grid, exactly: (xs, zs, grid, near_bits, far_bits), z = zs * 2^grid
        with zs one int for real z and two for complex z.  Kernels over the
        same points accept each other's placements.

        The grid is the points' own when z lies on it or on a coarser one,
        and xs is then the kernel's own point list; otherwise it is z's own
        and the points are shifted onto it.  In grid units every distance
        z - x is an exact int, 2^near_bits <= min |z - x| and
        max |z - x| < 2^far_bits.
        """
        mans, exp = parts
        if exp >= self._x_exp:
            grid = self._x_exp
            xs, lo, hi = self._x, self._lo, self._hi
            zs = [m << (exp - grid) for m in mans]
        else:
            grid, zs = exp, mans
            shift = self._x_exp - exp
            xs = [x << shift for x in self._x]
            lo, hi = self._lo << shift, self._hi << shift
        zr = zs[0]
        far = max(abs(zr - lo), abs(zr - hi))
        if zr > hi:
            near = zr - hi
        elif zr < lo:
            near = lo - zr
        else:
            near = min(abs(zr - x) for x in xs)
        if len(zs) == 2:
            im2 = zs[1] * zs[1]
            near_bits = ((near * near + im2).bit_length() - 1) // 2
            far_bits = ((far * far + im2).bit_length() + 1) // 2
        else:
            near_bits = near.bit_length() - 1
            far_bits = far.bit_length()
        if near_bits < 0:
            raise ZeroDivisionError("z lies on a point of the Cauchy sum")
        return xs, zs, grid, near_bits, far_bits

    def sums(self, placed, slope: bool = False) -> tuple:
        """S(z), and with ``slope`` also S'(z), at a ``place``d z as exact
        ints: ((acc, out),) or ((acc, out), (acc_s, out_s)) with
        S(z) ~ acc 2^out and S'(z) ~ acc_s 2^out_s, each acc one int for
        real z and an (re, im) pair for complex z.

        With Sum |w| >= 2^_w_bits in weight units, Sum |w/(z-x)| >=
        2^(_w_bits - far) and Sum |w/(z-x)^2| >= 2^(_w_bits - 2 far).  A
        term floor(w 2^s / d) is off by less than one unit (two for
        complex z), and a slope term floor(t 2^k / d) with k = near by less
        than two (four), so 2^s >= n 2^(bits+guard+2 + 2 far - near -
        _w_bits) keeps both sums within 2^-(bits+guard) of their sums of
        magnitudes.
        """
        xs, zs, grid, k, far_bits = placed
        guard = self.bits + CAUCHY_GUARD_BITS + self._n_bits + 2
        s = max(0, 2 * far_bits - k - self._w_bits + guard)
        out = self._w_exp - grid - s
        ws = self._w
        if len(zs) == 1:
            zr = zs[0]
            if not slope:
                return ((sum((w << s) // (zr - x) for w, x in zip(ws, xs)), out),)
            acc = acc_s = 0
            for w, x in zip(ws, xs):
                d = zr - x
                t = (w << s) // d
                acc += t
                acc_s += (t << k) // d
            return (acc, out), (-acc_s, out - grid - k)
        zr, zi = zs
        im2 = zi * zi
        acc_r = acc_i = slope_r = slope_i = 0
        for w, x in zip(ws, xs):
            dr = zr - x
            norm = dr * dr + im2
            w = w << s
            tr = w * dr // norm
            ti = w * -zi // norm
            acc_r += tr
            acc_i += ti
            if slope:
                slope_r += ((tr * dr + ti * zi) << k) // norm
                slope_i += ((ti * dr - tr * zi) << k) // norm
        if not slope:
            return (((acc_r, acc_i), out),)
        return ((acc_r, acc_i), out), ((-slope_r, -slope_i), out - grid - k)

    def value(self, z):
        """S(z) at the ambient precision: an mpf for real z, an mpc for
        complex z."""
        return to_mp(*self.sums(self.place(exact_parts(z)))[0])

    def value_and_slope(self, z):
        """S(z) and S'(z) from one pass over the points; S(z) is the same
        number ``value`` returns."""
        value, slope = self.sums(self.place(exact_parts(z)), slope=True)
        return to_mp(*value), to_mp(*slope)


#: Fraction bits kept beyond the working precision in form evaluations
#: and scan grids.
FORM_GUARD_BITS = 64


class _Block:
    """One polynomial block of a form: coefficients c_i = cs[i] 2^exp as
    exact ints, and per magnitude class of z the Horner unit 2^E with the
    coefficients floored to it, highest power first.

    With 2^zlo <= |z| < 2^(zlo+2) and 2^tops[i] <= |c_i|, 2^M <=
    Sum |c_i z^i| and 2^M' <= Sum i |c_i z^(i-1)|.  A Horner pass at a
    unit 2^E floors each product and each coefficient once, so the value
    carries less than 3 (d+1) max(1, |z|)^d units and the slope less than
    3 (d+1)^2 max(1, |z|)^d; E is set to put both below 2^-frac times
    their sums of magnitudes.  At z = 0 the unit is 2^exp and p(0), p'(0)
    are c_0, c_1 exactly.
    """

    __slots__ = ("cs", "tops", "exp", "frac", "_units")

    def __init__(self, cs, exp: int, frac: int):
        self.cs = cs
        self.exp = exp
        self.frac = frac
        self.tops = [abs(c).bit_length() - 1 + exp if c else None for c in cs]
        self._units = {}

    def at(self, zlo):
        """(E, coefficients at 2^E, highest first) for |z| in
        [2^zlo, 2^(zlo+2)), or for z = 0 when ``zlo`` is None."""
        if zlo not in self._units:
            unit = self.exp
            if zlo is not None:
                d = len(self.cs) - 1
                terms = [(i, t) for i, t in enumerate(self.tops) if t is not None]
                low = max(t + i * zlo for i, t in terms)
                if d:
                    low = min(low, max(t + (i - 1) * zlo for i, t in terms if i))
                unit = min(unit, low - self.frac - 2 - 2 * (d + 1).bit_length()
                           - d * max(0, zlo + 2))
            shift = self.exp - unit
            cs = [c << shift if shift >= 0 else c >> -shift
                  for c in reversed(self.cs)]
            self._units[zlo] = (unit, cs)
        return self._units[zlo]


def _horner(cs, zs, sh: int, slope: bool):
    """p(z), and p'(z) with ``slope`` (else None), in units of the
    coefficients ``cs`` (highest power first) for z = zs 2^-sh, zs one int
    or an (re, im) pair; each product floored once."""
    if len(zs) == 1:
        (z,) = zs
        acc = ds = 0
        if not slope:
            for c in cs:
                acc = ((acc * z) >> sh) + c
            return acc, None
        for c in cs:
            ds = ((ds * z) >> sh) + acc
            acc = ((acc * z) >> sh) + c
        return acc, ds
    zr, zi = zs
    ar = ai = sr = si = 0
    for c in cs:
        if slope:
            sr, si = ((sr * zr - si * zi) >> sh) + ar, ((sr * zi + si * zr) >> sh) + ai
        ar, ai = ((ar * zr - ai * zi) >> sh) + c, (ar * zi + ai * zr) >> sh
    return (ar, ai), (sr, si) if slope else None


def _mul(a, b):
    """Exact product of two ints or of two (re, im) pairs."""
    if isinstance(a, int):
        return a * b
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _exact_sum(parts, complex_z: bool):
    """Sum of the (man, exp) pairs, mans all ints or all (re, im) pairs,
    exactly, rounded once to the ambient precision."""
    if not parts:
        return mp.mpc(0) if complex_z else mp.mpf(0)
    if len(parts) == 1:
        return to_mp(*parts[0])
    low = min(e for _, e in parts)
    if complex_z:
        return to_mp((sum(m[0] << (e - low) for m, e in parts),
                      sum(m[1] << (e - low) for m, e in parts)), low)
    return to_mp(sum(m << (e - low) for m, e in parts), low)


class FormKernel:
    """The form  A(z) = sum_k p_k(z) S_k(z)  and its slope, in Python-int
    fixed point: polynomial blocks p_k times Cauchy sums S_k over one set
    of points (S_k = 1 for a bare block).

    The coefficients of all blocks are held exactly as ints at one
    exponent.  z is read exactly, once: Horner (``_Block``) runs on its
    own mantissa and every S_k on one placement (``CauchyKernel.place``).
    Horner floors at the block's unit are the only approximation of z's
    powers: each block and its slope come within 2^-(bits+FORM_GUARD_BITS)
    of their sums of magnitudes Sum |c_i z^i| and Sum i |c_i z^(i-1)|;
    each S_k within 2^-(bits+CAUCHY_GUARD_BITS) of Sum |w/(z-x)| (and its
    slope of Sum |w/(z-x)^2|).  The products p_k S_k and their sum are
    exact ints, rounded once to the ambient precision p, so

        |value - A(z)| <= 2^-p |A(z)| + 2^-(bits+38) Sigma,

    Sigma = sum_k Sum |c_i z^i| Sum |w/(z-x)|, the sum of the magnitudes
    of the terms of A(z); the slope meets the same bound against the sum
    of the magnitudes of the terms of A'(z).  A complex z gives an mpc.
    """

    __slots__ = ("bits", "_terms", "_place")

    def __init__(self, terms, bits: int):
        """``terms``: (coefficients ascending, CauchyKernel or None) per
        block; blocks without coefficients are dropped."""
        self.bits = bits
        terms = [(tuple(cs), kernel) for cs, kernel in terms if cs]
        ints, exp = fixed([c for cs, _ in terms for c in cs], 0)
        self._terms = []
        pos = 0
        for cs, kernel in terms:
            block = _Block(ints[pos : pos + len(cs)], exp, bits + FORM_GUARD_BITS)
            pos += len(cs)
            self._terms.append((block, kernel))
        kernels = [kernel for _, kernel in terms if kernel is not None]
        self._place = kernels[0].place if kernels else None

    def __call__(self, z, slope: bool = False, factors=None):
        """A(z) at the ambient precision, or (A(z), A'(z)) with ``slope``.

        ``factors``, one real mpf per block in block order, stand in for
        the S_k(z) (and for the 1 of a bare block): the value is then
        sum_k p_k(z) factors[k], still one exact int rounded once.
        """
        parts = exact_parts(z)
        placed = None
        if self._place is not None and factors is None:
            placed = self._place(parts)
        zs, g = parts
        top = max(abs(v) for v in zs).bit_length()
        # |z| lies in [2^zlo, 2^(zlo+2)).
        zlo = top - 1 + g if top else None
        if g > 0:
            zs = [v << g for v in zs]
            g = 0
        vals = []
        slopes = []
        for i, (block, kernel) in enumerate(self._terms):
            e, cs = block.at(zlo)
            p, dp = _horner(cs, zs, -g, slope)
            if factors is not None:
                (f,), f_exp = exact_parts(factors[i])
                vals.append((_mul(p, f), e + f_exp))
                if slope:
                    slopes.append((_mul(dp, f), e + f_exp))
                continue
            if kernel is None:
                vals.append((p, e))
                if slope:
                    slopes.append((dp, e))
                continue
            sums = kernel.sums(placed, slope)
            s, out = sums[0]
            vals.append((_mul(p, s), e + out))
            if slope:
                ds, out_s = sums[1]
                slopes.append((_mul(dp, s), e + out))
                slopes.append((_mul(p, ds), e + out_s))
        complex_z = len(zs) == 2
        if not slope:
            return _exact_sum(vals, complex_z)
        return _exact_sum(vals, complex_z), _exact_sum(slopes, complex_z)
