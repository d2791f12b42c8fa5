"""Exact rationals and directed-rounding enclosures.

A Value is either an exact Fraction or an Enclosure [lo, hi] of binary floats
at a fixed working precision.  Exact arithmetic never degrades to floating
point; enclosures appear only where power-law terms force irrational sums.
Every enclosure bound is a dyadic rational, so comparisons against exact
values are themselves exact: an mpf converts to a Fraction without loss.

Power-law terms n^(-alpha) are bounded by integer arithmetic alone: an exact
integer root gives floor(2^shift * n^(-alpha)), and only the final rounding
of such scaled integers to the working precision goes through mpmath's
correctly rounded conversion.  mpmath evaluates transcendentals only for
logarithms and fractional powers of values (ln_value, pow_of_value).

Comparisons are three-way plus "indeterminate" (overlapping enclosures).
Engine code treats indeterminate outcomes as ties broken toward the smaller
radius and clears the certified flag, so no decision is ever silently wrong.
"""

from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

import mpmath
from mpmath.libmp import from_man_exp, round_ceiling, round_floor

from .errors import ParameterViolation

_INT_RE = re.compile(r"[+-]?\d+")


def int_str(n: int) -> str:
    """Decimal digits of n at any size.

    Routed through Decimal because the interpreter's int<->str digit guard
    (sys.get_int_max_str_digits) rejects direct conversion of the
    multi-thousand-digit scales these constructions live at; Decimal
    rendering is exact and unguarded."""
    return str(decimal.Decimal(n))


def parse_int(s: str) -> int:
    """Exact inverse of int_str, valid at any number of digits."""
    s = s.strip()
    if not _INT_RE.fullmatch(s):
        raise ParameterViolation(f"not an integer: {s!r}")
    return int(decimal.Decimal(s))

DEFAULT_PRECISION = 256
# guard bits for the transcendental evaluations in ln_value and pow_of_value
# before widening into an enclosure
_GUARD = 32
# relative widening applied to the mpmath ln and pow output of ln_value and
# pow_of_value; mpmath's basic ops are correctly rounded and its pow/ln are
# accurate to ~2 ulp at the guard precision, so 2^-(prec+8) is conservative
# by a factor of about 2^20
_WIDEN_SHIFT = 8

_mpf = mpmath.mpf
_make_mpf = mpmath.mp.make_mpf


def mpf_to_fraction(x) -> Fraction:
    """Exact value of a finite mpf as a Fraction (mpf values are dyadic)."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if exp != 0:
            raise ParameterViolation("non-finite bound in enclosure")
        return Fraction(0)
    man = int(man)
    v = Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)
    return -v if sign else v


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] certified to contain the true value."""

    lo: object  # mpmath.mpf
    hi: object  # mpmath.mpf

    def __post_init__(self):
        if not (mpmath.isfinite(self.lo) and mpmath.isfinite(self.hi)):
            raise ParameterViolation("enclosure bounds must be finite")
        if self.lo > self.hi:
            raise ParameterViolation("enclosure with lo > hi")

    def bounds(self) -> tuple[Fraction, Fraction]:
        return mpf_to_fraction(self.lo), mpf_to_fraction(self.hi)

    def __repr__(self):  # keep reprs short; full precision lives in bounds()
        return f"Enclosure({mpmath.nstr(self.lo, 12)}..{mpmath.nstr(self.hi, 12)})"


Value = Union[Fraction, Enclosure]


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INDETERMINATE = 2


def exact_bounds(v: Value) -> tuple[Fraction, Fraction]:
    if isinstance(v, Fraction):
        return v, v
    return v.bounds()


def compare(a: Value, b: Value) -> Ordering:
    """Three-way comparison; INDETERMINATE iff the intervals overlap without
    being the same single point."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        if a < b:
            return Ordering.LESS
        if a > b:
            return Ordering.GREATER
        return Ordering.EQUAL
    alo, ahi = exact_bounds(a)
    blo, bhi = exact_bounds(b)
    if ahi < blo:
        return Ordering.LESS
    if alo > bhi:
        return Ordering.GREATER
    if alo == ahi == blo == bhi:
        return Ordering.EQUAL
    return Ordering.INDETERMINATE


def overlap_width(a: Value, b: Value) -> Fraction:
    """Width of the overlap of two value intervals (0 for disjoint/exact)."""
    alo, ahi = exact_bounds(a)
    blo, bhi = exact_bounds(b)
    w = min(ahi, bhi) - max(alo, blo)
    return w if w > 0 else Fraction(0)


# up to this many (left, right) pairs, scanning them all for the largest
# slope is cheaper than building the two hulls
_DIRECT_PAIRS = 36


def _lower_hull(xs, ys) -> list:
    """Vertices (x, y) of the lower convex hull of points given in
    ascending x; points on a hull edge are dropped."""
    hull: list = []
    for p in zip(xs, ys):
        x, y = p
        while len(hull) > 1:
            (xa, ya), (xb, yb) = hull[-2], hull[-1]
            if (yb - ya) * (x - xa) < (y - ya) * (xb - xa):
                break
            hull.pop()
        hull.append(p)
    return hull


def max_slope_pair(xl: list, yl: list, xr: list, yr: list) -> tuple[int, int]:
    """Exact innermost maximizer (i, j) of (yr[j] - yl[i]) / (xr[j] - xl[i]).

    xl and xr ascend, every xl lies left of every xr, and coordinates are
    ints or Fractions.  This is the maximum-density segment problem
    (Goldwasser, Kao & Lu, JCSS 2005): the largest slope s joins a vertex
    of the lower hull of the left points to one of the upper hull of the
    right points, and a binary tangent search from each right vertex finds
    it.  With s = num/den, a pair attains s exactly when yl[i]*den - num*xl[i]
    is minimal and yr[j]*den - num*xr[j] is maximal, so one pass over all
    points returns the innermost maximizer: the largest such i and the
    smallest such j.  Up to _DIRECT_PAIRS pairs are instead scanned
    directly, in an order that meets the innermost maximizer first."""
    num, den = -1, 0
    if len(xl) * len(xr) <= _DIRECT_PAIRS:
        # right points outward and left points inward: the first pair to
        # reach the largest slope is the innermost one
        best = (0, 0)
        for j, (xq, yq) in enumerate(zip(xr, yr)):
            for i in range(len(xl) - 1, -1, -1):
                if den == 0 or (yq - yl[i]) * den > num * (xq - xl[i]):
                    num, den, best = yq - yl[i], xq - xl[i], (i, j)
        return best
    lower = _lower_hull(xl, yl)
    top = len(lower) - 1
    for xq, yq in _lower_hull(xr, [-y for y in yr]):
        yq = -yq  # the upper hull of the right points, flipped back
        # slope(v_k, q) rises from k to k + 1 iff the hull edge there
        # is flatter than slope(v_{k+1}, q); convexity makes that a prefix
        lo, hi = 0, top
        while lo < hi:
            mid = (lo + hi) // 2
            (x0, y0), (x1, y1) = lower[mid], lower[mid + 1]
            if (y1 - y0) * (xq - x1) < (yq - y1) * (x1 - x0):
                lo = mid + 1
            else:
                hi = mid
        xv, yv = lower[lo]
        if den == 0 or (yq - yv) * den > num * (xq - xv):
            num, den = yq - yv, xq - xv
    left = [y * den - num * x for x, y in zip(xl, yl)]
    right = [y * den - num * x for x, y in zip(xr, yr)]
    i = len(left) - 1 - left[::-1].index(min(left))
    return i, right.index(max(right))


def fraction_to_enclosure(fr: Fraction, prec: int = DEFAULT_PRECISION) -> Enclosure:
    lo = mpmath.fdiv(fr.numerator, fr.denominator, prec=prec, rounding="f")
    hi = mpmath.fdiv(fr.numerator, fr.denominator, prec=prec, rounding="c")
    return Enclosure(lo, hi)


def _as_pair(v: Value, prec: int):
    if isinstance(v, Fraction):
        e = fraction_to_enclosure(v, prec)
        return e.lo, e.hi
    return v.lo, v.hi


def v_add(a: Value, b: Value, prec: int = DEFAULT_PRECISION) -> Value:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    alo, ahi = _as_pair(a, prec)
    blo, bhi = _as_pair(b, prec)
    return Enclosure(
        mpmath.fadd(alo, blo, prec=prec, rounding="f"),
        mpmath.fadd(ahi, bhi, prec=prec, rounding="c"),
    )


def v_sub(a: Value, b: Value, prec: int = DEFAULT_PRECISION) -> Value:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a - b
    alo, ahi = _as_pair(a, prec)
    blo, bhi = _as_pair(b, prec)
    return Enclosure(
        mpmath.fsub(alo, bhi, prec=prec, rounding="f"),
        mpmath.fsub(ahi, blo, prec=prec, rounding="c"),
    )


def v_mul_int(a: Value, k: int, prec: int = DEFAULT_PRECISION) -> Value:
    """a * k for an exact integer k of either sign."""
    if isinstance(a, Fraction):
        return a * k
    if k >= 0:
        lo = mpmath.fmul(a.lo, k, prec=prec, rounding="f")
        hi = mpmath.fmul(a.hi, k, prec=prec, rounding="c")
    else:
        lo = mpmath.fmul(a.hi, k, prec=prec, rounding="f")
        hi = mpmath.fmul(a.lo, k, prec=prec, rounding="c")
    return Enclosure(lo, hi)


def v_div_posint(a: Value, k: int, prec: int = DEFAULT_PRECISION) -> Value:
    """a / k for an exact integer k > 0."""
    if k <= 0:
        raise ParameterViolation("division by a non-positive count")
    if isinstance(a, Fraction):
        return a / k
    return Enclosure(
        mpmath.fdiv(a.lo, k, prec=prec, rounding="f"),
        mpmath.fdiv(a.hi, k, prec=prec, rounding="c"),
    )


def v_mul_frac(a: Value, c: Fraction, prec: int = DEFAULT_PRECISION) -> Value:
    """a * c for an exact rational c of either sign."""
    if isinstance(a, Fraction):
        return a * c
    return v_div_posint(v_mul_int(a, c.numerator, prec), c.denominator, prec)


def iroot(x: int, q: int) -> int:
    """Floor of the q-th root of a non-negative integer (Newton on ints).

    The seed comes from math.log2, just above the root.  Whatever the seed,
    one Newton step lands at or above the floor root, because the AM-GM
    inequality behind Newton's step survives the integer floors; from there
    every step descends until it stops at the floor root."""
    if x < 0 or q < 1:
        raise ParameterViolation("iroot domain")
    if x in (0, 1) or q == 1:
        return x
    e = math.log2(x) / q
    k = max(0, int(e) - 52)
    # the relative margin covers log2's rounding error, which grows with e
    r = (int(2.0 ** (e - k) * (1 + (e + 1) * 2.0**-46)) + 1) << k
    qm = q - 1
    r = (qm * r + x // r**qm) // q
    while True:
        nr = (qm * r + x // r**qm) // q
        if nr >= r:
            return r
        r = nr


def _widen(t, prec: int) -> Enclosure:
    """Wrap an approximately computed positive mpf in a conservative interval."""
    eps = mpmath.ldexp(abs(t), -(prec + _WIDEN_SHIFT))
    lo = mpmath.fsub(t, eps, prec=prec, rounding="f")
    hi = mpmath.fadd(t, eps, prec=prec, rounding="c")
    return Enclosure(lo, hi)


def power_shift(n: int, alpha: Fraction, prec: int) -> int:
    """A scale with 2^shift * m^(-alpha) > 2^prec for every 1 <= m <= n.

    Relative, not absolute: near n = 2^10000 a fixed 2^prec scale would
    leave nothing of n^(-alpha) above the last bit."""
    return prec - (-alpha.numerator * n.bit_length() // alpha.denominator)


def power_bounds(n: int, alpha: Fraction, shift: int) -> tuple[int, bool]:
    """(m, exact) with m = floor(2^shift * n^(-alpha)) for n >= 1, alpha = p/q.

    m = iroot(2^(shift*q) // n^p, q), exact because
    floor(x^(1/q)) = floor(floor(x)^(1/q)); exact tells whether
    m = 2^shift * n^(-alpha), so m and m + 1 (m alone when exact) bound the
    scaled term with no rounding to trust."""
    p, q = alpha.numerator, alpha.denominator
    x, rem = divmod(1 << (shift * q), n**p)
    m = iroot(x, q)
    return m, rem == 0 and m**q == x


def scaled_enclosure(lo: int, hi: int, shift: int, prec: int) -> Enclosure:
    """[lo / 2^shift, hi / 2^shift] rounded outward to prec-bit floats."""
    return Enclosure(
        _make_mpf(from_man_exp(lo, -shift, prec, round_floor)),
        _make_mpf(from_man_exp(hi, -shift, prec, round_ceiling)),
    )


def power_term(n: int, alpha: Fraction, prec: int = DEFAULT_PRECISION) -> Value:
    """n^(-alpha) for integer n >= 1 and rational alpha in (0, 1).

    Returns an exact Fraction when n^alpha is rational (n^p a perfect q-th
    power for alpha = p/q), otherwise a certified Enclosure from
    power_bounds, of relative width below 2^-(prec-2)."""
    if n < 1:
        raise ParameterViolation("power-law values need n >= 1")
    if not (0 < alpha < 1):
        raise ParameterViolation("power-law exponent must lie in (0, 1)")
    if n == 1:
        return Fraction(1)
    p, q = alpha.numerator, alpha.denominator
    # exact fast path; skip when n^p would be enormous
    if p * n.bit_length() <= 4096:
        np_ = n**p
        m = iroot(np_, q)
        if m**q == np_:
            return Fraction(1, m)
    shift = power_shift(n, alpha, prec)
    m, exact = power_bounds(n, alpha, shift)
    return scaled_enclosure(m, m if exact else m + 1, shift, prec)


def ln_value(x: Union[int, Fraction], prec: int = DEFAULT_PRECISION) -> Value:
    """Natural log of an exact positive number as a Value (exact only at 1)."""
    fx = Fraction(x)
    if fx <= 0:
        raise ParameterViolation("log of a non-positive number")
    if fx == 1:
        return Fraction(0)
    with mpmath.workprec(prec + _GUARD):
        t = mpmath.ln(mpmath.fdiv(fx.numerator, fx.denominator, prec=prec + _GUARD))
    # widen by relative + absolute terms: the absolute term covers the input
    # rounding of p/q, whose log-error does not scale with |ln x| near x = 1
    eps = mpmath.ldexp(abs(t) + 1, -(prec + _WIDEN_SHIFT))
    lo = mpmath.fsub(t, eps, prec=prec, rounding="f")
    hi = mpmath.fadd(t, eps, prec=prec, rounding="c")
    return Enclosure(lo, hi)


def ln_of_value(v: Value, prec: int = DEFAULT_PRECISION) -> Value:
    """Natural log of a positive Value; monotone, so bounds map to bounds."""
    lo, hi = exact_bounds(v)
    if lo <= 0:
        raise ParameterViolation("log of a non-positive value")
    a = ln_value(lo, prec)
    b = ln_value(hi, prec)
    alo, _ = exact_bounds(a)
    _, bhi = exact_bounds(b)
    if isinstance(a, Fraction):
        a = fraction_to_enclosure(a, prec)
    if isinstance(b, Fraction):
        b = fraction_to_enclosure(b, prec)
    return Enclosure(a.lo, b.hi)


def pow_of_value(v: Value, beta: Fraction, prec: int = DEFAULT_PRECISION) -> Value:
    """v^beta for a positive Value and rational beta in (0, 1]; monotone."""
    if beta == 1:
        return v
    lo, hi = exact_bounds(v)
    if lo <= 0:
        raise ParameterViolation("power of a non-positive value")
    with mpmath.workprec(prec + _GUARD):
        b = _mpf(beta.numerator) / beta.denominator
        tlo = mpmath.power(mpmath.fdiv(lo.numerator, lo.denominator, prec=prec + _GUARD), b)
        thi = mpmath.power(mpmath.fdiv(hi.numerator, hi.denominator, prec=prec + _GUARD), b)
    return Enclosure(_widen(tlo, prec).lo, _widen(thi, prec).hi)


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (decimal integers, optional sign, any size)."""
    s = s.strip()
    try:
        if "/" in s:
            p, q = s.split("/", 1)
            return Fraction(parse_int(p), parse_int(q))
        return Fraction(parse_int(s))
    except ZeroDivisionError as exc:
        raise ParameterViolation(f"not a rational: {s!r}") from exc


def json_field(doc, key: str, kind: type = object):
    """doc[key] from a JSON object, checked to be an instance of kind."""
    if not isinstance(doc, dict):
        raise ParameterViolation(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ParameterViolation(f"JSON object lacks {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ParameterViolation(f"{key!r} has the wrong JSON type: {value!r}")
    return value


def json_int(v) -> int:
    """An integer given in JSON as a number or a decimal string."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        return parse_int(v)
    raise ParameterViolation(f"not an integer: {v!r}")


def json_rational(v) -> Fraction:
    """A rational given in JSON as a "p/q" or "p" string."""
    if not isinstance(v, str):
        raise ParameterViolation(f"not a rational string: {v!r}")
    return parse_rational(v)


def rational_str(fr: Fraction) -> str:
    return f"{int_str(fr.numerator)}/{int_str(fr.denominator)}"


def value_str(v: Value, digits: int = 30) -> str:
    """Render a Value for CSV/JSON: "p/q" exact, "lo..hi" for enclosures."""
    if isinstance(v, Fraction):
        return rational_str(v)
    return f"{mpmath.nstr(v.lo, digits)}..{mpmath.nstr(v.hi, digits)}"
