"""Exact rationals and integer dyadic enclosures.

A Value is either an exact Fraction or an Enclosure [lo, hi] whose bounds
are dyadic rationals m * 2^e, each held as two plain ints.  Exact arithmetic
never degrades to floating point; enclosures appear only where power-law
terms force irrational sums.  Every enclosure operation computes its result
exactly in integers and then rounds it outward to the working precision,
lo toward -inf and hi toward +inf, to prec significant bits: the bits a
correctly rounded binary float of that precision would keep.  Enclosures are
thus certified by integer arithmetic alone, and comparisons against exact
values are themselves exact.

Power-law terms n^(-alpha) are bounded the same way: an exact integer root
gives floor(2^shift * n^(-alpha)).  mpmath is used only to evaluate
logarithms, exponentials and fractional powers of values (ln_value,
exp_of_value, pow_of_value), whose results convert exactly to dyadic
bounds, and to print bounds as decimals; it is imported on the first such
call.

Comparisons are three-way plus "indeterminate" (overlapping enclosures).
Engine code treats indeterminate outcomes as ties broken toward the smaller
radius and clears the certified flag, so no decision is ever silently wrong.
"""

from __future__ import annotations

import decimal
import math
import re
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import ParameterViolation

_INT_RE = re.compile(r"[+-]?\d+")


def int_str(n: int) -> str:
    """Decimal digits of n at any size.

    str(n) first; the interpreter's int<->str digit guard
    (sys.get_int_max_str_digits) rejects it with ValueError at the
    multi-thousand-digit scales these constructions live at, and those go
    through Decimal, whose rendering of an int is the same digits,
    exact and unguarded."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def int_brief(n: int) -> str:
    """n for an error message: int_str(n) up to 100 digits, else its first
    and last ten digits around an ellipsis, with the digit count."""
    s = int_str(n)
    neg = s.startswith("-")
    if len(s) - neg <= 100:
        return s
    return f"{s[:10 + neg]}\u2026{s[-10:]} ({len(s) - neg} digits)"


def repr_brief(x) -> str:
    """repr(x) for an error message that echoes an input: up to 100
    characters as is, else its first 60 and last 20 characters around an
    ellipsis, with its length."""
    s = repr(x)
    if len(s) <= 100:
        return s
    return f"{s[:60]}\u2026{s[-20:]} ({len(s)} characters)"


def parse_int(s: str) -> int:
    """Exact inverse of int_str, valid at any number of digits (int(s)
    first, Decimal past the digit guard)."""
    s = s.strip()
    if not _INT_RE.fullmatch(s):
        raise ParameterViolation(f"not an integer: {repr_brief(s)}")
    try:
        return int(s)
    except ValueError:
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


# imported on first use by _mpmath(): exact and constant-signal work never
# needs it
mpmath = None


def _mpmath():
    """The mpmath module, imported on first use."""
    global mpmath
    if mpmath is None:
        import mpmath as module

        mpmath = module
    return mpmath


def _floor(m: int, e: int, prec: int) -> tuple:
    """m * 2^e rounded toward -inf to prec significant bits, as (m, e)."""
    s = m.bit_length() - prec
    return (m >> s, e + s) if s > 0 else (m, e)


def _ceil(m: int, e: int, prec: int) -> tuple:
    """m * 2^e rounded toward +inf to prec significant bits, as (m, e)."""
    s = m.bit_length() - prec
    return (-(-m >> s), e + s) if s > 0 else (m, e)


def _add(am: int, ae: int, bm: int, be: int) -> tuple:
    """am * 2^ae + bm * 2^be exactly, as (m, e)."""
    if ae > be:
        return (am << (ae - be)) + bm, be
    return am + (bm << (be - ae)), ae


def _quot(m: int, e: int, k: int, prec: int, rnd) -> tuple:
    """m * 2^e / k for an int k > 0, rounded by rnd (_floor or _ceil).

    The integer quotient keeps at least prec + 1 bits, so rounding the
    floor (or ceiling) of the scaled quotient rounds the quotient itself."""
    t = max(0, prec + 1 + k.bit_length() - m.bit_length())
    m <<= t
    return rnd(m // k if rnd is _floor else -(-m // k), e - t, prec)


def _to_fraction(d: tuple) -> Fraction:
    m, e = d
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _dyadic(x, rnd) -> tuple:
    """A bound given as an mpf, int or Fraction as (m, e): exact when
    dyadic, otherwise rounded by rnd to DEFAULT_PRECISION bits."""
    raw = getattr(x, "_mpf_", None)
    if raw is not None:
        sign, man, exp, _ = raw
        if not man and exp:
            raise ParameterViolation("enclosure bounds must be finite")
        return (-int(man) if sign else int(man)), exp
    try:
        x = Fraction(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterViolation(f"enclosure bound {repr_brief(x)}: {exc}") from None
    d = x.denominator
    if d & (d - 1) == 0:
        return x.numerator, 1 - d.bit_length()
    return _quot(x.numerator, 0, d, DEFAULT_PRECISION, rnd)


class Enclosure:
    """Closed interval [lo, hi] certified to contain the true value.

    Each bound is a dyadic rational held as a pair of ints: dlo = (m, e)
    means lo = m * 2^e, and likewise dhi.  The constructor takes mpf, int
    or Fraction bounds, converts dyadic ones exactly and rounds others
    outward to DEFAULT_PRECISION bits.  lo and hi read as exact Fractions.
    Enclosures are immutable and compare and hash by value."""

    __slots__ = ("dlo", "dhi")

    def __init__(self, lo, hi):
        self.dlo, self.dhi = _dyadic(lo, _floor), _dyadic(hi, _ceil)
        if _add(*self.dlo, -self.dhi[0], self.dhi[1])[0] > 0:
            raise ParameterViolation("enclosure with lo > hi")

    @property
    def lo(self) -> Fraction:
        return _to_fraction(self.dlo)

    @property
    def hi(self) -> Fraction:
        return _to_fraction(self.dhi)

    def bounds(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi

    def __eq__(self, other):
        return isinstance(other, Enclosure) and self.bounds() == other.bounds()

    def __hash__(self):
        return hash(self.bounds())

    def __repr__(self):  # keep reprs short; full precision lives in bounds()
        return f"Enclosure({value_str(self, 12)})"


def _enc(dlo: tuple, dhi: tuple) -> Enclosure:
    """Enclosure from (m, e) bounds known to be ordered, without checks."""
    enc = object.__new__(Enclosure)
    enc.dlo, enc.dhi = dlo, dhi
    return enc


# hot paths test isinstance(v, Enclosure): Fraction's metaclass is ABCMeta,
# which makes isinstance(v, Fraction) several times slower
Value = Union[Fraction, Enclosure]


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INDETERMINATE = 2


def exact_bounds(v: Value) -> tuple[Fraction, Fraction]:
    if isinstance(v, Enclosure):
        return v.bounds()
    return v, v


def _scaled(v: Value) -> tuple:
    """(lo, hi, e, d) with the bounds of v equal to lo * 2^e / d and hi * 2^e / d."""
    if not isinstance(v, Enclosure):
        return v.numerator, v.numerator, 0, v.denominator
    (lm, le), (hm, he) = v.dlo, v.dhi
    e = min(le, he)
    return lm << (le - e), hm << (he - e), e, 1


def compare(a: Value, b: Value) -> Ordering:
    """Three-way comparison; INDETERMINATE iff the intervals overlap without
    being the same single point.  The bounds compare as integers over one
    common scale 2^e / (ad * bd)."""
    alo, ahi, ae, ad = _scaled(a)
    blo, bhi, be, bd = _scaled(b)
    e = min(ae, be)
    alo, ahi = (alo * bd) << (ae - e), (ahi * bd) << (ae - e)
    blo, bhi = (blo * ad) << (be - e), (bhi * ad) << (be - e)
    if ahi < blo:
        return Ordering.LESS
    if alo > bhi:
        return Ordering.GREATER
    if alo == ahi == blo == bhi:
        return Ordering.EQUAL
    return Ordering.INDETERMINATE


def escalate(limits, attempt, top: int = 0):
    """First result of attempt(lim) that is not None, trying the working
    precision of limits times 1, 2 and 4, then doubling on while it stays
    within top bits; None when every rung stays undecided."""
    for i in range(max(3, (top // max(limits.precision, 1)).bit_length())):
        lim = limits if i == 0 else limits.with_(precision=limits.precision << i)
        result = attempt(lim)
        if result is not None:
            return result
    return None


def fraction_to_enclosure(fr: Fraction, prec: int = DEFAULT_PRECISION) -> Enclosure:
    n, d = fr.numerator, fr.denominator
    return _enc(_quot(n, 0, d, prec, _floor), _quot(n, 0, d, prec, _ceil))


def v_add(a: Value, b: Value, prec: int = DEFAULT_PRECISION) -> Value:
    if not isinstance(a, Enclosure):
        if not isinstance(b, Enclosure):
            return a + b
        a, b = b, a
    if not isinstance(b, Enclosure):
        # a Fraction operand is rounded outward first, so the sum rounds twice
        b = fraction_to_enclosure(b, prec)
    return _enc(_floor(*_add(*a.dlo, *b.dlo), prec), _ceil(*_add(*a.dhi, *b.dhi), prec))


def v_mul_int(a: Value, k: int, prec: int = DEFAULT_PRECISION) -> Value:
    """a * k for an exact integer k of either sign."""
    if not isinstance(a, Enclosure):
        return a * k
    (lm, le), (hm, he) = (a.dlo, a.dhi) if k >= 0 else (a.dhi, a.dlo)
    return _enc(_floor(lm * k, le, prec), _ceil(hm * k, he, prec))


def v_div_posint(a: Value, k: int, prec: int = DEFAULT_PRECISION) -> Value:
    """a / k for an exact integer k > 0."""
    if k <= 0:
        raise ParameterViolation("division by a non-positive count")
    if not isinstance(a, Enclosure):
        return a / k
    return _enc(_quot(*a.dlo, k, prec, _floor), _quot(*a.dhi, k, prec, _ceil))


def v_mul_frac(a: Value, c: Fraction, prec: int = DEFAULT_PRECISION) -> Value:
    """a * c for an exact rational c of either sign."""
    if not isinstance(a, Enclosure):
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
    mp = _mpmath()
    eps = mp.ldexp(abs(t), -(prec + _WIDEN_SHIFT))
    lo = mp.fsub(t, eps, prec=prec, rounding="f")
    hi = mp.fadd(t, eps, prec=prec, rounding="c")
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


def power_bounds_run(a: int, b: int, alpha: Fraction, shift: int):
    """Yield power_bounds(n, alpha, shift) for n = a..b (a >= 1): the same pairs.

    With c = n^p and X = 2^(shift*q), each root r starts from the float
    n ** (-p/q) and climbs a ladder of integer Newton steps that double its
    significant bits up to shift - ceil(p*bitlen(n)/q), ending with one step
    on all of floor(X / c).  That step lands at or above the floor root (see
    iroot), and c * r^q <= X, after at most one decrement, puts r at or below
    it: every r is certified, never trusted.  power_bounds serves the rest:
    a failed check, n >= 2^53 (the float seed loses n), roots under 8 bits."""
    p, q = alpha.numerator, alpha.denominator
    qm, x, e = q - 1, 1 << (shift * q), -p / q
    for bl in range(a.bit_length(), b.bit_length() + 1):
        run = range(max(a, 1 << bl >> 1), min(b, (1 << bl) - 1) + 1)
        top = shift + (-p * bl // q)
        if bl > 53 or top < 8:
            yield from (power_bounds(n, alpha, shift) for n in run)
            continue
        # seed at <= 40 bits; climbing from s to at most 2s - 7 bits keeps
        # the Newton error of the next level below 1/8 for q <= 9
        up = [top]
        while up[0] > 40:
            up.insert(0, up[0] // 2 + 4)
        scale = 2.0 ** (shift - top + up[0])
        steps = [(h - s, 1 << q * (shift - top + h)) for s, h in zip(up, up[1:])] or [(0, x)]
        for n in run:
            c = n**p
            r = int(n**e * scale)
            for k, xk in steps:
                r <<= k
                r = (qm * r + xk // (c * r**qm)) // q
            t = c * r**q
            if t > x:
                r -= 1
                t = c * r**q
            yield (r, t == x) if t <= x else power_bounds(n, alpha, shift)


def scaled_enclosure(lo: int, hi: int, shift: int, prec: int) -> Enclosure:
    """[lo / 2^shift, hi / 2^shift] rounded outward to prec bits."""
    return _enc(_floor(lo, -shift, prec), _ceil(hi, -shift, prec))


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
    mp = _mpmath()
    with mp.workprec(prec + _GUARD):
        t = mp.ln(mp.fdiv(fx.numerator, fx.denominator, prec=prec + _GUARD))
    # widen by relative + absolute terms: the absolute term covers the input
    # rounding of p/q, whose log-error does not scale with |ln x| near x = 1
    eps = mp.ldexp(abs(t) + 1, -(prec + _WIDEN_SHIFT))
    lo = mp.fsub(t, eps, prec=prec, rounding="f")
    hi = mp.fadd(t, eps, prec=prec, rounding="c")
    return Enclosure(lo, hi)


def ln_of_value(v: Value, prec: int = DEFAULT_PRECISION) -> Value:
    """Natural log of a positive Value; monotone, so bounds map to bounds."""
    lo, hi = exact_bounds(v)
    if lo <= 0:
        raise ParameterViolation("log of a non-positive value")
    a = ln_value(lo, prec)
    b = ln_value(hi, prec)
    if not isinstance(a, Enclosure):
        a = fraction_to_enclosure(a, prec)
    if not isinstance(b, Enclosure):
        b = fraction_to_enclosure(b, prec)
    return _enc(a.dlo, b.dhi)


def exp_of_value(v: Value, prec: int = DEFAULT_PRECISION) -> Enclosure:
    """e^v for a Value; monotone, so bounds map to bounds.  Each bound is
    rounded outward as it enters mpmath, so only exp's own error is widened."""
    lo, hi = exact_bounds(v)
    mp = _mpmath()
    with mp.workprec(prec + _GUARD):
        tlo = mp.exp(mp.fdiv(lo.numerator, lo.denominator, rounding="f"))
        thi = mp.exp(mp.fdiv(hi.numerator, hi.denominator, rounding="c"))
    return _enc(_widen(tlo, prec).dlo, _widen(thi, prec).dhi)


def pow_of_value(v: Value, beta: Fraction, prec: int = DEFAULT_PRECISION) -> Value:
    """v^beta for a positive Value and rational beta in (0, 1]; monotone."""
    if beta == 1:
        return v
    lo, hi = exact_bounds(v)
    if lo <= 0:
        raise ParameterViolation("power of a non-positive value")
    mp = _mpmath()
    with mp.workprec(prec + _GUARD):
        b = mp.mpf(beta.numerator) / beta.denominator
        tlo = mp.power(mp.fdiv(lo.numerator, lo.denominator, prec=prec + _GUARD), b)
        thi = mp.power(mp.fdiv(hi.numerator, hi.denominator, prec=prec + _GUARD), b)
    return _enc(_widen(tlo, prec).dlo, _widen(thi, prec).dhi)


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (decimal integers, optional sign, any size)."""
    s = s.strip()
    try:
        if "/" in s:
            p, q = s.split("/", 1)
            return Fraction(parse_int(p), parse_int(q))
        return Fraction(parse_int(s))
    except ZeroDivisionError as exc:
        raise ParameterViolation(f"not a rational: {repr_brief(s)}") from exc


def json_field(doc, key: str, kind: type = object):
    """doc[key] from a JSON object, checked to be an instance of kind."""
    if not isinstance(doc, dict):
        raise ParameterViolation(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ParameterViolation(f"JSON object lacks {repr_brief(key)}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ParameterViolation(f"{repr_brief(key)} has the wrong JSON type: {repr_brief(value)}")
    return value


def json_int(v) -> int:
    """An integer given in JSON as a number or a decimal string."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        return parse_int(v)
    raise ParameterViolation(f"not an integer: {repr_brief(v)}")


def json_rational(v) -> Fraction:
    """A rational given in JSON as a "p/q" or "p" string."""
    if not isinstance(v, str):
        raise ParameterViolation(f"not a rational string: {repr_brief(v)}")
    return parse_rational(v)


def rational_str(fr: Fraction) -> str:
    return f"{int_str(fr.numerator)}/{int_str(fr.denominator)}"


def value_str(v: Value, digits: int = 30) -> str:
    """Render a Value for CSV/JSON: "p/q" exact, "lo..hi" for enclosures."""
    if isinstance(v, Fraction):
        return rational_str(v)
    mp = _mpmath()
    # from_man_exp without a precision converts a bound exactly
    lo, hi = (mp.mp.make_mpf(mp.libmp.from_man_exp(*d)) for d in (v.dlo, v.dhi))
    return f"{mp.nstr(lo, digits)}..{mp.nstr(hi, digits)}"
