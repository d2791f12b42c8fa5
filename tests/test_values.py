"""Exact/enclosure arithmetic layer: containment, ordering, parsing."""

import decimal
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, round_ceiling, round_floor

import hlmax.values
from hlmax import continuum
from hlmax.config import DEFAULT_LIMITS
from hlmax.continuum import StepFunction, maximal_centered_cont
from hlmax.errors import ParameterViolation
from hlmax.signal import Block, BlockSignal
from hlmax.values import (
    DEFAULT_PRECISION,
    Enclosure,
    Ordering,
    compare,
    escalate,
    exact_bounds,
    exp_of_value,
    fraction_to_enclosure,
    int_brief,
    int_str,
    iroot,
    ln_of_value,
    ln_value,
    parse_int,
    parse_rational,
    pow_of_value,
    power_bounds,
    power_bounds_run,
    power_shift,
    power_term,
    rational_str,
    scaled_enclosure,
    v_add,
    v_div_posint,
    v_mul_frac,
    v_mul_int,
    value_str,
)

F = Fraction

fractions_st = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)
pos_fractions_st = st.fractions(
    min_value=Fraction(1, 64), max_value=Fraction(100), max_denominator=64
)


class TestRationalStrings:
    def test_round_trip(self):
        for fr in (Fraction(3, 7), Fraction(-5), Fraction(0), Fraction(22, 4)):
            assert parse_rational(rational_str(fr)) == fr

    def test_plain_integer(self):
        assert parse_rational("17") == Fraction(17)
        assert parse_rational("-4/6") == Fraction(-2, 3)

    def test_garbage_rejected(self):
        with pytest.raises(ParameterViolation):
            parse_rational("3/0")
        with pytest.raises(ParameterViolation):
            parse_rational("a/b")

    def test_value_str_enclosure_uses_dots(self):
        s = value_str(Enclosure(Fraction(1, 3), Fraction(1, 2)))
        assert ".." in s

    def test_value_str_fraction(self):
        assert value_str(Fraction(3, 4)) == "3/4"


class TestIntStrings:
    """int_str and parse_int take str(n) and int(s) first and Decimal past
    the interpreter's digit guard; both routes give the same digits."""

    VALUES = (0, 10**40, -(10**40), 2**20000, -(2**20000))

    # None keeps the interpreter's guard, 640 is its least non-zero
    # setting, 0 turns it off so that str and int take every value
    @pytest.mark.parametrize("guard", [None, 640, 0])
    def test_round_trip_either_side_of_the_guard(self, guard):
        if guard is not None and not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("the interpreter has no int<->str digit guard")
        old = sys.get_int_max_str_digits() if guard is not None else None
        try:
            if guard is not None:
                sys.set_int_max_str_digits(guard)
            for n in self.VALUES:
                digits = int_str(n)
                assert digits == str(decimal.Decimal(n))
                assert parse_int(digits) == n
                assert parse_int(f"  +{digits}  " if n >= 0 else digits) == n
            if guard == 640:  # 2^20000 has 6021 digits: the fallback ran
                with pytest.raises(ValueError):
                    str(2**20000)
        finally:
            if old is not None:
                sys.set_int_max_str_digits(old)

    def test_int_brief_abbreviates_past_100_digits(self):
        for n in (0, 10**99, -(10**100 - 1)):
            assert int_brief(n) == int_str(n)
        digits = int_str(2**20000)  # 6021 digits
        for sign in ("", "-"):
            n = int(sign + "1") * 2**20000
            assert int_brief(n) == f"{sign}{digits[:10]}\u2026{digits[-10:]} (6021 digits)"
        assert int_brief(10**100) == "1000000000\u20260000000000 (101 digits)"


class TestEnclosureBasics:
    def test_order_enforced(self):
        with pytest.raises(ParameterViolation):
            Enclosure(mpmath.mpf(2), mpmath.mpf(1))

    def test_exact_bounds_fraction(self):
        lo, hi = exact_bounds(Fraction(5, 3))
        assert lo == hi == Fraction(5, 3)

    @given(fractions_st)
    def test_fraction_to_enclosure_contains(self, fr):
        enc = fraction_to_enclosure(fr, DEFAULT_PRECISION)
        lo, hi = exact_bounds(enc)
        assert lo <= fr <= hi


class TestCompare:
    def test_exact_orderings(self):
        assert compare(Fraction(1), Fraction(2)) is Ordering.LESS
        assert compare(Fraction(2), Fraction(2)) is Ordering.EQUAL
        assert compare(Fraction(3), Fraction(2)) is Ordering.GREATER

    def test_disjoint_enclosures(self):
        a = Enclosure(mpmath.mpf(1), mpmath.mpf(2))
        b = Enclosure(mpmath.mpf(3), mpmath.mpf(4))
        assert compare(a, b) is Ordering.LESS
        assert compare(b, a) is Ordering.GREATER

    def test_overlap_is_indeterminate(self):
        a = Enclosure(mpmath.mpf(1), mpmath.mpf(3))
        b = Enclosure(mpmath.mpf(2), mpmath.mpf(4))
        assert compare(a, b) is Ordering.INDETERMINATE


class TestIntervalArithmetic:
    @given(fractions_st, fractions_st)
    @settings(max_examples=60)
    def test_add_sub_contain_exact(self, x, y):
        ex = fraction_to_enclosure(x, 64)  # coarse precision forces real widths
        ey = fraction_to_enclosure(y, 64)
        lo, hi = exact_bounds(v_add(ex, ey, 64))
        assert lo <= x + y <= hi

    @given(fractions_st, st.integers(min_value=-50, max_value=50))
    @settings(max_examples=60)
    def test_mul_int_contains(self, x, m):
        ex = fraction_to_enclosure(x, 64)
        lo, hi = exact_bounds(v_mul_int(ex, m, 64))
        assert lo <= x * m <= hi

    @given(fractions_st, st.integers(min_value=1, max_value=50))
    @settings(max_examples=60)
    def test_div_posint_contains(self, x, m):
        ex = fraction_to_enclosure(x, 64)
        lo, hi = exact_bounds(v_div_posint(ex, m, 64))
        assert lo <= x / m <= hi

    @given(fractions_st, fractions_st)
    @settings(max_examples=60)
    def test_mul_frac_contains(self, x, f):
        ex = fraction_to_enclosure(x, 64)
        lo, hi = exact_bounds(v_mul_frac(ex, f, 64))
        assert lo <= x * f <= hi


class TestIroot:
    @given(st.integers(min_value=0, max_value=10**24), st.integers(min_value=1, max_value=6))
    @settings(max_examples=80)
    def test_floor_root(self, x, q):
        r = iroot(x, q)
        assert r**q <= x < (r + 1) ** q

    @given(
        st.integers(min_value=1, max_value=2**3000),
        st.integers(min_value=2, max_value=9),
        st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=80)
    def test_floor_root_near_big_powers(self, m, q, d):
        # roots far beyond a float's 53 bits, right at and beside a power
        x = m**q + d
        r = iroot(x, q)
        assert r**q <= x < (r + 1) ** q

    def test_huge_exact(self):
        assert iroot(2**600, 3) == 2**200


class TestPowerTerm:
    def test_one(self):
        assert power_term(1, Fraction(3, 5), DEFAULT_PRECISION) == Fraction(1)

    def test_exact_perfect_power(self):
        # 32^(-3/5) = 2^(-3)
        assert power_term(32, Fraction(3, 5), DEFAULT_PRECISION) == Fraction(1, 8)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=40)
    def test_contains_truth(self, n):
        # lo <= n^(-3/5) <= hi  <=>  lo^5 * n^3 <= 1 <= hi^5 * n^3, exactly
        v = power_term(n, Fraction(3, 5), 128)
        lo, hi = exact_bounds(v)
        assert lo > 0
        assert lo**5 * n**3 <= 1 <= hi**5 * n**3

    def test_precision_nesting(self):
        coarse = exact_bounds(power_term(7, Fraction(1, 3), 80))
        fine = exact_bounds(power_term(7, Fraction(1, 3), 200))
        assert coarse[0] <= fine[0] <= fine[1] <= coarse[1]
        assert fine[1] - fine[0] < coarse[1] - coarse[0]


ALPHAS = [Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(1, 7)]
# n from 2 up to 2^5000, with every bit length about equally likely
big_n_st = st.integers(min_value=2, max_value=5000).flatmap(
    lambda b: st.integers(min_value=max(2, 2 ** (b - 1)), max_value=2**b - 1)
)


class TestPowerBounds:
    """Integer bounds on n^(-alpha), checked by exact integer arithmetic."""

    @given(big_n_st, st.sampled_from(ALPHAS), st.integers(min_value=0, max_value=400))
    @settings(max_examples=150, deadline=None)
    def test_floor_of_scaled_term(self, n, alpha, shift):
        # m = floor(2^shift * n^(-p/q))  <=>  m^q n^p <= 2^(shift q) < (m+1)^q n^p
        p, q = alpha.numerator, alpha.denominator
        m, exact = power_bounds(n, alpha, shift)
        assert m**q * n**p <= 2 ** (shift * q) < (m + 1) ** q * n**p
        assert exact == (m**q * n**p == 2 ** (shift * q))

    @given(big_n_st, st.sampled_from(ALPHAS), st.sampled_from([64, 256]))
    @settings(max_examples=150, deadline=None)
    def test_power_term_contains_and_is_narrow(self, n, alpha, prec):
        p, q = alpha.numerator, alpha.denominator
        v = power_term(n, alpha, prec)
        lo, hi = exact_bounds(v)
        assert lo > 0
        assert lo**q * n**p <= 1 <= hi**q * n**p
        # relative, not absolute: a fixed 2^-prec grid would fail at large n
        assert (hi - lo) / lo < Fraction(1, 2 ** (prec - 2))

    def test_dyadic_terms_are_exact(self):
        alpha = Fraction(1, 2)
        assert power_bounds(4, alpha, 10) == (512, True)
        assert power_bounds(9, alpha, 10) == (341, False)
        # beyond the perfect-power fast path, a dyadic term is a point
        lo, hi = exact_bounds(power_term(2**10000, alpha, DEFAULT_PRECISION))
        assert lo == hi == Fraction(1, 2**5000)

    def test_shift_keeps_prec_bits(self):
        for n in (2, 3, 1000, 2**5000 - 1):
            for alpha in ALPHAS:
                m, _ = power_bounds(n, alpha, power_shift(n, alpha, 64))
                assert m >= 2**64


# every alpha = p/q in (0, 1) with q from 2 to 9
RUN_ALPHAS = sorted({Fraction(p, q) for q in range(2, 10) for p in range(1, q)})


@st.composite
def power_runs(draw):
    """(alpha, a, b, shift): a short run a..b and a shift for power_bounds_run."""
    alpha = draw(st.sampled_from(RUN_ALPHAS))
    a = draw(
        st.one_of(
            st.just(1),
            st.integers(1, 70).map(lambda k: 2**k),  # around powers of two
            st.integers(2, 2**9).map(lambda m: m**alpha.denominator),  # perfect q-th powers
            st.integers(53, 80).map(lambda k: 2**k),  # the float seed loses n
            big_n_st,
        )
    )
    a = max(1, a + draw(st.integers(-6, 6)))
    b = a + draw(st.integers(0, 24))
    shift = draw(
        st.one_of(
            st.integers(0, 400),
            st.sampled_from([53, 64, 256, 1024]).map(lambda prec: power_shift(b, alpha, prec)),
        )
    )
    return alpha, a, b, shift


class TestPowerBoundsRun:
    """power_bounds_run against power_bounds, term by term."""

    @given(power_runs())
    @settings(max_examples=200, deadline=None)
    def test_matches_power_bounds(self, run):
        alpha, a, b, shift = run
        got = list(power_bounds_run(a, b, alpha, shift))
        assert got == [power_bounds(n, alpha, shift) for n in range(a, b + 1)]

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        reference = hlmax.values.power_bounds

        def counting(n, alpha, shift):
            calls.append(n)
            return reference(n, alpha, shift)

        monkeypatch.setattr(hlmax.values, "power_bounds", counting)
        return calls, reference

    def test_paper_lp_block_takes_the_fast_path(self, monkeypatch):
        # the ladder counts bits of the root, about prec here, not of the
        # scale 2^shift, which is about 15 bits longer at n near 2^25
        calls, reference = self._counted(monkeypatch)
        alpha, a, b = Fraction(3, 5), 2**25 - 300, 2**25 + 300
        shift = power_shift(b, alpha, DEFAULT_PRECISION)
        got = list(power_bounds_run(a, b, alpha, shift))
        assert calls == []
        assert got == [reference(n, alpha, shift) for n in range(a, b + 1)]

    def test_newton_step_without_a_ladder(self, monkeypatch):
        # roots of under 40 bits are seeded at full size; at n = 2^10 the
        # float 2^(-10/5) falls just below 1/4, and only the Newton step
        # lifts the seed back to the exact root 2^18
        calls, reference = self._counted(monkeypatch)
        alpha, shift = Fraction(1, 5), 20
        got = list(power_bounds_run(1000, 1050, alpha, shift))
        assert calls == []
        assert got == [reference(n, alpha, shift) for n in range(1000, 1051)]
        assert got[24] == (2**18, True)


class TestLogs:
    def test_ln_one_exact(self):
        assert ln_value(Fraction(1), DEFAULT_PRECISION) == Fraction(0)

    def test_ln_two_brackets(self):
        lo, hi = exact_bounds(ln_value(2, DEFAULT_PRECISION))
        assert Fraction(693147, 1000000) < lo < hi < Fraction(693148, 1000000)

    def test_ln_monotone_mapping(self):
        v = Enclosure(mpmath.mpf(2), mpmath.mpf(3))
        lo, hi = exact_bounds(ln_of_value(v, DEFAULT_PRECISION))
        l2 = exact_bounds(ln_value(2, DEFAULT_PRECISION))[0]
        h3 = exact_bounds(ln_value(3, DEFAULT_PRECISION))[1]
        assert lo <= l2 and hi >= h3

    def test_pow_of_value_brackets_sqrt(self):
        lo, hi = exact_bounds(pow_of_value(Fraction(2), Fraction(1, 2), DEFAULT_PRECISION))
        assert lo < Fraction(141422, 100000) and hi > Fraction(141421, 100000)
        assert hi - lo < Fraction(1, 10**60)

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(ParameterViolation):
            ln_value(0, DEFAULT_PRECISION)

    @given(
        lo=fractions_st,
        width=st.fractions(0, 1, max_denominator=64),
        prec=st.sampled_from([64, 256, 2048]),
    )
    @settings(max_examples=60, deadline=None)
    def test_exp_of_value_contains_exp(self, lo, width, prec):
        v = lo if width == 0 else Enclosure(lo, lo + width)
        elo, ehi = exact_bounds(exp_of_value(v, prec))
        vlo, vhi = exact_bounds(v)
        with mpmath.workprec(2 * prec + 64):
            tlo = mpmath.exp(mpmath.mpf(vlo.numerator) / vlo.denominator)
            thi = mpmath.exp(mpmath.mpf(vhi.numerator) / vhi.denominator)
        assert elo < mpf_fraction(tlo) and mpf_fraction(thi) < ehi
        # outward by at most a few ulp at prec bits beyond the input's width
        assert elo > mpf_fraction(tlo) * (1 - Fraction(1, 2 ** (prec - 2)))
        assert ehi < mpf_fraction(thi) * (1 + Fraction(1, 2 ** (prec - 2)))


class TestEscalate:
    def test_ladder(self):
        seen = []

        def undecided(lim):
            seen.append(lim.precision)

        assert escalate(DEFAULT_LIMITS, undecided) is None
        assert seen == [256, 512, 1024]  # working precision times 1, 2, 4
        seen.clear()
        # a top past 4x keeps doubling while the rung stays within it
        assert escalate(DEFAULT_LIMITS, undecided, 4 * (14774 + 64)) is None
        assert seen == [256 << i for i in range(8)]
        seen.clear()
        assert escalate(DEFAULT_LIMITS, lambda lim: seen.append(lim.precision) or 7) == 7
        assert seen == [256]
        seen.clear()
        # the rung count is fixed up front, so a precision of 0, which never
        # doubles its way to top, still ends
        assert escalate(DEFAULT_LIMITS.with_(precision=0), undecided, 1024) is None
        assert seen == [0] * 11


# Reference for the integer enclosure arithmetic: every operation done as
# mpmath floats with directed rounding, floor for lo and ceiling for hi, on
# bounds converted exactly.  A Fraction operand of a mixed operation is
# first rounded outward to prec bits, then the result is rounded again.


def mpf_exact(fr: Fraction):
    """A dyadic Fraction as an mpf, exactly."""
    d = fr.denominator
    assert d & (d - 1) == 0
    return mpmath.mp.make_mpf(from_man_exp(fr.numerator, 1 - d.bit_length()))


def mpf_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def ref_pair(v, prec: int) -> tuple:
    if isinstance(v, Fraction):
        return (
            mpmath.fdiv(v.numerator, v.denominator, prec=prec, rounding="f"),
            mpmath.fdiv(v.numerator, v.denominator, prec=prec, rounding="c"),
        )
    lo, hi = exact_bounds(v)
    return mpf_exact(lo), mpf_exact(hi)


def ref_bounds(r) -> tuple:
    if isinstance(r, Fraction):
        return r, r
    return mpf_fraction(r[0]), mpf_fraction(r[1])


def ref_add(a, b, prec):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    (alo, ahi), (blo, bhi) = ref_pair(a, prec), ref_pair(b, prec)
    return (
        mpmath.fadd(alo, blo, prec=prec, rounding="f"),
        mpmath.fadd(ahi, bhi, prec=prec, rounding="c"),
    )


def ref_mul_int(pair, k, prec):
    lo, hi = pair if k >= 0 else pair[::-1]
    return (
        mpmath.fmul(lo, k, prec=prec, rounding="f"),
        mpmath.fmul(hi, k, prec=prec, rounding="c"),
    )


def ref_div_posint(pair, k, prec):
    return (
        mpmath.fdiv(pair[0], k, prec=prec, rounding="f"),
        mpmath.fdiv(pair[1], k, prec=prec, rounding="c"),
    )


def ref_scaled(lo, hi, shift, prec):
    return (
        mpmath.mp.make_mpf(from_man_exp(lo, -shift, prec, round_floor)),
        mpmath.mp.make_mpf(from_man_exp(hi, -shift, prec, round_ceiling)),
    )


def ref_compare(a, b) -> Ordering:
    (alo, ahi), (blo, bhi) = exact_bounds(a), exact_bounds(b)
    if ahi < blo:
        return Ordering.LESS
    if alo > bhi:
        return Ordering.GREATER
    if alo == ahi == blo == bhi:
        return Ordering.EQUAL
    return Ordering.INDETERMINATE


PRECS = [64, 256, 512, 1024]
# exponents near -10000, 0 and +10000
scale_st = st.one_of(
    st.just(0), st.integers(-10010, -9990), st.integers(9990, 10010)
)
# numerators up to about 10^90 over odd, dyadic or arbitrary denominators
big_fraction_st = st.builds(
    lambda n, d, e: Fraction(n, d) * Fraction(2) ** e,
    st.integers(-(10**90), 10**90),
    st.one_of(st.just(1), st.sampled_from([3, 7, 2**40]), st.integers(1, 10**30)),
    scale_st,
)


@st.composite
def operand(draw, prec: int):
    """An exact Fraction or an Enclosure built the way the engines build
    them: a rounded Fraction, a scaled integer window or a power term."""
    kind = draw(st.sampled_from(["fraction", "rounded", "scaled", "power"]))
    if kind == "fraction":
        return draw(big_fraction_st)
    if kind == "rounded":
        return fraction_to_enclosure(draw(big_fraction_st), prec)
    if kind == "scaled":
        lo = draw(st.integers(-(10**90), 10**90))
        hi = lo + draw(st.integers(0, 10**90))
        shift = draw(st.one_of(st.integers(0, 400), st.integers(9990, 10010)))
        return scaled_enclosure(lo, hi, shift, prec)
    return power_term(draw(st.integers(2, 10**30)), draw(st.sampled_from(ALPHAS)), prec)


@st.composite
def two_operands(draw):
    prec = draw(st.sampled_from(PRECS))
    return prec, draw(operand(prec)), draw(operand(prec))


class TestIntegerArithmeticMatchesMpmath:
    """Each integer operation gives bounds equal, not just contained, to
    those of mpmath's directed-rounding floats at the same precision."""

    @given(two_operands())
    @settings(max_examples=300, deadline=None)
    def test_add_sub(self, ops):
        prec, a, b = ops
        assert exact_bounds(v_add(a, b, prec)) == ref_bounds(ref_add(a, b, prec))

    @given(
        two_operands(),
        st.integers(-(10**40), 10**40),
        st.integers(1, 10**40),
        st.fractions(max_denominator=10**20).filter(lambda c: abs(c) < 10**20),
    )
    @settings(max_examples=300, deadline=None)
    def test_mul_div(self, ops, k, d, c):
        prec, a, _ = ops
        if isinstance(a, Fraction):
            a = fraction_to_enclosure(a, prec)
        pair = ref_pair(a, prec)
        assert exact_bounds(v_mul_int(a, k, prec)) == ref_bounds(ref_mul_int(pair, k, prec))
        assert exact_bounds(v_div_posint(a, d, prec)) == ref_bounds(
            ref_div_posint(pair, d, prec)
        )
        ref = ref_div_posint(ref_mul_int(pair, c.numerator, prec), c.denominator, prec)
        assert exact_bounds(v_mul_frac(a, c, prec)) == ref_bounds(ref)

    @given(big_fraction_st, st.sampled_from(PRECS))
    @settings(max_examples=200, deadline=None)
    def test_fraction_to_enclosure(self, fr, prec):
        assert exact_bounds(fraction_to_enclosure(fr, prec)) == ref_bounds(ref_pair(fr, prec))

    @given(
        st.integers(-(10**90), 10**90),
        st.integers(0, 10**90),
        st.one_of(st.integers(-50, 400), st.integers(9990, 10010)),
        st.sampled_from(PRECS),
    )
    @settings(max_examples=200, deadline=None)
    def test_scaled_enclosure(self, lo, width, shift, prec):
        got = exact_bounds(scaled_enclosure(lo, lo + width, shift, prec))
        assert got == ref_bounds(ref_scaled(lo, lo + width, shift, prec))

    @given(two_operands())
    @settings(max_examples=300, deadline=None)
    def test_compare_overlap_and_printing(self, ops):
        prec, a, b = ops
        # results of arithmetic too, so that near ties and overlaps occur
        s = v_add(a, b, prec)
        for x, y in ((a, b), (s, a), (v_add(s, v_mul_int(b, -1, prec), prec), a)):
            assert compare(x, y) is ref_compare(x, y)
        for x in (a, s):
            if not isinstance(x, Fraction):
                lo, hi = ref_pair(x, prec)
                assert value_str(x) == f"{mpmath.nstr(lo, 30)}..{mpmath.nstr(hi, 30)}"


class TestEnclosureConstructor:
    def test_dyadic_bounds_are_exact_and_compare_by_value(self):
        a = Enclosure(mpmath.mpf(0.75), mpmath.mpf(2))
        assert a.bounds() == (Fraction(3, 4), Fraction(2))
        b = Enclosure(Fraction(6, 8), 2)
        assert a == b and hash(a) == hash(b)
        assert a != Enclosure(Fraction(3, 4), Fraction(5, 2))
        assert a.lo < 1 < a.hi and a.lo > 0.5

    @given(fractions_st)
    def test_other_fractions_round_outward_at_default_precision(self, fr):
        assert Enclosure(fr, fr).bounds() == ref_bounds(ref_pair(fr, DEFAULT_PRECISION))

    def test_non_finite_bounds_rejected(self):
        for bad in (mpmath.inf, -mpmath.inf, mpmath.nan, float("inf"), "x"):
            with pytest.raises(ParameterViolation):
                Enclosure(0, bad)


def window_radius(blocks, n: int) -> int:
    """The kink walk for the windows [n - r, n + r] of BlockSignal(blocks):
    the ball of radius R = 2r + 1 in half units about n + 1/2, so R is 0
    when f(n) alone is the maximum, else 2r + 1."""
    lay = BlockSignal(blocks).layout
    return lay.centered_radius(2 * (n - lay.lo) + 1, 2)


def ball_radius(f: StepFunction, x) -> Fraction:
    """The kink walk for the balls about x, in units of x."""
    lay = f.layout
    c, q = lay.offset(Fraction(x))
    return Fraction(lay.centered_radius(c, q), lay.dx * q)


class Reads(list):
    """A list that records which indices its slices read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.read.update(range(*key.indices(len(self))))
        return super().__getitem__(key)


class TestMaxAverageRadius:
    """The centered kink walk, StepLayout.centered_radius: the least radius
    maximizing M(r) / (2r), r = 0 for the vanishing limit, with the windows
    of a signal on Z as the balls of radius 2r + 1 about n + 1/2."""

    def test_odd_windows(self):
        # f(0) = 1, then 0 up to r = 3 and 2 on both sides at r = 4, 5:
        # M(5) = 9 and 9/11 < 1/1, so radius 0
        assert window_radius([Block(-5, -4, F(2)), Block(0, 0, F(1)), Block(4, 5, F(2))], 0) == 0
        # every window of ones averages 1: the smallest radius wins
        assert window_radius([Block(-2, 2, F(1))], 0) == 0
        # M(4) = 1 + 3*3 = 10 over 9 beats 1: r = 4, R = 9
        assert window_radius([Block(-4, -2, F(1)), Block(0, 0, F(1)), Block(2, 4, F(2))], 0) == 9

    def test_even_windows_start_from_the_vanishing_limit(self):
        # rate 2 near 0 averages 1, as the ball of radius 1 does; both edges
        # raise the rate at r = 1, so M(3) = 14 and 14/6 > 1
        assert ball_radius(StepFunction([-3, -1, 1, 3], [3, 1, 3]), 0) == 3
        assert ball_radius(StepFunction([-1, 1], [1]), 0) == 0

    def test_stop_at_the_bound_keeps_a_tie_at_a_larger_radius_out(self):
        # M(0) = 3 over 1; M(4) = 27, the total mass, over 9 ties it, so
        # the walk may stop at r = 4 and the answer stays 0
        assert window_radius([Block(-4, -2, F(4)), Block(0, 0, F(3)), Block(2, 4, F(4))], 0) == 0
        # the total mass at the end wins: M(4) = 19 over 9
        assert window_radius([Block(-4, -2, F(3)), Block(0, 0, F(1)), Block(2, 4, F(3))], 0) == 9

    def test_skipped_stretch_that_ties_keeps_the_smaller_radius(self):
        # g = 1, 3, 0, 2, 0, 1 on the unit cells either side of 0: the mean
        # over (0, 2) is 2; the stretch of the kinks at 3 and 4 ends with
        # mass 2 * 6 and 12 / (2 * 3) ties 2, so it is skipped unread
        g = [1, 3, 0, 2, 0, 1]
        f = StepFunction(range(-6, 7), g[::-1] + g)
        lay = replace(f.layout, jumps=Reads(f.layout.jumps))
        with patch.object(continuum, "_STRETCH", 2):
            assert lay.centered_radius(*lay.offset(F(0))) == 2
        tied = {i for i, x in enumerate(lay.xs) if abs(x - 6) in (3, 4)}
        assert len(tied) == 4 and not lay.jumps.read & tied
        assert maximal_centered_cont(f, 0).max_value == 2

    def test_best_after_a_skipped_zero_gap(self):
        # g = 1, 0, 1, 0, 4: one kink a side per stretch, the stretches
        # at 2, 3 and 4 are skipped, the last with the zero cell (3, 4)
        # before it; only both edges' slope on (4, 5) make the ball of
        # radius 5 the best, mean 6/5 against 1
        g = [1, 0, 1, 0, 4]
        f = StepFunction(range(-5, 6), g[::-1] + g)
        for size in (1, 2, 10**9):
            with patch.object(continuum, "_STRETCH", size):
                assert ball_radius(f, 0) == 5
                assert maximal_centered_cont(f, 0).max_value == F(6, 5)
        # the same on one side, with x on the left end of the support
        with patch.object(continuum, "_STRETCH", 1):
            assert ball_radius(StepFunction(range(6), g), 0) == 5

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=12),
        st.lists(st.integers(0, 6), min_size=1, max_size=12),
        st.booleans(),
        st.sampled_from((1, 2, 3, 10**9)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_a_scan_of_every_radius(self, left, right, odd, size):
        """Values on the unit cells left and right of 0 (of the point 0 on
        Z when odd); the walk against the least argmax over every radius:
        the integer ones are every kink radius."""
        if not any(left + right):
            right[0] = 1
        g = left[::-1] + right
        cell = dict(enumerate(g, -len(left)))  # cell n: the point n, or (n, n + 1)
        if odd:
            masses = [cell[0]]  # M(r), the mass of the window [-r, r]
            for r in range(1, len(g) + 1):
                masses.append(masses[-1] + cell.get(-r, 0) + cell.get(r, 0))
            averages = [F(m, 2 * r + 1) for r, m in enumerate(masses)]
            want = averages.index(max(averages))
            blocks = [Block(n, n, F(v)) for n, v in cell.items() if v]
            with patch.object(continuum, "_STRETCH", size):
                assert window_radius(blocks, 0) == (2 * want + 1 if want else 0)
        else:
            masses = [0]  # M(r), the mass of the ball (-r, r)
            for r in range(1, len(g) + 1):
                masses.append(masses[-1] + cell.get(-r, 0) + cell.get(r - 1, 0))
            averages = [F(cell[-1] + cell[0], 2)] + [F(m, 2 * r) for r, m in enumerate(masses) if r]
            want = averages.index(max(averages))
            f = StepFunction(range(-len(left), len(right) + 1), g)
            with patch.object(continuum, "_STRETCH", size):
                assert ball_radius(f, 0) == want


LAZY_MPMATH_SCRIPT = """
import sys
from fractions import Fraction
import hlmax
from hlmax.cli import main
from hlmax.continuum import StepFunction, maximal_centered_cont
from hlmax.maxengine import event_centered, event_uncentered
from hlmax.signal import Block, BlockSignal

sig = BlockSignal([Block(0, 2, Fraction(1, 3)), Block(5, 5, Fraction(2))])
event_centered(sig, 9)
event_uncentered(sig, 1)
maximal_centered_cont(StepFunction([0, Fraction(1, 2), 2], [1, 3]), Fraction(1))
assert main(["profile", "--signal", sys.argv[1], "--range", "-5..40", "--out", sys.argv[2]]) == 0
print("mpmath" in sys.modules)
"""


class TestLazyMpmath:
    def test_constant_work_never_imports_mpmath(self, tmp_path):
        # mpmath serves only logs, fractional powers and printing enclosures
        sig = tmp_path / "s.json"
        sig.write_text(
            '{"type": "blocks", "blocks": [{"start": "0", "end": "9", "amp": {"const": "1/2"}},'
            ' {"start": "20", "end": "21", "amp": {"const": "3"}}]}'
        )
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_MPMATH_SCRIPT, str(sig), str(tmp_path / "p.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False"
        assert (tmp_path / "p.csv").read_text().count("\n") == 47

    def test_first_use_imports_it(self):
        assert value_str(Enclosure(Fraction(1, 2), 1)) == "0.5..1.0"
        assert hlmax.values.mpmath is mpmath
