"""Exact/enclosure arithmetic layer: containment, ordering, parsing."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlmax.errors import ParameterViolation
from hlmax.values import (
    DEFAULT_PRECISION,
    Enclosure,
    Ordering,
    compare,
    exact_bounds,
    fraction_to_enclosure,
    iroot,
    ln_of_value,
    ln_value,
    max_slope_pair,
    parse_rational,
    pow_of_value,
    power_bounds,
    power_shift,
    power_term,
    rational_str,
    v_add,
    v_div_posint,
    v_mul_frac,
    v_mul_int,
    v_sub,
    value_str,
)

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
        for op, true in ((v_add, x + y), (v_sub, x - y)):
            lo, hi = exact_bounds(op(ex, ey, 64))
            assert lo <= true <= hi

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


@st.composite
def split_points(draw):
    """Left points strictly left of right points, x ascending, y from a
    small range so that many slopes tie."""
    xs = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=26, unique=True))
    xs.sort()
    cut = draw(st.integers(1, len(xs) - 1))
    ys = draw(st.lists(st.integers(-6, 6), min_size=len(xs), max_size=len(xs)))
    return xs[:cut], ys[:cut], xs[cut:], ys[cut:]


class TestMaxSlopePair:
    """Both ways of finding the largest slope (direct scan for few pairs,
    hull tangents for many) against every pair."""

    @given(split_points(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_all_pairs(self, pts, as_fractions):
        xl, yl, xr, yr = pts
        if as_fractions:
            xl, xr = [Fraction(x, 3) for x in xl], [Fraction(x, 3) for x in xr]
        best = max(
            (Fraction(yr[j] - yl[i]) / (xr[j] - xl[i]), -(xr[j] - xl[i]))
            for i in range(len(xl))
            for j in range(len(xr))
        )
        i, j = max_slope_pair(xl, yl, xr, yr)
        assert (Fraction(yr[j] - yl[i]) / (xr[j] - xl[i]), -(xr[j] - xl[i])) == best

    def test_hull_route_on_convex_chains(self):
        # every point is a hull vertex: a convex left chain, a concave right one
        xl = list(range(30))
        yl = [x * x for x in xl]
        xr = list(range(40, 70))
        yr = [2000 - (x - 70) ** 2 for x in xr]
        best = max(
            (Fraction(b - a, v - u), u - v)
            for u, a in zip(xl, yl)
            for v, b in zip(xr, yr)
        )
        i, j = max_slope_pair(xl, yl, xr, yr)
        assert (Fraction(yr[j] - yl[i], xr[j] - xl[i]), xl[i] - xr[j]) == best
