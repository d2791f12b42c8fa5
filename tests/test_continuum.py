"""Continuous maximal averages on step functions: worked examples with
hand-computed exact values, the vanishing-radius convention, minimal-diameter
tie-breaking, and the grid-scan oracle (exact equality on lattice geometry,
where every candidate radius lies on a coarse dyadic grid)."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlmax import continuum
from hlmax.continuum import (
    ContinuousResult,
    StepFunction,
    average_ball,
    grid_scan_centered,
    maximal_centered_cont,
    maximal_uncentered_cont,
    step_from_json,
    step_to_json,
    step_layout,
)
from hlmax.config import Limits
from hlmax.errors import BudgetExceeded, NonpositiveRadius, ParameterViolation, ZeroSignal
from hlmax.maxengine import (
    CenteredResult,
    UncenteredResult,
    event_centered,
    event_uncentered,
    frequency_pieces,
    oracle_centered_range,
    oracle_uncentered_range,
)
from hlmax.signal import Block, BlockSignal, as_blocks, norm_l1, support_bounds
from dense_form import to_dense

F = Fraction


def box() -> StepFunction:
    """The unit-height indicator of (-1, 1)."""
    return StepFunction([-1, 1], [1])


class TestStepFunctionValidation:
    def test_breakpoint_count_mismatch(self):
        with pytest.raises(ParameterViolation):
            StepFunction([0, 1, 2], [1])

    def test_breakpoints_must_increase(self):
        with pytest.raises(ParameterViolation):
            StepFunction([0, 0, 1], [1, 2])

    def test_negative_value_rejected(self):
        with pytest.raises(ParameterViolation):
            StepFunction([0, 1], [-1])

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroSignal):
            StepFunction([0, 1, 2], [0, 0])

    def test_zero_padding_trimmed(self):
        f = StepFunction([-5, -1, 1, 5], [0, 1, 0])
        assert f.breakpoints == (F(-1), F(1))
        assert f.values == (F(1),)
        assert f == box()

    def test_integral(self):
        f = StepFunction([0, 1, 3], [F(1, 2), 2])
        assert f.integral() == F(1, 2) + 2 * 2

    def test_mass_additive(self):
        f = StepFunction([0, 1, 3, 4], [F(1, 2), 2, F(3, 7)])
        pts = [F(-1), F(0), F(1, 3), F(1), F(2), F(3), F(7, 2), F(4), F(9)]
        for a in pts:
            for b in pts:
                for c in pts:
                    if a <= b <= c:
                        assert f.mass(a, c) == f.mass(a, b) + f.mass(b, c)

    def test_mass_outside_support_is_zero(self):
        f = box()
        assert f.mass(2, 10) == 0
        assert f.mass(-10, -1) == 0
        assert f.mass(5, 3) == 0

    def test_one_sided_limits(self):
        f = StepFunction([0, 1, 3], [2, 5])
        assert f.one_sided_limits(F(1, 2)) == (F(2), F(2))
        assert f.one_sided_limits(F(1)) == (F(2), F(5))
        assert f.one_sided_limits(F(0)) == (F(0), F(2))
        assert f.one_sided_limits(F(3)) == (F(5), F(0))
        assert f.one_sided_limits(F(10)) == (F(0), F(0))
        assert f.one_sided_limits(F(-10)) == (F(0), F(0))


class TestAverageBall:
    def test_exact_values_on_box(self):
        f = box()
        assert average_ball(f, 2, 3) == F(1, 3)
        assert average_ball(f, 2, 1) == 0
        assert average_ball(f, 0, F(1, 2)) == 1
        assert average_ball(f, 0, 4) == F(2, 8)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(NonpositiveRadius):
            average_ball(box(), 0, 0)
        with pytest.raises(NonpositiveRadius):
            average_ball(box(), 0, -1)


class TestWorkedExample:
    """Indicator of (-1, 1) evaluated at x = 2: the centered maximum is 1/3
    at radius 3 (the ball must stretch back to cover the whole support
    before the average peaks) and the uncentered maximum is 2/3 on the
    interval (-1, 2) of length 3."""

    def test_centered_at_two(self):
        res = maximal_centered_cont(box(), 2)
        assert (res.max_value, res.radius, res.attained) == (F(1, 3), F(3), True)

    def test_uncentered_at_two(self):
        res = maximal_uncentered_cont(box(), 2)
        assert (res.max_value, res.radius, res.attained) == (F(2, 3), F(3, 2), True)

    def test_centered_inside_support(self):
        res = maximal_centered_cont(box(), 0)
        assert (res.max_value, res.radius) == (F(1), F(0))

    def test_uncentered_inside_support(self):
        res = maximal_uncentered_cont(box(), 0)
        assert (res.max_value, res.radius) == (F(1), F(0))

    def test_at_breakpoint(self):
        res = maximal_centered_cont(box(), 1)
        assert (res.max_value, res.radius) == (F(1, 2), F(0))
        unc = maximal_uncentered_cont(box(), 1)
        assert (unc.max_value, unc.radius) == (F(1), F(0))

    def test_symmetry(self):
        for x in [F(3, 2), F(2), F(5), F(17, 8)]:
            a = maximal_centered_cont(box(), x)
            b = maximal_centered_cont(box(), -x)
            assert (a.max_value, a.radius) == (b.max_value, b.radius)


class TestRadiusConvention:
    def test_vanishing_radius_wins_on_plateau(self):
        # Value 2 on (-1, 1) flanked by value 1: every r <= 1 attains the
        # maximum 2, and the infimum of the attaining set is reported.
        f = StepFunction([-3, -1, 1, 3], [1, 2, 1])
        res = maximal_centered_cont(f, 0)
        assert (res.max_value, res.radius, res.attained) == (F(2), F(0), True)

    def test_gap_forces_positive_radius(self):
        # Support (-3,-1) u (1,3) seen from the origin: the average is 0
        # until r passes 1, then climbs to its peak exactly at r = 3.
        f = StepFunction([-3, -1, 1, 3], [1, 0, 1])
        res = maximal_centered_cont(f, 0)
        assert (res.max_value, res.radius) == (F(2, 3), F(3))

    def test_uncentered_minimal_diameter_tie(self):
        # Two unit masses; from x = 4 the intervals (0, 4) and (2, 4) both
        # average 1/2, and the shorter one is reported: radius 2/2 = 1.
        f = StepFunction([0, 1, 2, 3], [1, 0, 1])
        res = maximal_uncentered_cont(f, 4)
        assert (res.max_value, res.radius) == (F(1, 2), F(1))

    def test_uncentered_beats_centered(self):
        f = StepFunction([0, 1, 2, 3], [1, 0, 1])
        for x in [F(-2), F(0), F(3, 2), F(3), F(4), F(11, 2)]:
            c = maximal_centered_cont(f, x)
            u = maximal_uncentered_cont(f, x)
            assert u.max_value >= c.max_value


class TestGridScan:
    def test_validation(self):
        with pytest.raises(ParameterViolation):
            grid_scan_centered(box(), 2, F(4), 0)
        with pytest.raises(ParameterViolation):
            grid_scan_centered(box(), 2, F(0), 16)

    def test_step_count_capped(self):
        with pytest.raises(BudgetExceeded):
            grid_scan_centered(box(), 2, F(4), 10**12)
        tight = Limits(scan_radius_cap=16)
        assert grid_scan_centered(box(), 2, F(4), 16, tight) == (F(1, 3), F(3))
        with pytest.raises(BudgetExceeded):
            grid_scan_centered(box(), 2, F(4), 17, tight)

    def test_grid_hits_the_maximizer(self):
        best, best_r = grid_scan_centered(box(), 2, F(4), 16)
        assert best == F(1, 3)
        assert best_r == F(3)

    def test_grid_below_engine_off_lattice(self):
        # Step 5/7 never lands on the maximizing radius 3, so the scan
        # stays strictly below the true maximum.
        best, _ = grid_scan_centered(box(), 2, F(5), 7)
        res = maximal_centered_cont(box(), 2)
        assert best < res.max_value


def random_lattice_step(rng: random.Random) -> StepFunction:
    """Random step function with breakpoints and values on the 1/8 lattice;
    every centered candidate radius at a lattice x is then a multiple of
    1/8 and lands on any dyadic grid at least that fine."""
    while True:
        n_pieces = rng.randint(1, 6)
        bps = sorted(rng.sample(range(-40, 41), n_pieces + 1))
        vals = [F(rng.randint(0, 8), 8) for _ in range(n_pieces)]
        if any(vals):
            return StepFunction([F(b, 8) for b in bps], vals)


class TestLatticeGridEquality:
    def test_grid_matches_engine_exactly(self):
        rng = random.Random(20260818)
        for _ in range(20):
            f = random_lattice_step(rng)
            x = F(rng.randint(-48, 48), 8)
            res = maximal_centered_cont(f, x)
            # r_max = 16 covers every candidate |x - b| <= 11; step 1/8.
            best, _ = grid_scan_centered(f, x, F(16), 128)
            assert best == res.max_value

    def test_grid_never_exceeds_engine(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_lattice_step(rng)
            x = F(rng.randint(-100, 100), 16)
            res = maximal_centered_cont(f, x)
            best, _ = grid_scan_centered(f, x, F(20), 100)
            assert best <= res.max_value


values_st = st.lists(
    st.fractions(min_value=F(0), max_value=F(4), max_denominator=8),
    min_size=1,
    max_size=5,
).filter(lambda vs: any(vs))


@st.composite
def step_functions(draw):
    vals = draw(values_st)
    bps = draw(
        st.lists(
            st.integers(min_value=-24, max_value=24),
            min_size=len(vals) + 1,
            max_size=len(vals) + 1,
            unique=True,
        )
    )
    return StepFunction([F(b, 4) for b in sorted(bps)], vals)


class TestProperties:
    @given(step_functions(), st.integers(min_value=-30, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_max_dominates_pointwise_limits(self, f, x8):
        x = F(x8, 4)
        left, right = f.one_sided_limits(x)
        res = maximal_centered_cont(f, x)
        assert res.max_value >= (left + right) / 2
        unc = maximal_uncentered_cont(f, x)
        assert unc.max_value >= max(left, right)
        assert unc.max_value >= res.max_value

    @given(step_functions(), st.integers(min_value=-30, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_scaling_moves_value_not_radius(self, f, x8):
        x = F(x8, 4)
        c = F(5, 7)
        scaled = StepFunction(f.breakpoints, [c * v for v in f.values])
        a = maximal_centered_cont(f, x)
        b = maximal_centered_cont(scaled, x)
        assert b.max_value == c * a.max_value
        assert b.radius == a.radius

    @given(step_functions(), st.integers(min_value=-30, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_reported_radius_attains_maximum(self, f, x8):
        x = F(x8, 4)
        res = maximal_centered_cont(f, x)
        if res.radius > 0:
            assert average_ball(f, x, res.radius) == res.max_value
        else:
            left, right = f.one_sided_limits(x)
            assert res.max_value == (left + right) / 2

    @given(step_functions(), st.integers(min_value=-30, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_uncentered_norm_bound(self, f, x8):
        # Any interval average is at most ||f||_1 / length, and the maximal
        # function is bounded below by the average over the support hull.
        x = F(x8, 4)
        res = maximal_uncentered_cont(f, x)
        lo_bp, hi_bp = f.breakpoints[0], f.breakpoints[-1]
        hull_lo, hull_hi = min(lo_bp, x), max(hi_bp, x)
        if hull_hi > hull_lo:
            assert res.max_value >= f.integral() / (hull_hi - hull_lo)



def grid_oracle_uncentered(f: StepFunction, x: Fraction) -> tuple:
    """Brute force over every interval (a, b) containing x with both ends
    on the quarter grid between the support and x: the largest average and,
    among the intervals attaining it, the shortest length; (max(f(x-),
    f(x+)), 0) when vanishing intervals already reach the maximum."""
    lo, hi = min(f.breakpoints[0], x), max(f.breakpoints[-1], x)
    grid = [lo + F(k, 4) for k in range(int((hi - lo) * 4) + 1)]
    best, best_len = F(-1), F(0)
    for a in (g for g in grid if g <= x):
        for b in (g for g in grid if g >= x and g > a):
            avg = f.mass(a, b) / (b - a)
            if avg > best or (avg == best and b - a < best_len):
                best, best_len = avg, b - a
    limit = max(f.one_sided_limits(x))
    return (best, best_len) if best > limit else (limit, F(0))


class TestUncenteredAgainstGridOracle:
    """Breakpoints and x sit on the quarter grid, so every interval end the
    engine considers is a grid point and the oracle's answer is exact."""

    @given(step_functions(), st.integers(min_value=-30, max_value=30), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, f, x4, data):
        # half the draws put x on a breakpoint, where one-sided limits differ
        if data.draw(st.booleans()):
            x = data.draw(st.sampled_from(f.breakpoints))
        else:
            x = F(x4, 4)
        res = maximal_uncentered_cont(f, x)
        assert (res.max_value, 2 * res.radius) == grid_oracle_uncentered(f, x)

    def test_zero_length_pair_excluded(self):
        # From x = 3/2 the intervals (0, 3/2) and (3/2, 3) both average
        # 2/3, as does (0, 3); x is both a left and a right candidate end,
        # and the shortest maximizer has length 3/2, not 0.
        f = StepFunction([0, 1, 2, 3], [1, 0, 1])
        res = maximal_uncentered_cont(f, F(3, 2))
        assert (res.max_value, res.radius) == (F(2, 3), F(3, 4))
        assert grid_oracle_uncentered(f, F(3, 2)) == (F(2, 3), F(3, 2))

    def test_same_answer_at_two_to_the_10000(self):
        rng = random.Random(11)
        big = 2**10000
        for _ in range(10):
            f = random_lattice_step(rng)
            x = F(rng.randint(-48, 48), 8)
            moved = StepFunction([b + big for b in f.breakpoints], f.values)
            a, b = maximal_uncentered_cont(f, x), maximal_uncentered_cont(moved, x + big)
            assert (a.max_value, a.radius) == (b.max_value, b.radius)


def candidate_loop_centered(f: StepFunction, x: Fraction) -> tuple:
    """Reference for maximal_centered_cont: the mean of the one-sided limits,
    then every radius |x - b| in ascending order, keeping strict gains."""
    left, right = f.one_sided_limits(x)
    best, best_r = (left + right) / 2, F(0)
    for r in sorted({abs(x - b) for b in f.breakpoints} - {F(0)}):
        avg = average_ball(f, x, r)
        if avg > best:
            best, best_r = avg, r
    return best, best_r


@st.composite
def rational_step_functions(draw):
    """Breakpoints with denominators up to 6 and values with zero pieces
    inside the support, so jumps of either sign and plateaus occur."""
    vals = draw(
        st.lists(
            st.fractions(min_value=F(0), max_value=F(5), max_denominator=6),
            min_size=1,
            max_size=8,
        ).filter(any)
    )
    bps = draw(
        st.lists(
            st.fractions(min_value=F(-12), max_value=F(12), max_denominator=6),
            min_size=len(vals) + 1,
            max_size=len(vals) + 1,
            unique=True,
        )
    )
    return StepFunction(sorted(bps), vals)


def rational_points(f: StepFunction):
    """Points with denominators up to 12: breakpoints, their neighbours at
    +-1/d (a layout unit away when the offsets have small denominators)
    and points anywhere within 20 of the origin."""
    return st.one_of(
        st.sampled_from(f.breakpoints),
        st.builds(
            lambda b, d, s: b + F(s, d),
            st.sampled_from(f.breakpoints),
            st.integers(min_value=1, max_value=12),
            st.sampled_from((-1, 1)),
        ),
        st.fractions(min_value=F(-20), max_value=F(20), max_denominator=12),
    )


def piecewise_mass(f: StepFunction, a: Fraction, b: Fraction) -> Fraction:
    """Mass over (a, b) summed piece by piece in Fractions."""
    bps = f.breakpoints
    return sum(
        (v * max(F(0), min(b, hi) - max(a, lo)) for v, lo, hi in zip(f.values, bps, bps[1:])),
        F(0),
    )


def chord_oracle_uncentered(f: StepFunction, x: Fraction) -> tuple:
    """Reference for maximal_uncentered_cont at any rational x, in piecewise
    Fractions: every chord from an end in {breakpoints <= x} u {x} to one in
    {breakpoints >= x} u {x}, the zero-length pair (x, x) excluded; the
    largest average and the shortest length attaining it, or (max(f(x-),
    f(x+)), 0) when vanishing intervals already reach it.  The mass from
    the support start to each end is a running sum of whole pieces, so the
    chords cost one subtraction each and layouts of 800 pieces stay cheap."""
    bps = f.breakpoints
    pieces = list(zip(f.values, bps, bps[1:]))
    mass_to = {bps[0]: F(0)}
    for v, lo, hi in pieces:
        mass_to[hi] = mass_to[lo] + v * (hi - lo)
    mass_to.setdefault(x, piecewise_mass(f, bps[0], x))
    lefts = {b for b in bps if b <= x} | {x}
    rights = {b for b in bps if b >= x} | {x}
    best, best_len = F(-1), F(0)
    for a in lefts:
        for b in rights:
            if b > a:
                avg = (mass_to[b] - mass_to[a]) / (b - a)
                if avg > best or (avg == best and b - a < best_len):
                    best, best_len = avg, b - a
    limit = max([F(0)] + [v for v, lo, hi in pieces if lo <= x <= hi])
    return (best, best_len) if best > limit else (limit, F(0))


class TestUncenteredOffGrid:
    """x with denominators up to 12 against breakpoints with denominators up
    to 6, so the denominator of x's offset need not divide the layout's."""

    @given(rational_step_functions(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_chord_oracle(self, f, data):
        xs = data.draw(st.lists(rational_points(f), min_size=1, max_size=4))
        for x in xs:
            res = maximal_uncentered_cont(f, x)
            assert (res.max_value, 2 * res.radius) == chord_oracle_uncentered(f, x)


def hull_chain(parent: list, i: int) -> list:
    """The vertices reached from i by the compiled parent pointers."""
    chain = []
    while 0 <= i < len(parent):
        chain.append(i)
        i = parent[i]
    return chain


def brute_hull(pts: list, lower: bool) -> list:
    """Indices of the strict lower (upper) hull vertices of pts, ascending
    in x: a point is one exactly when a line through it has every other
    point strictly above (below) it, that is when every chord from a point
    left of it is less steep (steeper) than every chord to a point right of
    it.  The two end points always are."""
    out = []
    for k, (x, y) in enumerate(pts):
        into = [F(y - v, x - u) for u, v in pts[:k]]
        away = [F(v - y, u - x) for u, v in pts[k + 1 :]]
        if not into or not away or (max(into) < min(away) if lower else min(into) > max(away)):
            out.append(k)
    return out


def unit_layout(values: list, widths: list):
    """The StepLayout of integer values (of any sign) on integer widths,
    so its heights ys are the plain running masses (dy = 1)."""
    bps = [0]
    for w in widths:
        bps.append(bps[-1] + w)
    return step_layout(bps, values)


class TestCompiledHulls:
    """StepLayout.lower and .upper: walking lower from every prefix end and
    upper from every suffix start gives the strict hull of those points."""

    @staticmethod
    def check(lay):
        pts = list(zip(lay.xs, lay.ys))
        for i in range(len(pts)):
            assert hull_chain(lay.lower, i)[::-1] == brute_hull(pts[: i + 1], lower=True)
            assert hull_chain(lay.upper, i) == [i + k for k in brute_hull(pts[i:], lower=False)]

    @given(st.lists(st.tuples(st.integers(-2, 3), st.integers(1, 3)), min_size=1, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_every_prefix_and_suffix(self, steps):
        # few values and widths put many points on one line
        self.check(unit_layout([v for v, _ in steps], [w for _, w in steps]))

    def test_collinear_runs(self):
        # equal blocks at equal gaps: the block starts (5k, 3k) lie on one
        # line and the block ends (5k + 3, 3k + 3) on a parallel one above
        # it, so of each run only its outer points are hull vertices
        lay = BlockSignal([Block(5 * k, 5 * k + 2, F(1)) for k in range(8)]).layout
        self.check(lay)
        assert hull_chain(lay.lower, 15) == [15, 14, 0]
        assert hull_chain(lay.upper, 0) == [0, 1, 15]
        self.check(unit_layout([2, 2, 1, 1, 0, 0, 1, 1], [1, 1, 2, 2, 1, 3, 1, 1]))


@st.composite
def chord_cases(draw):
    """A layout on integer heights (steps of either sign), a scale q, index
    bounds b <= a, and pinned points at that scale strictly between the
    points b - 1 and a, the left one left of the right one; returns the
    steepest_chord arguments and the left and right point lists."""
    steps = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), min_size=1, max_size=22))
    lay = unit_layout([v for v, _ in steps], [w for _, w in steps])
    q = draw(st.sampled_from((1, 3)))
    pts = [(x * q, y * q) for x, y in zip(lay.xs, lay.ys)]
    end = len(pts)
    b = draw(st.integers(0, end))
    a = draw(st.integers(b, end))
    lo = pts[b - 1][0] if b else -10 * q
    hi = pts[a][0] if a < end else pts[-1][0] + 10 * q
    ys = [y for _, y in pts]
    pin_x = draw(st.lists(st.integers(lo + 1, hi - 1), max_size=2, unique=True)) if hi - lo > 1 else []
    pins = [(x, draw(st.integers(min(ys) - 4, max(ys) + 4))) for x in sorted(pin_x)]
    if len(pins) == 1 and draw(st.booleans()):
        pins = [None] + pins
    left, right = (pins + [None, None])[:2]
    lefts = pts[:b] + ([left] if left else [])
    rights = ([right] if right else []) + pts[a:]
    assume(lefts and rights)
    return lay, (b, left, a, right, q), lefts, rights


class TestSteepestChord:
    """StepLayout.steepest_chord against every pair: the steepest chord,
    and among the steepest the shortest, which is the innermost pair."""

    @given(chord_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_all_pairs(self, case):
        lay, args, lefts, rights = case
        best = max((F(v - y, u - x), x - u) for x, y in lefts for u, v in rights)
        rise, run = lay.steepest_chord(*args)
        assert (F(rise, run), -run) == best

    def test_pinned_point_on_the_last_hull_edge(self):
        # the left points (0, 0), (2, 0), (4, 2) and the pinned (6, 4),
        # which continues the edge from (2, 0); the walk first steps out to
        # (2, 0), then the line of slope 1 through (9, 7) holds (2, 0),
        # (4, 2) and (6, 4), and the innermost of them is the pinned point
        lay = unit_layout([0, 1, 1], [2, 2, 5])
        assert lay.steepest_chord(3, (6, 4), 3, (7, 4), 1) == (3, 3)
        # the mirror image: the right pinned (3, 3) continues the hull edge
        # from (5, 5) to (7, 7)
        lay = unit_layout([1, 1, 0], [5, 2, 2])
        assert lay.steepest_chord(1, (2, 3), 1, (3, 3), 1) == (3, 3)

    def test_convex_chains(self):
        # every point is a hull vertex: a convex left chain, a concave right one
        xs = list(range(70))
        ys = [x * x for x in xs[:30]] + [900] * 10 + [2000 - (x - 70) ** 2 for x in xs[40:]]
        lay = unit_layout([b - a for a, b in zip(ys, ys[1:])], [1] * 69)
        assert len(hull_chain(lay.lower, 29)) == 30 and len(hull_chain(lay.upper, 40)) == 30
        best = max((F(v - y, u - x), x - u) for x, y in zip(xs[:30], ys) for u, v in zip(xs[40:], ys[40:]))
        rise, run = lay.steepest_chord(30, None, 40, None, 1)
        assert (F(rise, run), -run) == best


def monotone_step(offset, count: int, rising: bool) -> StepFunction:
    """count touching pieces of widths 1..4 whose values rise (fall)
    1, 2, ..., count, so the mass is convex (concave) and every breakpoint
    is a vertex of the prefix (suffix) hull."""
    bps = [F(offset)]
    for k in range(count):
        bps.append(bps[-1] + k % 4 + 1)
    vals = list(range(1, count + 1))
    return StepFunction(bps, vals if rising else vals[::-1])


class TestUncenteredWorstCases:
    """Hulls as long as they get and windows that tie, at 0 and 2^10000."""

    @pytest.mark.parametrize("offset", [0, 2**10000], ids=["o0", "at2p10000"])
    def test_convex_800_pieces(self, offset):
        # right of a rising layout the best interval reaches back to a
        # tangent point deep in the 801-vertex prefix hull; the falling
        # layout is its mirror image
        for rising in (True, False):
            f = monotone_step(offset, 800, rising)
            lo, hi = f.breakpoints[0], f.breakpoints[-1]
            near = [F(1, 3), F(1), F(7), F(60), F(900), F(20000), F(0), F(-5, 2), F(-31)]
            for d in near:
                x = hi + d if rising else lo - d
                res = maximal_uncentered_cont(f, x)
                assert (res.max_value, 2 * res.radius) == chord_oracle_uncentered(f, x)

    @pytest.mark.parametrize("offset", [0, 2**10000], ids=["o0", "at2p10000"])
    def test_collinear_ties(self, offset):
        # value 1 on (5k, 5k + 3) for six periods: from x = hi + 2 every
        # interval from a piece start to x averages 3/5, and the innermost,
        # of length 5, is the one reported; on both sides and across the
        # quarter grid the engine meets the grid and the chord oracles
        bps = [F(offset + 5 * k + e) for k in range(6) for e in (0, 3)]
        f = StepFunction(bps, [1, 0] * 5 + [1])
        lo, hi = bps[0], bps[-1]
        for x in (hi + 2, lo - 2):
            res = maximal_uncentered_cont(f, x)
            assert (res.max_value, res.radius) == (F(3, 5), F(5, 2))
        for k in range(-12, 4 * 34, 5):
            x = lo + F(k, 4)
            res = maximal_uncentered_cont(f, x)
            got = (res.max_value, 2 * res.radius)
            assert got == chord_oracle_uncentered(f, x)
            assert got == grid_oracle_uncentered(f, x)


class TestTranslation:
    """Both engines are translation covariant, and the compiled layout only
    moves its support start, also by a shift that is not a multiple of any
    breakpoint denominator."""

    @given(rational_step_functions(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_same_answers_after_shift(self, f, data):
        xs = data.draw(st.lists(rational_points(f), min_size=1, max_size=4))
        for shift in (F(2**10000), 2**10000 + F(1, 7)):
            moved = StepFunction([b + shift for b in f.breakpoints], f.values)
            assert replace(moved.layout, lo=0) == replace(f.layout, lo=0)
            assert moved.layout.lo == f.layout.lo + shift
            for x in xs:
                for engine in (maximal_centered_cont, maximal_uncentered_cont):
                    a, b = engine(f, x), engine(moved, x + shift)
                    assert (b.max_value, b.radius) == (a.max_value, a.radius)


class TestMassFromLayout:
    @given(rational_step_functions(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mass_and_integral(self, f, data):
        ends = rational_points(f)
        for a, b in data.draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=6)):
            assert f.mass(a, b) == piecewise_mass(f, a, b)
        assert f.integral() == piecewise_mass(f, f.breakpoints[0], f.breakpoints[-1])

    def test_hand_cases(self):
        f = StepFunction([0, 1, 3, 4], [F(1, 2), 2, F(3, 7)])
        total = F(1, 2) + 4 + F(3, 7)
        assert f.integral() == total
        assert f.mass(-5, 9) == total  # both ends outside the support
        assert f.mass(-5, -1) == f.mass(5, 9) == 0
        assert f.mass(1, 3) == 4  # ends on breakpoints
        assert f.mass(F(1, 2), F(7, 2)) == F(1, 4) + 4 + F(3, 14)
        assert f.mass(3, 3) == f.mass(3, 1) == f.mass(9, -5) == 0  # a >= b


class TestCenteredWalk:
    """The kink walk of maximal_centered_cont against the candidate loop it
    replaced, with x at breakpoints, between them and outside the support."""

    @given(rational_step_functions(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_candidate_loop(self, f, data):
        x = data.draw(
            st.one_of(
                st.sampled_from(f.breakpoints),
                st.fractions(min_value=F(-20), max_value=F(20), max_denominator=12),
            )
        )
        res = maximal_centered_cont(f, x)
        assert (res.max_value, res.radius) == candidate_loop_centered(f, x)

    def test_same_answer_at_two_to_the_10000(self):
        rng = random.Random(5)
        big = 2**10000
        for _ in range(10):
            f = random_lattice_step(rng)
            x = F(rng.randint(-48, 48), 8)
            moved = StepFunction([b + big for b in f.breakpoints], f.values)
            a, b = maximal_centered_cont(f, x), maximal_centered_cont(moved, x + big)
            assert (a.max_value, a.radius) == (b.max_value, b.radius)


@st.composite
def block_signals(draw):
    """Up to 80 constant blocks (gap before, length, amplitude): gaps of 0
    make touching blocks, length 1 one-point blocks; as (spec, lo, hi)."""
    count = draw(st.integers(1, 80))
    spec = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 6), st.integers(1, 9), st.integers(1, 4)),
            min_size=count,
            max_size=count,
        )
    )
    return spec, spec[0][0], sum(g + n for g, n, _, _ in spec) - 1


def shifted(spec, off: int) -> BlockSignal:
    blocks, pos = [], off
    for gap, length, p, d in spec:
        pos += gap
        blocks.append(Block(pos, pos + length - 1, F(p, d)))
        pos += length
    return BlockSignal(blocks)


def window_scan(spec, n: int) -> int:
    """Least r maximizing the mean over [n - r, n + r], every r scanned."""
    f = {}
    pos = 0
    for gap, length, p, d in spec:
        pos += gap
        for i in range(pos, pos + length):
            f[i] = F(p, d)
        pos += length
    reach = max(abs(n - min(f)), abs(n - max(f)))
    mass, best, best_r = f.get(n, 0), f.get(n, 0), 0
    for r in range(1, reach + 1):
        mass += f.get(n - r, 0) + f.get(n + r, 0)
        if mass / (2 * r + 1) > best:
            best, best_r = mass / (2 * r + 1), r
    return best_r


class TestBoundedWalk:
    """The centered walk skips a stretch of kinks when its end mass cannot
    beat the best: exact because f >= 0 keeps the ball mass nondecreasing.
    One kink a side per stretch, two, and the whole walk in one stretch
    against the default and an exhaustive scan over every kink radius."""

    SIZES = (1, 2, 10**9)

    @given(block_signals(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_layouts(self, layout, data):
        spec, lo, hi = layout
        pts = data.draw(st.lists(st.integers(lo - 3, hi + 3), min_size=1, max_size=4))
        sigs = [(off, shifted(spec, off)) for off in (0, 2**10000)]
        for n in pts:
            want = window_scan(spec, n)
            for off, sig in sigs:
                ref = event_centered(sig, n + off)
                assert ref.radius == want
                for size in self.SIZES:
                    with patch.object(continuum, "_STRETCH", size):
                        assert event_centered(sig, n + off) == ref

    @given(rational_step_functions(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rational_step_functions(self, f, data):
        for x in data.draw(st.lists(rational_points(f), min_size=1, max_size=4)):
            ref = maximal_centered_cont(f, x)
            assert (ref.max_value, ref.radius) == candidate_loop_centered(f, x)
            for size in self.SIZES:
                with patch.object(continuum, "_STRETCH", size):
                    assert maximal_centered_cont(f, x) == ref


@st.composite
def tie_rich_signals(draw):
    """Up to 12 blocks of amplitude 1 or 2, 1-3 points long (one-point
    blocks) after gaps of 0-4, so many windows tie; as a BlockSignal."""
    spec = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(1, 2), st.just(1)),
            min_size=1,
            max_size=12,
        )
    )
    return shifted(spec, draw(st.integers(-5, 5)))


class TestOutsideSupport:
    """Points strictly outside the support take one steepest chord on the
    compiled prefix hulls instead of the kink walk; lo and hi themselves,
    and every point between, stay on the walk."""

    @given(tie_rich_signals())
    @settings(max_examples=80, deadline=None)
    def test_tie_rich_signals_match_the_range_oracle(self, sig):
        lo, hi = support_bounds(sig)
        reach = 3 * (hi - lo + 1)
        for a, b in ((lo - reach, lo - 1), (hi + 1, hi + reach)):
            assert [event_centered(sig, n) for n in range(a, b + 1)] == oracle_centered_range(sig, a, b)

    @given(rational_step_functions(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rational_points_either_side_match_the_candidate_loop(self, f, data):
        step = st.fractions(min_value=F(1, 12), max_value=F(40), max_denominator=12)
        first, last = f.breakpoints[0], f.breakpoints[-1]
        for x in (first - data.draw(step), first, last, last + data.draw(step)):
            res = maximal_centered_cont(f, x)
            assert (res.max_value, res.radius) == candidate_loop_centered(f, x)

    def test_closed_form_two_to_the_10000_away(self):
        # so far out the whole mass wins, reached by the least radius: the
        # window (ball) ends at the far end of the support
        big = 2**10000
        rng = random.Random(19)
        for _ in range(6):
            spec = [(rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 9), 1) for _ in range(5)]
            sig = shifted(spec, rng.randint(-50, 50))
            lo, hi = support_bounds(sig)
            mass = norm_l1(sig)
            for n, r in ((lo - big, hi - lo + big), (hi + big, hi - lo + big)):
                assert event_centered(sig, n) == CenteredResult(n, mass / (2 * r + 1), r, True)
            f = random_lattice_step(rng)
            first, last = f.breakpoints[0], f.breakpoints[-1]
            for x, rho in ((first - big, last - first + big), (last + big, last - first + big)):
                assert maximal_centered_cont(f, x) == ContinuousResult(x, f.integral() / (2 * rho), rho, True)

    def test_support_ends_stay_on_the_walk(self):
        # about either end of the box every ball averages at most the
        # vanishing limit 1/2, so the radius is 0
        for x in (-1, 1):
            assert maximal_centered_cont(box(), x) == ContinuousResult(F(x), F(1, 2), F(0), True)
        # 1 then 5 from the left end: the whole support wins, M(2) = 6 over
        # 4 against the limit 1/2; the same from the right end of 5 then 1
        for vals, x in (([1, 5], 0), ([5, 1], 2)):
            f = StepFunction([0, 1, 2], vals)
            assert maximal_centered_cont(f, x) == ContinuousResult(F(x), F(3, 2), F(2), True)
        sig = BlockSignal([Block(0, 4, F(1)), Block(7, 7, F(2))])
        for n in (0, 7):
            assert event_centered(sig, n) == oracle_centered_range(sig, n, n)[0]


OFFSETS = (0, 2**10000, -(2**300))


def pinned_chord(lay, c: int, q: int) -> tuple:
    """(rise, run) by the route the compiled switch points replaced, kept
    as the reference: the steepest chord from the pinned point (x, 0) to
    the prefix-mass points left of the support, or from them to the pinned
    (x, F(inf)) right of it, x being the offset (c, q)."""
    end = len(lay.xs)
    if c < 0:
        return lay.steepest_chord(0, (c, 0), 0, None, q)
    return lay.steepest_chord(end, None, end, (c, lay.ys[-1] * q), q)


def switch_abscissae(lay) -> list:
    """The layout's switch points as offsets at scale dx (they are stored
    as distances beyond the support end they face)."""
    return [F(-num, den) for _, num, den in lay.left_tangents[1]] + [
        lay.xs[-1] + F(num, den) for _, num, den in lay.right_tangents[1]
    ]


@st.composite
def tie_rich_z(draw):
    """Up to 12 blocks of amplitude 1 or 2 after gaps of 0-4 at offset 0,
    2^10000 or -2^300, as a BlockSignal or as the DenseSignal of its values."""
    spec = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(1, 2), st.just(1)),
            min_size=1,
            max_size=12,
        )
    )
    sig = shifted(spec, draw(st.sampled_from(OFFSETS)))
    return to_dense(sig) if draw(st.booleans()) else sig


class TestSwitchPoints:
    """Outside the support every answer comes from one bisect over the
    compiled tangent switch points (StepLayout.outside_chord).  Against the
    pinned steepest_chord route it replaced and against the oracles: every
    point within 3 support widths either side, points on and next to each
    switch point and points 2^10000 away."""

    @given(tie_rich_z())
    @settings(max_examples=80, deadline=None)
    def test_z_engines(self, sig):
        lay = as_blocks(sig).layout
        lo, hi = support_bounds(sig)
        reach = 3 * (hi - lo + 1)
        oracle = {}
        for a, b in ((lo - reach, lo - 1), (hi + 1, hi + reach)):
            pairs = zip(oracle_centered_range(sig, a, b), oracle_uncentered_range(sig, a, b))
            oracle.update((cen.n, (cen, unc)) for cen, unc in pairs)
        # n + 1/2 on a switch point and next to it, n and n + 1 as pinned ends
        near = {lo + math.floor(z) + d for z in switch_abscissae(lay) for d in (-2, -1, 0, 1)}
        far = {lo - 2**10000, hi + 2**10000}
        for n in sorted(set(oracle) | {n for n in near if not lo <= n <= hi} | far):
            t = n - lay.lo
            rise, run = pinned_chord(lay, 2 * t + 1, 2)
            cen = event_centered(sig, n)
            assert cen == CenteredResult(n, F(rise, 2 * lay.dy * run), run // 2, True)
            rise, run = pinned_chord(lay, t if t < 0 else t + 1, 1)
            unc = event_uncentered(sig, n)
            assert unc == UncenteredResult(n, F(rise, lay.dy * run), run - 1, True)
            if n in oracle:
                assert (cen, unc) == oracle[n]

    @given(rational_step_functions(), st.sampled_from(OFFSETS), st.data())
    @settings(max_examples=80, deadline=None)
    def test_step_functions(self, f, off, data):
        f = StepFunction([b + off for b in f.breakpoints], f.values)
        lay = f.layout
        first, last = f.breakpoints[0], f.breakpoints[-1]
        reach = math.ceil(3 * (last - first))
        step = st.fractions(min_value=F(1, 12), max_value=reach, max_denominator=12)
        xs = [first - data.draw(step), last + data.draw(step), first - 2**10000, last + 2**10000]
        xs += [first + (z + F(d, 2)) / lay.dx for z in switch_abscissae(lay) for d in (-1, 0, 1)]
        for x in xs:
            if first <= x <= last:
                continue
            c, q = lay.offset(x)
            rise, run = pinned_chord(lay, c, q)
            cen, unc = maximal_centered_cont(f, x), maximal_uncentered_cont(f, x)
            assert cen == ContinuousResult(x, F(rise, 2 * run * lay.dy), F(run, lay.dx * q), True)
            assert unc == ContinuousResult(x, F(rise, run * lay.dy), F(run, 2 * lay.dx * q), True)
            assert (cen.max_value, cen.radius) == candidate_loop_centered(f, x)
            assert (unc.max_value, 2 * unc.radius) == chord_oracle_uncentered(f, x)

    @staticmethod
    def check_pieces(sig, n_lo: int, n_hi: int) -> None:
        """frequency_pieces over [n_lo, n_hi] gives event_centered's radius
        at every point, in maximal runs."""
        pieces = frequency_pieces(sig, n_lo, n_hi)
        assert pieces[0][0] == n_lo and pieces[-1][1] == n_hi
        for (_, b, s, c), (a, _, s2, c2) in zip(pieces, pieces[1:]):
            assert a == b + 1 and (s, c) != (s2, c2)
        for a, b, s, c in pieces:
            for n in range(a, b + 1):
                assert event_centered(sig, n).radius == s * n + c, n

    @given(tie_rich_z(), st.sampled_from(("lo", "hi", "left", "right", "far")), st.data())
    @settings(max_examples=80, deadline=None)
    def test_pieces(self, sig, case, data):
        lo, hi = support_bounds(sig)
        reach = 3 * (hi - lo + 1)
        a, b = sorted(data.draw(st.lists(st.integers(1, reach), min_size=2, max_size=2)))
        n_lo, n_hi = {
            "lo": (lo - b, lo + a - 1),
            "hi": (hi - a + 1, hi + b),
            "left": (lo - b, lo - a),
            "right": (hi + a, hi + b),
            "far": (lo - 2**10000 - 1000, lo - 2**10000),
        }[case]
        self.check_pieces(sig, n_lo, n_hi)

    def test_b800_layout_either_side_and_far(self):
        """800 seeded blocks (lengths 4-12, gaps 3-12): the pieces of
        [lo - 3000, lo - 1], [hi + 1, hi + 3000] and the 1001 points ending
        2^10000 left of lo against the pinned reference point by point.
        No benchmark workload queries outside the support at this size."""
        rng = random.Random(800)
        spec = [(rng.randint(3, 12), rng.randint(4, 12), rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(800)]
        sig = shifted(spec, 0)
        lay = sig.layout
        lo, hi = support_bounds(sig)
        far = lo - 2**10000
        for n_lo, n_hi in ((lo - 3000, lo - 1), (hi + 1, hi + 3000), (far - 1000, far)):
            self.check_pieces(sig, n_lo, n_hi)
            for n in range(n_lo, n_hi + 1, 7):
                rise, run = pinned_chord(lay, 2 * (n - lo) + 1, 2)
                assert event_centered(sig, n).radius == run // 2


class TestJson:
    def test_round_trip(self):
        f = StepFunction([F(-1, 2), F(3, 8), 2], [F(5, 3), F(1, 7)])
        doc = step_to_json(f)
        assert doc["type"] == "step"
        assert step_from_json(doc) == f

    def test_bad_type_rejected(self):
        with pytest.raises(ParameterViolation):
            step_from_json({"type": "blocks", "breakpoints": [], "values": []})

    @pytest.mark.parametrize(
        "doc",
        [
            [1],
            {"type": "step"},
            {"type": "step", "breakpoints": "01", "values": ["1"]},
            {"type": "step", "breakpoints": [0, 1], "values": ["1"]},
        ],
    )
    def test_malformed_doc_is_parameter_violation(self, doc):
        with pytest.raises(ParameterViolation):
            step_from_json(doc)
