"""Exact maximal averages for one-dimensional step functions.

A step function is constant on finitely many bounded intervals with rational
breakpoints and zero outside.  Centered averages over balls (x - r, x + r)
and uncentered averages over intervals containing x are exact rationals, and
between breakpoint-crossing radii the average is a Mobius function of the
radius with no interior extrema, so the maximum and the minimal maximizing
radius sit among finitely many candidates: one walk over the kinks of the
ball mass in the centered case, the steepest chord between prefix-sum hulls
in the uncentered one.  Both run on the integer StepLayout that each
StepFunction compiles once relative to its support start, hulls of every
prefix and suffix included, so a query does one Fraction subtraction and
costs the same at 0 and at 2^10000.

Outside the support both answers are one chord from x to the hull of the
whole support, and the hull vertex it touches changes only where x crosses
a tangent switch point, which the layout compiles too: a query there is one
bisect, at any distance (StepLayout.outside_chord).

The StepLayout is the one compiled form of every constant signal: an
all-constant BlockSignal on Z compiles to the layout of the step function
x -> f(floor(x)), whose ball of radius r + 1/2 about n + 1/2 is the window
[n - r, n + r], so the discrete centered engine runs the same kink walk
(StepLayout.centered_radius) at the half-integer centre.

The walk takes the kinks in stretches of at most _STRETCH a side.  Every
value is >= 0, so the ball mass never falls as the radius grows, and a
stretch [r1, R] whose end mass M(R) over 2 r1 does not beat the best average
so far holds no radius that does: it is skipped after two prefix reads, so a
query walks only the stretches that can still win, and no answer changes.

The vanishing-radius convention: as r -> 0 the centered average tends to the
mean of the one-sided limits at x, and a step function realizes that limit
exactly on a whole initial interval of radii, so when nothing beats it the
reported radius is 0 (the infimum of the attaining set) with attained=True.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_LIMITS, Limits
from .errors import BudgetExceeded, NonpositiveRadius, ParameterViolation, ZeroSignal
from .values import int_brief, json_field, json_rational, rational_str

# Kinks a side per stretch of the centered walk (StepLayout.centered_radius);
# layouts with at most this many a side are walked in one stretch
_STRETCH = 32


@dataclass(frozen=True)
class ContinuousResult:
    """Maximal average at x; radius is the minimal maximizing ball radius
    (centered) or half the minimal maximizing interval length (uncentered),
    0 when the supremum is already realized at vanishing radii."""

    x: Fraction
    max_value: Fraction
    radius: Fraction
    attained: bool


@dataclass(frozen=True, slots=True)
class StepLayout:
    """Support-relative integer layout of a constant signal, compiled once.

    xs[i] = (b_i - lo) * dx for the breakpoints b_i, lo = b_0 and dx the
    least common denominator of the offsets b_i - lo; vals holds the values
    padded with 0 on both sides, times their common denominator dy, so
    vals[i] is dy * f on (b_{i-1}, b_i); ys[i] = dx * dy * F(b_i), with F
    the mass over (-inf, t]; jumps[i] = vals[i + 1] - vals[i], the jump at
    b_i.  Over the points (xs[i], ys[i]), lower[i] is the previous vertex
    of the lower hull of points 0..i (-1 for none) and upper[i] the next
    vertex of the upper hull of points i..end (len(xs) for none), so every
    prefix and suffix hull is one parent chain.  left_tangents and
    right_tangents hold the whole-support hull as seen from either side
    (_tangents): the vertices of the upper chain from point 0 and of the
    lower chain from the last point, each as (distance, mass) from the
    support end it faces, and the switch points between them.  A query
    subtracts lo once (offset).  A BlockSignal's layout has integer
    breakpoints, so lo is an int and dx = 1."""

    lo: Fraction
    dx: int
    dy: int
    xs: list
    vals: list
    ys: list
    jumps: list
    lower: list
    upper: list
    left_tangents: tuple
    right_tangents: tuple

    def offset(self, x: Fraction) -> tuple[int, int]:
        """(c, q) with x = lo + c / (dx * q): positions at scale dx * q."""
        u = x - self.lo
        return u.numerator * self.dx, u.denominator

    def locate(self, c: int, q: int) -> tuple[int, int]:
        """(number of breakpoints < x, number <= x) at the offset (c, q)."""
        return bisect_left(self.xs, -(-c // q)), bisect_right(self.xs, c // q)

    def mass_to(self, t: int, q: int) -> int:
        """dx * dy * q * F(lo + t / (dx * q))."""
        i = bisect_right(self.xs, t // q) - 1
        return self.ys[i] * q + self.vals[i + 1] * (t - self.xs[i] * q) if i >= 0 else 0

    def centered_radius(self, c: int, q: int) -> int:
        """Minimal maximizing ball radius about the offset (c, q), at scale
        dx * q, with 0 for the limit of vanishing radii.

        The ball mass M(r) is 0 at r = 0 and piecewise linear in r, its
        slope dy (f(x-) + f(x+)) at first and changing by the jump at each
        breakpoint b != x, at r = |x - b|: the right edge meets the jump, the
        left edge its negative.  Between those kinks the average M(r) / (2r)
        is a Mobius function of r, monotone or constant, so the maximum and
        the least radius attaining it sit at 0 or at a kink, and keeping
        strict improvements in ascending r finds that least radius.

        The kinks are walked in stretches of at most _STRETCH a side, each
        sorted from two index ranges of xs.  f >= 0, so M is nondecreasing
        and every radius in a stretch [r1, R] averages at most
        M(R) / (2 r1).  A stretch after the first whose end mass (two
        mass_to reads) gives no more than the best is skipped, as none of
        its radii beats the best strictly (a tie keeps the smaller radius
        already held); the walk resumes at R with the slope read from vals.
        The walk stops at the first radius r with M(inf) / (2r) <= best, as
        no larger radius beats it.

        Callers answer points strictly outside the support by
        outside_chord first, in one bisect; the walk is meant for points
        from lo to the last breakpoint, both included, and stays exact
        outside them, at O(B)."""
        xs, vals, jumps = self.xs, self.vals, self.jumps
        k, m = self.locate(c, q)
        bound = self.ys[-1] * q
        rate = vals[k] + vals[m]
        # the best average is best_num / (2 best_den), and cap = bound * best_den
        best_num, best_den, cap = rate, 1, bound
        best_r = last = mass = 0
        j, i, end = m, k - 1, len(xs)  # the next breakpoint right of x, left of x
        while j < end or i >= 0:
            if end - j <= _STRETCH and i < _STRETCH:
                jr, il = end, -1  # the rest is one stretch
            else:
                rad = []
                if end - j > _STRETCH:
                    rad.append(xs[j + _STRETCH - 1] * q - c)
                if i >= _STRETCH:
                    rad.append(c - xs[i - _STRETCH + 1] * q)
                R = min(rad)
                jr = bisect_right(xs, (c + R) // q, j)
                il = bisect_left(xs, -(-(c - R) // q), 0, i + 1) - 1
                if last:  # past the first stretch
                    r1 = min(xs[j] * q - c if j < end else R, c - xs[i] * q if i >= 0 else R)
                    lim = best_num * r1
                    if cap <= lim:
                        return best_r
                    end_mass = self.mass_to(c + R, q) - self.mass_to(c - R, q)
                    if end_mass * best_den <= lim:
                        mass, last, rate = end_mass, R, vals[jr] + vals[il + 1]
                        j, i = jr, il
                        continue
            kinks = [(b * q - c, d) for b, d in zip(xs[j:jr], jumps[j:jr])]
            if il < i:
                stop = il if il >= 0 else None
                kinks += [(c - b * q, -d) for b, d in zip(xs[i:stop:-1], jumps[i:stop:-1])]
                kinks.sort()  # two ascending runs: sorting merges them in linear time
            for r, dk in kinks:
                if r != last:
                    lim = best_num * r
                    if cap <= lim:
                        return best_r
                    mass += rate * (r - last)
                    if mass * best_den > lim:
                        best_num, best_den, best_r = mass, r, r
                        cap = bound * r
                    last = r
                rate += dk
            j, i = jr, il
        return best_r

    def outside_chord(self, c: int, q: int) -> tuple[int, int] | None:
        """(rise, run) at scale dx * q of the innermost steepest chord from
        (x, 0) to the prefix-mass points for x = the offset (c, q) left of
        the support (c < 0), or from them to (x, F(inf)) right of it
        (c > xs[-1] q); None for x in the support, ends included.

        Every ball or interval about such an x that meets the support has
        mass F(x + r) or F(inf) - F(x - r), so this chord gives the least
        maximizing radius (centered, the run) and the shortest maximizing
        interval (uncentered), and its rise is the mass.  The chord ends at
        the vertex of the whole-support hull that the tangent from x
        touches.  That vertex moves inward as x nears the support and
        switches from pts[k + 1] to pts[k] at cuts[k], where both lie on
        the tangent, so one bisect over the compiled cuts finds it, the
        inner vertex on a tie (Goldwasser, Kao & Lu, JCSS 2005, with the
        left end pinned on a horizontal line)."""
        end = self.xs[-1] * q
        if c < 0:
            (pts, cuts), d = self.left_tangents, -c
        elif c > end:
            (pts, cuts), d = self.right_tangents, c - end
        else:
            return None
        dist, mass = pts[tangent_count(cuts, d, q)]
        return mass * q, dist * q + d

    def steepest_chord(self, b: int, left, a: int, right, q: int) -> tuple[int, int]:
        """(rise, run) of the steepest chord, at scale dx * q, from the
        points 0..b-1 and the pinned point `left` to `right` and the points
        a..end, every left point lying left of every right one; a pinned
        point is an (x, y) pair at that scale, or None.

        This is the maximum-density segment problem (Goldwasser, Kao & Lu,
        JCSS 2005): the chord joins a vertex of the lower hull of the left
        points to one of the upper hull of the right ones.  Both hulls are
        the compiled parent chains from b - 1 and from a, with the pinned
        point attached at the inner end after popping the vertices it
        leaves no longer strictly convex.  From the inner ends, a step of
        either end to a neighbouring vertex in either direction is taken
        while it makes the chord strictly steeper; the chord slope is
        unimodal along each hull, so where no step helps each end is best
        for the other, the line through them has every left point on or
        above it and every right point on or below, and the chord is the
        steepest.  It then slides to the innermost vertices on that line:
        a point on it lies on a hull edge in it, whose ends are vertices,
        so the shortest steepest chord comes out."""
        xs, ys, lower, upper = self.xs, self.ys, self.lower, self.upper
        lx, ly, rx, ry = [], [], [], []  # the hull vertices, innermost first
        i, j, end = b - 1, a, len(xs)
        if left is not None:
            px, py = left
            while i > 0 and (ys[i] - ys[h := lower[i]]) * (px - xs[i] * q) >= (
                py - ys[i] * q
            ) * (xs[i] - xs[h]):
                i = h
            lx.append(px)
            ly.append(py)
        while i >= 0:
            lx.append(xs[i] * q)
            ly.append(ys[i] * q)
            i = lower[i]
        if right is not None:
            px, py = right
            while j < end - 1 and (ys[j] * q - py) * (xs[h := upper[j]] - xs[j]) <= (
                ys[h] - ys[j]
            ) * (xs[j] * q - px):
                j = h
            rx.append(px)
            ry.append(py)
        while j < end:
            rx.append(xs[j] * q)
            ry.append(ys[j] * q)
            j = upper[j]
        i = j = 0
        nl, nr = len(lx), len(rx)
        num, den = ry[0] - ly[0], rx[0] - lx[0]
        while True:
            if i + 1 < nl and (ry[j] - ly[i + 1]) * den > num * (rx[j] - lx[i + 1]):
                i += 1
            elif i and (ry[j] - ly[i - 1]) * den > num * (rx[j] - lx[i - 1]):
                i -= 1
            elif j + 1 < nr and (ry[j + 1] - ly[i]) * den > num * (rx[j + 1] - lx[i]):
                j += 1
            elif j and (ry[j - 1] - ly[i]) * den > num * (rx[j - 1] - lx[i]):
                j -= 1
            else:
                break
            num, den = ry[j] - ly[i], rx[j] - lx[i]
        if i and (ry[j] - ly[i - 1]) * den == num * (rx[j] - lx[i - 1]):
            i -= 1
        if j and (ry[j - 1] - ly[i]) * den == num * (rx[j - 1] - lx[i]):
            j -= 1
        return ry[j] - ly[i], rx[j] - lx[i]


def step_layout(breakpoints: list, values: list) -> StepLayout:
    """The StepLayout of the step function with value values[i] between
    breakpoints[i] and breakpoints[i + 1] (ints or Fractions)."""
    xs, dx = _scaled([b - breakpoints[0] for b in breakpoints])
    vals, dy = _scaled([0, *values, 0])
    ys = [0]
    for v, a, b in zip(vals[1:], xs, xs[1:]):
        ys.append(ys[-1] + v * (b - a))
    jumps = [b - a for a, b in zip(vals, vals[1:])]
    end = len(xs)
    lower, upper = [-1] * end, [end] * end
    for i in range(1, end):  # pop h while (lower[h], h, i) turns clockwise or not at all
        h = i - 1
        while h and (ys[h] - ys[g := lower[h]]) * (xs[i] - xs[h]) >= (ys[i] - ys[h]) * (xs[h] - xs[g]):
            h = g
        lower[i] = h
    for i in range(end - 2, -1, -1):  # the same from the right for the upper hull
        h = i + 1
        while h < end - 1 and (ys[h] - ys[i]) * (xs[g := upper[h]] - xs[h]) <= (ys[g] - ys[h]) * (xs[h] - xs[i]):
            h = g
        upper[i] = h
    # the upper chain from point 0 and the lower chain from the last point;
    # f >= 0 with non-zero end values makes every edge of either rise (the
    # chains stop at one that does not, which only signed values give)
    left, right = [0], [end - 1]
    while left[-1] < end - 1 and ys[upper[left[-1]]] > ys[left[-1]]:
        left.append(upper[left[-1]])
    while right[-1] > 0 and ys[lower[right[-1]]] < ys[right[-1]]:
        right.append(lower[right[-1]])
    return StepLayout(
        breakpoints[0], dx, dy, xs, vals, ys, jumps, lower, upper,
        _tangents([(xs[i], ys[i]) for i in left]),
        _tangents([(xs[-1] - xs[i], ys[-1] - ys[i]) for i in right]),
    )


def _tangents(pts: list) -> tuple:
    """(pts, cuts) for hull vertices pts given as (distance, mass) from the
    support end they face, innermost first: the tangent from a point at
    distance d beyond that end touches pts[k] for k the number of cuts
    below d, cuts[k] being where the line through pts[k] and pts[k + 1]
    meets mass 0, a switch point num / den stored as (floor, num, den)."""
    cuts = []
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        num, den = y1 * (x2 - x1) - x1 * (y2 - y1), y2 - y1
        cuts.append((num // den, num, den))
    return pts, cuts


def tangent_count(cuts: list, c: int, q: int) -> int:
    """The number of switch points in cuts (ascending, as _tangents makes
    them) below c / q, q > 0.  A point past the floor of the last one plus
    one, as every point far from the support is, has all of them below it;
    otherwise a bisect on the floors leaves only the cuts with floor c // q
    to compare exactly, and c // q costs no more than the cuts' size."""
    if c >= (cuts[-1][0] + 1) * q:
        return len(cuts)
    f = c // q
    k = bisect_left(cuts, (f,))
    hi = bisect_left(cuts, (f + 1,), k)
    while k < hi:
        mid = (k + hi) // 2
        if cuts[mid][1] * q < c * cuts[mid][2]:
            k = mid + 1
        else:
            hi = mid
    return k


class StepFunction:
    """Breakpoints x_0 < ... < x_m with value v_i on (x_{i-1}, x_i)."""

    __slots__ = ("breakpoints", "values", "layout")

    def __init__(self, breakpoints, values):
        bps = [Fraction(b) for b in breakpoints]
        vals = [Fraction(v) for v in values]
        if len(bps) != len(vals) + 1:
            raise ParameterViolation("need one more breakpoint than values")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ParameterViolation("breakpoints must be strictly increasing")
        if any(v < 0 for v in vals):
            raise ParameterViolation("step values must be non-negative")
        while vals and vals[0] == 0:
            vals.pop(0)
            bps.pop(0)
        while vals and vals[-1] == 0:
            vals.pop()
            bps.pop()
        if not vals:
            raise ZeroSignal("step function is identically zero")
        self.breakpoints = tuple(bps)
        self.values = tuple(vals)
        self.layout = step_layout(bps, vals)

    def integral(self) -> Fraction:
        """Total mass of the function."""
        return Fraction(self.layout.ys[-1], self.layout.dx * self.layout.dy)

    def _integral_to(self, t: Fraction) -> Fraction:
        """Mass over (-inf, t]."""
        lay = self.layout
        c, q = lay.offset(Fraction(t))
        return Fraction(lay.mass_to(c, q), lay.dx * lay.dy * q)

    def mass(self, a: Fraction, b: Fraction) -> Fraction:
        """Mass over the interval (a, b)."""
        if b <= a:
            return Fraction(0)
        return self._integral_to(b) - self._integral_to(a)

    def one_sided_limits(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """(f(x-), f(x+)); breakpoints separate the two."""
        lay = self.layout
        k, m = lay.locate(*lay.offset(Fraction(x)))
        return Fraction(lay.vals[k], lay.dy), Fraction(lay.vals[m], lay.dy)

    def __eq__(self, other):
        return (
            isinstance(other, StepFunction)
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def __repr__(self):
        return f"StepFunction(pieces={len(self.values)}, support={self.breakpoints[0]}..{self.breakpoints[-1]})"


def _scaled(values: list) -> tuple[list, int]:
    """Integers v * D for rationals v, with D their common denominator."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def average_ball(f: StepFunction, x: Fraction, r: Fraction) -> Fraction:
    """Mean of f over the ball (x - r, x + r), r > 0."""
    x, r = Fraction(x), Fraction(r)
    if r <= 0:
        raise NonpositiveRadius("continuous averages need radius > 0")
    return f.mass(x - r, x + r) / (2 * r)


def maximal_centered_cont(f: StepFunction, x: Fraction) -> ContinuousResult:
    """Maximal centered average at x and the infimum of maximizing radii.

    The ball mass is piecewise linear in the radius, with kinks where an
    edge of the ball meets a breakpoint; between kinks the average is
    monotone or constant, so one walk over the kinks of f's StepLayout
    (StepLayout.centered_radius) finds the maximum and the least radius
    attaining it.  f >= 0 keeps the ball mass nondecreasing, so the walk
    skips, exactly, each stretch of kinks whose end mass cannot beat the
    best so far.  A point outside the support takes no walk: one bisect
    over the compiled switch points gives the chord whose run is the
    radius and whose rise is the mass, at any distance.  The
    r -> 0 limit, the mean of the one-sided limits, is matched exactly on
    radii below the nearest kink; radius 0 reports it.  Otherwise the
    winner's value is two integer prefix reads."""
    x = Fraction(x)
    lay = f.layout
    c, q = lay.offset(x)
    chord = lay.outside_chord(c, q)
    if chord is not None:
        mass, r = chord
        return ContinuousResult(x, Fraction(mass, 2 * r * lay.dy), Fraction(r, lay.dx * q), True)
    r = lay.centered_radius(c, q)
    if r == 0:
        k, m = lay.locate(c, q)
        rate = lay.vals[k] + lay.vals[m]  # dy (f(x-) + f(x+))
        return ContinuousResult(x, Fraction(rate, 2 * lay.dy), Fraction(0), True)
    mass = lay.mass_to(c + r, q) - lay.mass_to(c - r, q)
    return ContinuousResult(x, Fraction(mass, 2 * r * lay.dy), Fraction(r, lay.dx * q), True)


def maximal_uncentered_cont(f: StepFunction, x: Fraction) -> ContinuousResult:
    """Maximal average over intervals containing x; radius reports half the
    minimal maximizing interval length (0 when vanishing intervals already
    realize the supremum, which for a step function equals the larger
    one-sided limit).

    With F the mass function, the interval (l, u) averages the slope of F
    from l to u.  F is linear between breakpoints, so the candidate ends
    are the breakpoints on each side of x and x itself, and the answer is
    the steepest chord from a left candidate to a right one, innermost
    pair first (StepLayout.steepest_chord on f's compiled hulls), so the
    reported interval is the shortest maximizer.  The zero-length pair
    (x, x) is no interval; the chords are split into those from a
    breakpoint left of x and those from x itself.  x's own point is one
    integer prefix read at scale q.  Outside the support the interval's
    near end is x and the chord is the one of the centered case
    (StepLayout.outside_chord), one bisect at any distance."""
    x = Fraction(x)
    lay = f.layout
    c, q = lay.offset(x)
    chord = lay.outside_chord(c, q)
    if chord is not None:
        num, den = chord
        return ContinuousResult(x, Fraction(num, den * lay.dy), Fraction(den, 2 * lay.dx * q), True)
    k, m = lay.locate(c, q)
    pin = (c, lay.mass_to(c, q))
    chords = []
    if k:  # from a breakpoint left of x to x or to one right of it
        chords.append(lay.steepest_chord(k, None, m, pin, q))
    if m < len(lay.xs):  # from x to a breakpoint right of it
        chords.append(lay.steepest_chord(0, pin, m, None, q))
    num, den = max(chords, key=lambda ch: (Fraction(*ch), -ch[1]))
    limit = max(lay.vals[k], lay.vals[m])  # dy max(f(x-), f(x+))
    if num > limit * den:
        return ContinuousResult(x, Fraction(num, den * lay.dy), Fraction(den, 2 * lay.dx * q), True)
    return ContinuousResult(x, Fraction(limit, lay.dy), Fraction(0), True)


def grid_scan_centered(
    f: StepFunction, x: Fraction, r_max: Fraction, steps: int, limits: Limits = DEFAULT_LIMITS
) -> tuple[Fraction, Fraction]:
    """Brute-force grid oracle: the exact maximum of A_r over the radii
    k * (r_max / steps), k = 1..steps.  A lower bound for the true maximum,
    and equal to it whenever some maximizing radius lies on the grid.
    More than limits.scan_radius_cap steps are refused."""
    x, r_max = Fraction(x), Fraction(r_max)
    if steps < 1 or r_max <= 0:
        raise ParameterViolation("grid scan needs steps >= 1 and r_max > 0")
    if steps > limits.scan_radius_cap:
        raise BudgetExceeded(
            f"grid scan over {int_brief(steps)} radii exceeds cap {limits.scan_radius_cap}"
        )
    step = r_max / steps
    best = None
    best_r = None
    for k in range(1, steps + 1):
        r = k * step
        a = average_ball(f, x, r)
        if best is None or a > best:
            best, best_r = a, r
    return best, best_r


def step_to_json(f: StepFunction) -> dict:
    return {
        "type": "step",
        "breakpoints": [rational_str(b) for b in f.breakpoints],
        "values": [rational_str(v) for v in f.values],
    }


def step_from_json(doc) -> StepFunction:
    kind = json_field(doc, "type", str)
    if kind != "step":
        raise ParameterViolation(f"unknown step-function type {kind!r}")
    return StepFunction(
        [json_rational(s) for s in json_field(doc, "breakpoints", list)],
        [json_rational(s) for s in json_field(doc, "values", list)],
    )
