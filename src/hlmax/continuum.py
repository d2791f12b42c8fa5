"""Exact maximal averages for one-dimensional step functions.

A step function is constant on finitely many bounded intervals with rational
breakpoints and zero outside.  Centered averages over balls (x - r, x + r)
and uncentered averages over intervals containing x are exact rationals, and
between breakpoint-crossing radii the average is a Mobius function of the
radius with no interior extrema, so the maximum and the minimal maximizing
radius sit among finitely many candidates: one walk over the kinks of the
ball mass in the centered case, the steepest chord between prefix-sum hulls
in the uncentered one, both on integer-scaled offsets from x.

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

from .errors import NonpositiveRadius, ParameterViolation, ZeroSignal
from .values import (
    json_field,
    json_rational,
    max_average_radius,
    max_slope_pair,
    rational_str,
)


@dataclass(frozen=True)
class ContinuousResult:
    """Maximal average at x; radius is the minimal maximizing ball radius
    (centered) or half the minimal maximizing interval length (uncentered),
    0 when the supremum is already realized at vanishing radii."""

    x: Fraction
    max_value: Fraction
    radius: Fraction
    attained: bool


class StepFunction:
    """Breakpoints x_0 < ... < x_m with value v_i on (x_{i-1}, x_i)."""

    __slots__ = ("breakpoints", "values", "_prefix")

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
        pref = [Fraction(0)]
        for v, b1, b2 in zip(vals, bps, bps[1:]):
            pref.append(pref[-1] + v * (b2 - b1))
        self._prefix = pref

    def integral(self) -> Fraction:
        """Total mass of the function."""
        return self._prefix[-1]

    def _integral_to(self, t: Fraction) -> Fraction:
        """Mass over (-inf, t]."""
        bps = self.breakpoints
        if t <= bps[0]:
            return Fraction(0)
        if t >= bps[-1]:
            return self._prefix[-1]
        i = bisect_right(bps, t) - 1
        return self._prefix[i] + self.values[i] * (t - bps[i])

    def mass(self, a: Fraction, b: Fraction) -> Fraction:
        """Mass over the interval (a, b)."""
        if b <= a:
            return Fraction(0)
        return self._integral_to(b) - self._integral_to(a)

    def one_sided_limits(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """(f(x-), f(x+)); breakpoints separate the two."""
        bps = self.breakpoints
        x = Fraction(x)
        if x < bps[0] or x > bps[-1]:
            return Fraction(0), Fraction(0)
        i = bisect_left(bps, x)
        if i < len(bps) and bps[i] == x:
            left = self.values[i - 1] if i >= 1 else Fraction(0)
            right = self.values[i] if i < len(self.values) else Fraction(0)
            return left, right
        return self.values[i - 1], self.values[i - 1]

    def __eq__(self, other):
        return (
            isinstance(other, StepFunction)
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def __repr__(self):
        return f"StepFunction(pieces={len(self.values)}, support={self.breakpoints[0]}..{self.breakpoints[-1]})"


def average_ball(f: StepFunction, x: Fraction, r: Fraction) -> Fraction:
    """Mean of f over the ball (x - r, x + r), r > 0."""
    x, r = Fraction(x), Fraction(r)
    if r <= 0:
        raise NonpositiveRadius("continuous averages need radius > 0")
    return f.mass(x - r, x + r) / (2 * r)


def maximal_centered_cont(f: StepFunction, x: Fraction) -> ContinuousResult:
    """Maximal centered average at x and the infimum of maximizing radii.

    The ball mass M(r) is 0 at r = 0 and piecewise linear in r, its slope
    f(x - r) + f(x + r) starting at f(x-) + f(x+) and changing by the jump
    of f at each breakpoint b != x, at r = |x - b|.  Between those kinks the
    average M(r) / (2r) is a Mobius function of r, hence monotone or
    constant, so one walk over the kinks (max_average_radius), on offsets
    and values scaled to integers, finds the maximum and the least radius
    attaining it; the scaled integral of f bounds every M(r), so the walk
    stops once no later radius can beat the best.  The r -> 0 limit, the
    mean of the one-sided limits, is matched exactly on radii below the
    nearest kink; radius 0 reports it."""
    x = Fraction(x)
    bps = f.breakpoints
    k, m = bisect_left(bps, x), bisect_right(bps, x)
    offs, dx = _scaled([b - x for b in bps])
    # vals[i] is f on (bps[i - 1], bps[i]), 0 outside the support
    vals, dy = _scaled([Fraction(0), *f.values, Fraction(0)])
    # at b > x the right edge meets the jump f(b+) - f(b-); at b < x the
    # left edge meets f(b-) - f(b+)
    kinks = sorted(
        [(offs[i], vals[i + 1] - vals[i]) for i in range(m, len(bps))]
        + [(-offs[i], vals[i] - vals[i + 1]) for i in range(k)]
    )
    rate = vals[k] + vals[m]  # dy (f(x-) + f(x+))
    bound = sum(v * (b - a) for v, a, b in zip(vals[1:], offs, offs[1:]))
    r = max_average_radius(kinks, 0, rate, bound, odd=False)
    if r == 0:
        return ContinuousResult(x, Fraction(rate, 2 * dy), Fraction(0), True)
    radius = Fraction(r, dx)
    return ContinuousResult(x, average_ball(f, x, radius), radius, True)


def _scaled(values: list) -> tuple[list, int]:
    """Integers v * D for Fractions v, with D their common denominator."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def maximal_uncentered_cont(f: StepFunction, x: Fraction) -> ContinuousResult:
    """Maximal average over intervals containing x; radius reports half the
    minimal maximizing interval length (0 when vanishing intervals already
    realize the supremum, which for a step function equals the larger
    one-sided limit).

    With F the mass function, the interval (l, u) averages the slope of F
    from l to u.  F is linear between breakpoints, so the candidate ends
    are the breakpoints on each side of x and x itself, and the answer is
    the steepest chord from a left candidate to a right one: exact prefix-
    sum hulls (max_slope_pair) on integer-scaled offsets from x, innermost
    pair first, so the reported interval is the shortest maximizer.  The
    zero-length pair (x, x) is no interval; the chords are split into
    those from a breakpoint left of x and those from x itself."""
    x = Fraction(x)
    left, right = f.one_sided_limits(x)
    bps = f.breakpoints
    k, m = bisect_left(bps, x), bisect_right(bps, x)
    xs, dx = _scaled([b - x for b in bps])
    ys, dy = _scaled(f._prefix + [f._integral_to(x)])
    fx = ys.pop()
    splits = []
    if k:
        splits.append((xs[:k], ys[:k], [0] + xs[m:], [fx] + ys[m:]))
    if m < len(bps):
        splits.append(([0], [fx], xs[m:], ys[m:]))
    num, den = -1, 0
    for xl, yl, xr, yr in splits:
        i, j = max_slope_pair(xl, yl, xr, yr)
        n2, d2 = yr[j] - yl[i], xr[j] - xl[i]
        if den == 0 or n2 * den > num * d2 or (n2 * den == num * d2 and d2 < den):
            num, den = n2, d2
    value = Fraction(num * dx, den * dy)
    if value > max(left, right):
        return ContinuousResult(x, value, Fraction(den, 2 * dx), True)
    return ContinuousResult(x, max(left, right), Fraction(0), True)


def grid_scan_centered(
    f: StepFunction, x: Fraction, r_max: Fraction, steps: int
) -> tuple[Fraction, Fraction]:
    """Brute-force grid oracle: the exact maximum of A_r over the radii
    k * (r_max / steps), k = 1..steps.  A lower bound for the true maximum,
    and equal to it whenever some maximizing radius lies on the grid."""
    x, r_max = Fraction(x), Fraction(r_max)
    if steps < 1 or r_max <= 0:
        raise ParameterViolation("grid scan needs steps >= 1 and r_max > 0")
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
