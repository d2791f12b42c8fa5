"""Exact maximal averages and minimal maximizing radii on the integers.

Centered averages A_r f(n) (the mean of f over [n - r, n + r]) and uncentered
averages over windows [n - rho, n + s] containing n.  The event engines
evaluate only radii at which a window edge crosses a block boundary: between
consecutive events the average is a monotone Mobius function of the radius
when the moving edges sit in constant regions, so skipped radii host neither
a new maximum nor a smaller maximizing radius.  Edges moving through
power-law regions can create one interior peak per stretch; the peak is
pinned down by monotone binary searches justified by the convexity of the
edge terms.  Exhaustive brute-force oracles enumerate each window once, by
direct scan, for cross-validation; the range oracles answer every point of
an interval from one prefix table, which corpus.diff_signal reads directly.

An all-constant signal is the step function x -> f(floor(x)) on R, and its
window [n - r, n + r] is the ball of radius r + 1/2 about n + 1/2, so its
engines run on the one continuum.StepLayout that the signal compiles when it
is built: the centered engine is the continuous kink walk at the
half-integer centre, reading one window sum at the winner; the uncentered
maximum is the steepest chord of the prefix-mass graph across n, found by
tangent steps between the prefix and suffix hulls the layout compiles with
it, rather than by trying every pair of window edges; and the
radius sweep of frequency_pieces compares affine forms on the same
breakpoints, all in integers (scaled by the common denominator) on offsets
from the support start, and hands its runs to _append_run, which alone
decides where a piece ends (the greedy-run contract is stated in the
frequency_pieces docstring).  Outside the support all three read the
tangent switch points the layout compiles: one bisect per query, and the
pieces straight off the switch points.  profile_sweep cuts the pieces into
cells on which neither window edge crosses a breakpoint, where the window
mass is affine in n too, so a profile reads one window sum per cell, not
per point.

Power-law signals produce certified enclosures, and any comparison or peak
search that cannot be decided is surfaced as certified=False, with a `gap`
bounding what it left open (_Best.undecided), and is
never silently resolved.  Their engines decide on exact integer
prefix bounds alone (signal.window_bounds): candidate averages compare by
cross-multiplying window bounds with the window lengths, and the peak
searches' signs are read the same way.  An enclosure rounds the same
integers outward, so any sign an enclosure decides, the bounds decide
alike.  Only the reported value is rounded: the winner's average is
computed once.  Like the kink walk, they skip a power-law stretch, peak
search included, whose end window's mass over its shortest length cannot
beat the best, and stop where the largest window's mass cannot
(_Best.cannot_win), each skip decided only where every window it drops
would lose its own comparison.  A signal with a power-law block past
powerlaw_sum_cap is refused before any window is read
(signal.refuse_past_cap): every search reaches the whole support, so the
walk would sum that block whole.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat, tee
from operator import floordiv
from typing import Optional, Sequence, Union

from .config import DEFAULT_LIMITS, Limits
from .continuum import StepLayout, tangent_count
from .errors import BudgetExceeded, NonpositiveRadius, ParameterViolation
from .signal import (
    BlockSignal,
    PowerLaw,
    Signal,
    as_blocks,
    refuse_past_cap,
    region_at,
    support_bounds,
    window_bounds,
    window_sum,
    window_sum_scaled,
)
from .values import (
    Ordering,
    Value,
    compare,
    escalate,
    exact_bounds,
    int_brief,
    v_div_posint,
)


@dataclass(frozen=True)
class CenteredResult:
    """Maximal centered average at n and the minimal radius attaining it.

    certified is False, and `gap` not None, when some candidate was left
    undecided; the true maximum then lies in [lo, hi + gap], [lo, hi] the
    bounds of max_value, and radius is the minimal one among the decided
    candidates."""

    n: int
    max_value: Value
    radius: int
    certified: bool
    gap: Optional[Fraction] = None


@dataclass(frozen=True)
class UncenteredResult:
    """Maximal uncentered average at n and the minimal window diameter
    (length minus one) among maximizing windows; the half-diameter plays
    the role the radius plays in the centered case.  certified and gap as
    in CenteredResult."""

    n: int
    max_value: Value
    min_diameter: int
    certified: bool
    gap: Optional[Fraction] = None


MaxResult = Union[CenteredResult, UncenteredResult]

_ENUM_STRETCH = 64
_ENUM_FALLBACK = 10_000


def average_centered(sig: Signal, n: int, r: int, limits: Limits = DEFAULT_LIMITS) -> Value:
    """A_r f(n): mean of f over the window [n - r, n + r], r >= 0."""
    if r < 0:
        raise NonpositiveRadius("centered averages need radius >= 0")
    total = window_sum(sig, n - r, n + r, limits)
    return v_div_posint(total, 2 * r + 1, limits.precision)


def average_uncentered(
    sig: Signal, n: int, rho: int, s: int, limits: Limits = DEFAULT_LIMITS
) -> Value:
    """Mean of f over the window [n - rho, n + s] containing n."""
    if rho < 0 or s < 0:
        raise NonpositiveRadius("uncentered averages need rho, s >= 0")
    total = window_sum(sig, n - rho, n + s, limits)
    return v_div_posint(total, rho + s + 1, limits.precision)


def search_bound_centered(sig: Signal, n: int) -> int:
    """Radius beyond which the centered average is strictly decreasing.

    At R = max(|n - lo|, |n - hi|) the window swallows the support, so for
    r >= R the numerator is frozen at the total mass while the denominator
    grows: no maximum and no smaller maximizing radius lives past R."""
    lo, hi = support_bounds(sig)
    return max(abs(n - lo), abs(n - hi))


def _gap(top: Optional[Fraction], value: Value) -> Optional[Fraction]:
    """None when nothing was left open, else how far top reaches above value."""
    return None if top is None else max(Fraction(0), top - exact_bounds(value)[1])


def _best(cands) -> tuple:
    """(value, key, gap) for the largest value among (key, value) pairs,
    with the smallest key among exact ties.  A comparison the enclosures
    cannot decide keeps the current best and raises top to the candidate's
    upper bound; gap is _gap(top, value).  Every candidate is either
    decided below some best, so at most the final one, or at most top, so
    the maximum is at most hi(value) + gap.  The oracles' reference path:
    the event engines select by _Best, which keeps these update rules."""
    best_v: Optional[Value] = None
    best_k = 0
    top: Optional[Fraction] = None
    for k, v in cands:
        c = Ordering.GREATER if best_v is None else compare(v, best_v)
        if c is Ordering.GREATER:
            best_v, best_k = v, k
        elif c is Ordering.EQUAL:
            best_k = min(best_k, k)
        elif c is Ordering.INDETERMINATE:
            hi = exact_bounds(v)[1]
            top = hi if top is None else max(top, hi)
    return best_v, best_k, _gap(top, best_v)


def _bounds_sign(terms) -> Optional[int]:
    """Sign of sum c * S over terms (c, bounds), S the sum of f over a
    window and bounds its window_bounds, decided on the exact integers: +1
    or -1 when their interval excludes 0, 0 when it is the single point 0,
    and None when it holds 0 and more."""
    shift, den = 0, 1
    for _, b in terms:
        shift = max(shift, b[2])
        if b[3] != 1:
            den = math.lcm(den, b[3])
    lo = hi = 0
    for c, (blo, bhi, s, d) in terms:
        m = c * (den // d) << (shift - s)
        blo, bhi = blo * m, bhi * m
        if c < 0:
            blo, bhi = bhi, blo
        lo += blo
        hi += bhi
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return 0 if lo == hi else None


def _decided_sign(sig: BlockSignal, limits: Limits, windows) -> Optional[int]:
    """Sign of sum c * (sum of f over [a, b]) for windows (c, a, b), read
    off their window_bounds by _bounds_sign at the precisions of
    escalate(limits, ...); None when every rung leaves it open."""
    return escalate(
        limits,
        lambda lim: _bounds_sign([(c, window_bounds(sig, a, b, lim)) for c, a, b in windows]),
    )


class _Best:
    """The running best, by _best's update rules, of the averages
    average(a, b) of the windows (key, a, b) offered in turn.

    Two windows compare by _bounds_sign on their window_bounds
    cross-multiplied by the window lengths.  The averages' enclosures
    round the same integers outward, so where the bounds decide, _best
    decides alike, and where they leave it open, _best's comparison is
    undecided too: offer then records the window by undecided, as _best
    records the candidate's upper bound.  On an exact tie the first window
    stays, with the smaller key.  The winner's average is computed once.
    cannot_win tells a walk which windows it may skip, and undecided
    records what a walk leaves open, in the one bound top."""

    __slots__ = ("sig", "limits", "average", "win", "value", "top", "_held")

    def __init__(self, sig: BlockSignal, limits: Limits, average) -> None:
        self.sig, self.limits, self.average = sig, limits, average
        self.win: Optional[tuple] = None  # (key, a, b, window_bounds)
        self.value: Optional[Value] = None  # the winner's average, once computed
        self.top: Optional[Fraction] = None  # bounds what was left open, if anything
        self._held: dict = {}  # window_bounds of the windows cannot_win reads

    def best_value(self) -> Value:
        if self.value is None:
            self.value = self.average(self.win[1], self.win[2])
        return self.value

    def offer(self, k: int, a: int, b: int) -> None:
        wb = window_bounds(self.sig, a, b, self.limits)
        if self.win is None:
            self.win = (k, a, b, wb)
            return
        bk, ba, bb, bwb = self.win
        s = _bounds_sign(((bb - ba + 1, wb), (a - b - 1, bwb)))
        if s is None:
            self.undecided(a, b, b - a + 1, wb)
        elif s > 0:
            self.win, self.value = (k, a, b, wb), None
        elif s == 0:
            self.win = (min(bk, k), ba, bb, bwb)

    def cannot_win(self, a: int, b: int, length: int, strict: bool) -> bool:
        """Whether offer would keep the best for every window inside
        [a, b] at least length long: f >= 0, so S / length, S the mass of
        [a, b], bounds their averages from above.  True when that bound
        decides below the best average, or, unless strict, equal to it: a
        tie keeps the best's window and takes the smaller key, so a walk in
        ascending keys may drop ties too.

        It decides as offer does, by _bounds_sign on the window_bounds of
        [a, b] against the best's.  Such a window's parts are parts of
        [a, b], so its upper bound lies at or below that of [a, b]: a loss
        decided here is one offer decides, which records nothing, and an
        undecided test drops nothing.  A skipped stretch could have raised
        top no higher than max_value's upper bound.  The bounds of [a, b]
        are read once per window.  Nothing it reads is refused, as the
        engines refuse a signal past powerlaw_sum_cap before their walks, so
        a skip never changes which query is refused or what the refusal
        says."""
        if self.win is None:
            return False
        _, ba, bb, bwb = self.win
        wb = self._held.get((a, b))
        if wb is None:
            wb = self._held[(a, b)] = window_bounds(self.sig, a, b, self.limits)
        s = _bounds_sign(((bb - ba + 1, wb), (-length, bwb)))
        return s is not None and (s < 0 or (s == 0 and not strict))

    def undecided(self, a: int, b: int, length: int, wb: Optional[tuple] = None) -> None:
        """Marks the answer uncertified for the windows inside [a, b] at
        least length long that a walk left open: as in cannot_win their
        averages are at most S / length, S the mass of [a, b], so top rises
        to hi / ((den << shift) * length), read from the window_bounds of
        [a, b]: wb, or those cannot_win read."""
        wb = wb or self._held.get((a, b)) or window_bounds(self.sig, a, b, self.limits)
        _, hi, shift, den = wb
        bound = Fraction(hi, (den << shift) * length)
        if self.top is None or bound > self.top:
            self.top = bound

    def result(self) -> tuple:
        """(value, key, gap) as _best gives; at least one window was
        offered.  Every candidate was either decided below some best, so at
        most the final one, or recorded by undecided, so at most top."""
        value = self.best_value()
        return value, self.win[0], _gap(self.top, value)


def _delta_step_sign(sig: BlockSignal, n: int, r: int, limits: Limits, opened: list) -> int:
    """Sign of delta(r+1) - delta(r), delta(r) = f(n-r-1) + f(n+r+1); -1,
    with r appended to opened, when it stays undecided."""
    edges = (n - r - 2, n + r + 2, n - r - 1, n + r + 1)
    windows = [(c, x, x) for c, x in zip((1, 1, -1, -1), edges)]
    s = _decided_sign(sig, limits, windows)
    if s is None:
        opened.append(r)
        return -1
    return s


def _h_sign(sig: BlockSignal, n: int, r: int, limits: Limits, opened: list) -> int:
    """Sign of h(r) = (2r+1) delta(r) - 2 N(r); h > 0 iff A_{r+1} > A_r; 1,
    with r appended to opened, when it stays undecided."""
    d = 2 * r + 1
    windows = [(d, n - r - 1, n - r - 1), (d, n + r + 1, n + r + 1), (-2, n - r, n + r)]
    s = _decided_sign(sig, limits, windows)
    if s is None:
        opened.append(r)
        return 1
    return s


def _first_true(pred, lo: int, hi: int) -> int:
    """Smallest x in [lo, hi] with pred(x), or hi + 1 when there is none,
    for a pred that is false and then true on [lo, hi].  Tries lo, then hi,
    then bisects between them."""
    if pred(lo):
        return lo
    if not pred(hi):
        return hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _pl_stretch(sig: BlockSignal, n: int, r1: int, r2: int) -> bool:
    """Whether the event radii r1 < r2 leave radii between them and a moving
    edge of the centered window at n sits in a power-law region there."""
    return r2 - r1 >= 2 and (
        isinstance(region_at(sig, n - r1 - 1), PowerLaw)
        or isinstance(region_at(sig, n + r1 + 1), PowerLaw)
    )


def _centered_stretch_peaks(best: _Best, n: int, r1: int, r2: int) -> Sequence[int]:
    """Interior peak radii of A over the event-free stretch (r1, r2), in
    ascending order, for a stretch with a moving edge in a power-law
    region.

    Both moving edges stay inside single amplitude regions for r in
    [r1, r2 - 1] (a boundary crossing inside the stretch would itself be an
    event radius, contradicting consecutiveness).  Constant regions make the
    average a monotone Mobius function: nothing interior to add.  A power-law
    region makes delta(r) = f(n-r-1) + f(n+r+1) convex, so the increment sign
    h(r) = (2r+1) delta(r) - 2 N(r) is valley-shaped and crosses from + to -
    at most once; the crossing is found by two monotone binary searches."""
    if r2 - r1 <= _ENUM_STRETCH:
        return range(r1 + 1, r2)
    sig, limits, opened = best.sig, best.limits, []
    # valley bottom of h: first r in [r1, r2-2] whose delta-step is >= 0
    m = _first_true(lambda r: _delta_step_sign(sig, n, r, limits, opened) >= 0, r1, r2 - 2)
    # h is non-increasing on [r1, m]; find its first non-positive point
    t = _first_true(lambda r: _h_sign(sig, n, r, limits, opened) <= 0, r1, m)
    if opened:
        # sign calls stayed undecided at max precision: enumerate when the
        # stretch is small enough, otherwise bound the radii it holds
        if r2 - r1 <= _ENUM_FALLBACK:
            return range(r1 + 1, r2)
        best.undecided(n - r2 + 1, n + r2 - 1, 2 * r1 + 3)
    return range(max(r1 + 1, t - 2), min(r2, t + 3)) if t <= m else ()


def event_centered(sig: Signal, n: int, limits: Limits = DEFAULT_LIMITS) -> CenteredResult:
    """Maximal centered average and minimal maximizing radius at n.

    On all-constant signals the window [n - r, n + r] is the ball of radius
    r + 1/2 about n + 1/2 of the signal's StepLayout, so one walk over the
    O(B) kinks of the ball mass (StepLayout.centered_radius at the offset
    (2t + 1, 2), t = n - lo) returns 2r + 1, or 0 where f(n) is the
    maximum, and one window sum reads the value.  f >= 0 keeps the window
    mass nondecreasing in r, so the walk skips, exactly, each stretch of
    kinks whose end mass shows that none of its radii can win.  A point
    outside [lo, hi] takes one bisect over the layout's tangent switch
    points instead (StepLayout.outside_chord), whose chord gives both the
    radius and the window mass, so it costs the same at any distance.

    Power-law signals walk the event radii (edges meeting boundaries, +-1)
    in ascending order, each followed by the interior peaks of the
    power-law stretch up to the next; Mobius monotonicity between events
    and the peak searches make that candidate set complete both for the
    maximum and for the minimal radius attaining it.  The walk prunes by
    the same end-mass bound as the kink walk: it skips a stretch (r1, r2),
    peak search included, whose window of radius r2 - 1 has a mass over
    2 r1 + 3 that cannot beat the best, and it stops at the first event
    radius r at which the mass of the whole support over 2r + 1 cannot, as
    ties keep the smaller radius (_Best.cannot_win)."""
    blocks = as_blocks(sig)
    lay = blocks.layout
    if lay is not None:
        c = 2 * (n - lay.lo) + 1
        chord = lay.outside_chord(c, 2)
        if chord is not None:  # the window mass is half the chord's rise
            rise, run = chord
            return CenteredResult(n, Fraction(rise, 2 * lay.dy * run), run // 2, True)
        r = lay.centered_radius(c, 2) // 2
        num = window_sum_scaled(blocks, n - r, n + r)
        return CenteredResult(n, Fraction(num, lay.dy * (2 * r + 1)), r, True)
    refuse_past_cap(blocks, n, limits)
    r_cap = search_bound_centered(blocks, n)
    events = {0, r_cap}
    for b in blocks.boundaries():
        base = abs(n - b)
        events.update(r for r in (base - 1, base, base + 1) if 0 <= r <= r_cap)
    events = sorted(events)
    best = _Best(blocks, limits, lambda a, b: average_centered(blocks, n, n - a, limits))
    for r1, r2 in zip(events, events[1:] + [r_cap]):
        if best.cannot_win(n - r_cap, n + r_cap, 2 * r1 + 1, False):
            break
        best.offer(r1, n - r1, n + r1)
        if not _pl_stretch(blocks, n, r1, r2) or best.cannot_win(
            n - r2 + 1, n + r2 - 1, 2 * r1 + 3, False
        ):
            continue
        for r in _centered_stretch_peaks(best, n, r1, r2):
            best.offer(r, n - r, n + r)
    best_v, best_r, gap = best.result()
    return CenteredResult(n, best_v, best_r, gap is None, gap)


def _mass_stretch(lay: StepLayout, y: int) -> tuple:
    """(slope, P(y), last) for the prefix mass P of the layout on the
    linear stretch starting at y: P(y + t) = P(y) + slope * t while
    y + t <= last, the first breakpoint past y (None: for ever)."""
    xs = lay.xs
    k = bisect_right(xs, y)
    return lay.vals[k], lay.mass_to(y, 1), xs[k] if k < len(xs) else None


def _cell_candidates(lay: StepLayout, bounds: list, n: int, t_max: int) -> tuple:
    """The event radii 0 and |n - b| + d (d = -1, 0, 1) as affine forms
    from support offset n on, bounds being the block boundaries as offsets.

    Returns (t_end, forms): each form (r0, rs, m0, ms) gives the radius
    r0 + rs*t and the scaled window mass m0 + ms*t at n + t, and all of them
    hold for 0 <= t <= t_end <= t_max.  A form changes where n crosses its
    boundary b (n = b is a cell of its own, where b - 1 has no radius) and
    where a moving window edge crosses a breakpoint.  Radii above the search
    bound are kept: they hold the whole mass over a longer window than the
    bound's radius, which is a candidate too, so they never win."""
    t_end = t_max
    # (radius at n, radius slope, left edge, its speed, right edge + 1, its speed)
    shapes = [(0, 0, n, 1, n + 1, 1)]
    for b in bounds:
        if n < b:
            t_end = min(t_end, b - 1 - n)
            shapes += [(b - n + d, -1, 2 * n - b - d, 2, b + d + 1, 0) for d in (-1, 0, 1)]
        elif n == b:
            t_end = 0
            shapes += [(d, 0, b - d, 0, b + d + 1, 0) for d in (0, 1)]
        else:
            shapes += [(n - b + d, 1, b - d, 0, 2 * n - b + d + 1, 2) for d in (-1, 0, 1)]
    forms = {}
    for r0, rs, left, v_left, right, v_right in shapes:
        if (r0, rs) in forms:
            continue
        m0 = ms = 0
        for y, v, sign in ((right, v_right, 1), (left, v_left, -1)):
            slope, p, last = _mass_stretch(lay, y)
            m0 += sign * p
            if v:
                ms += sign * slope * v
                if last is not None:
                    t_end = min(t_end, (last - y) // v)
        forms[(r0, rs)] = (r0, rs, m0, ms)
    return t_end, list(forms.values())


def _beats(f: tuple, w: tuple, t: int) -> bool:
    """Whether form f has a larger average than w at t, or the same average
    at a smaller radius."""
    rf, rw = f[0] + f[1] * t, w[0] + w[1] * t
    q = (f[2] + f[3] * t) * (2 * rw + 1) - (w[2] + w[3] * t) * (2 * rf + 1)
    return q > 0 or (q == 0 and rf < rw)


def _first_beat(f: tuple, w: tuple, t0: int, t1: int) -> Optional[int]:
    """Smallest t in (t0, t1] at which f beats w, or None.

    The comparison q(t) = mass_f * den_w - mass_w * den_f is an integer
    quadratic.  When q is negative at both ends and has no maximum strictly
    inside, f never beats w.  Otherwise _beats is constant between t0 + 1,
    the integer neighbours of the real roots of q and of the radius
    difference (isqrt puts a root within 1/2 of the truth, hence the margin
    of two) and t1, so only those points are tried."""
    lo = t0 + 1
    if lo > t1:
        return None
    fr0, frs, fm0, fms = f
    wr0, wrs, wm0, wms = w
    fd0, fds, wd0, wds = 2 * fr0 + 1, 2 * frs, 2 * wr0 + 1, 2 * wrs
    a = fms * wds - wms * fds
    b = fms * wd0 + fm0 * wds - wms * fd0 - wm0 * fds
    c = fm0 * wd0 - wm0 * fd0
    if (
        (a * lo + b) * lo + c < 0
        and (a * t1 + b) * t1 + c < 0
        and (a >= 0 or 2 * a * lo + b <= 0 or 2 * a * t1 + b >= 0)
    ):
        return None
    keys = {lo}
    if a:
        disc = b * b - 4 * a * c
        if disc >= 0:
            s = math.isqrt(disc)
            for m in ((s - b) // (2 * a), (-s - b) // (2 * a)):
                keys.update(range(m - 1, m + 3))
    elif b:
        m = -c // b
        keys.update((m, m + 1))
    if frs != wrs:
        m = (wr0 - fr0) // (frs - wrs)
        keys.update((m, m + 1))
    for t in sorted(k for k in keys if lo <= k <= t1):
        if _beats(f, w, t):
            return t
    return None


def _sweep_tables(lay: StepLayout) -> tuple:
    """(bounds, near3, near4): the block boundaries (starts and ends) as
    sorted offsets, and for w = 3, 4 the offsets x such that one of x, ...,
    x + w - 1 is a breakpoint of the layout.  A breakpoint x starts a
    block when f is non-zero right of it and ends one at x - 1 when f is
    non-zero left of it."""
    xs, vals = lay.xs, lay.vals
    starts = {x for x, v in zip(xs, vals[1:]) if v}
    bounds = sorted(starts | {x - 1 for x, v in zip(xs, vals) if v})
    near3 = {x - j for x in xs for j in (0, 1, 2)}
    return bounds, near3, near3 | {x - 3 for x in xs}


def _edge_hit(left: list, right: list, near: set, x: int) -> bool:
    """Whether some moving window edge of the sweep's forms meets a
    breakpoint, for offsets t between two boundaries, left and right being
    the boundaries on either side of t.

    Those edges sit at 2t - c, c = b - d - 1 for a boundary b left of t and
    b + d for one right of it (d = -1, 0, 1).  With near3, the cell started
    at s ends before t exactly when x - c is a breakpoint for x = 2t - 1,
    or for t - 1 > s for x = 2t - 2: the edge passes the point that bounds
    t_end in _cell_candidates.  With near4 and x = 2t - 2 the test covers
    both x at once."""
    return not (near.isdisjoint(map(x.__sub__, left))
                and near.isdisjoint(map((x - 1).__sub__, right)))


def _outside_runs(tangents: tuple, u_a: int, u_b: int):
    """(u0, u1, dist): the runs of u_a <= u <= u_b, ascending, on which the
    tangent from the centre n + 1/2 at u + 1/2 beyond a support end touches
    the hull vertex dist from that end (StepLayout.left_tangents or
    right_tangents), so the least maximizing window reaches that vertex,
    radius dist + u.  A vertex holds until u + 1/2 passes the next switch
    point num / den."""
    pts, cuts = tangents
    k = tangent_count(cuts, 2 * u_a + 1, 2)
    u = u_a
    while u <= u_b:
        stop = u_b
        if k < len(cuts):
            _, num, den = cuts[k]
            stop = min(stop, (2 * num - den) // (2 * den))
        if stop >= u:
            yield u, stop, pts[k][0]
            u = stop + 1
        k += 1


# Cells shorter than this are walked point by point with the kink walk:
# a 1-point cell costs about 27 walks through _cell_candidates at B = 200
_SHORT_CELL = 16


def _append_run(pieces: list, a: int, b: int, slope: int, icpt: int) -> None:
    """Append the run a <= n <= b of r_n = slope * n + icpt, a one past the
    last piece's end, to pieces as if point by point, greedily from the
    left (frequency_pieces).  A run of two or more points has slope -1, 0
    or 1."""
    r = slope * a + icpt
    if pieces:
        a0, b0, s0, c0 = pieces[-1]
        if a0 == b0 and -1 <= r - c0 <= 1:  # a one-point piece has slope 0
            s0, c0 = r - c0, c0 - (r - c0) * a0
        if s0 * a + c0 == r:
            if (s0, c0) == (slope, icpt) or a == b:
                pieces[-1] = (a0, b, s0, c0)
                return
            pieces[-1] = (a0, a, s0, c0)
            a, r = a + 1, r + slope
    pieces.append((a, b, slope, icpt) if a < b else (a, a, 0, r))


def frequency_pieces(sig: Signal, n_lo: int, n_hi: int) -> list:
    """Minimal maximizing centered radii over n_lo <= n <= n_hi, exactly.

    On an all-constant signal r_n is piecewise affine in n.  Returns the
    runs (n_a, n_b, slope, intercept), in order, on which
    r_n = slope * n + intercept; expanded point by point they are the
    radii event_centered reports.  The runs are greedy from the left, a
    function of the radii alone: a point joins the last run when it lies
    on that run's line, and a one-point run takes the slope to the next
    point when that slope is -1, 0 or 1 (the only slopes whose edge motion
    profile_sweep reads), else it keeps slope 0 (_append_run).

    The range is cut into cells on which every event radius (0 and
    |n - b| + d, which include the kinks of the window mass) and its window
    mass are affine in n; within a cell the winner changes only where some
    candidate's quadratic comparison with it changes sign, so the sweep
    costs work per cell and per change of winner, not per point.  Cells
    shorter than _SHORT_CELL, as between close boundaries, are cheaper
    walked point by point.  Only [lo, hi] is swept.  Outside it the radius
    is the distance to the tangent vertex of the whole-support hull, slope
    -1 on the left and +1 on the right, and that vertex changes only at the
    layout's tangent switch points, so those runs come straight off the
    switch points, one per vertex, at any distance.  All arithmetic runs on
    offsets from the support start.  The boundary tables of the sweep
    (_sweep_tables) are built once per signal and kept on it."""
    blocks = as_blocks(sig)
    lay = blocks.layout
    if lay is None:
        raise ParameterViolation("frequency pieces need an all-constant signal")
    if n_hi < n_lo:
        raise ParameterViolation("frequency pieces need n_lo <= n_hi")
    pieces: list = []
    t, t_last = n_lo - lay.lo, n_hi - lay.lo
    end = lay.xs[-1]  # the first offset right of the support
    if t < 0:  # left of the support t = -1 - u
        t_left = min(t_last, -1)
        runs = list(_outside_runs(lay.left_tangents, -1 - t_left, -1 - t))
        for u0, u1, dist in reversed(runs):
            _append_run(pieces, -1 - u1, -1 - u0, -1, dist - 1)
        t = t_left + 1
    t_hi = min(t_last, end - 1)
    if t <= t_hi:  # the sweep's tables cost O(B), so only a range in [lo, hi] builds them
        if blocks._sweep is None:
            blocks._sweep = _sweep_tables(lay)
        bounds, near3, near4 = blocks._sweep
    while t <= t_hi:
        k = bisect_left(bounds, t)
        if k < len(bounds) and bounds[k] - t < _SHORT_CELL:
            # every cell up to the next boundary (or at it) is short
            stop = min(t_hi, max(t, bounds[k] - 1))
        else:
            # a long stretch: look up to _SHORT_CELL points ahead for the
            # next cell start
            left, right = bounds[:k], bounds[k:]
            stop, limit = t, min(t_hi, t + _SHORT_CELL - 1)
            if stop < limit and not _edge_hit(left, right, near3, 2 * t + 1):
                stop += 1
                while stop < limit and not _edge_hit(left, right, near4, 2 * stop):
                    stop += 1
        if stop < t + _SHORT_CELL - 1:
            for x in range(t, stop + 1):
                _append_run(pieces, x, x, 0, lay.centered_radius(2 * x + 1, 2) // 2)
            t = stop + 1
            continue
        t_end, forms = _cell_candidates(lay, bounds, t, t_hi - t)
        u = 0
        while True:
            w = forms[0]
            for f in forms[1:]:
                if _beats(f, w, u):
                    w = f
            nxt = None
            for f in forms:
                if f is not w:
                    hit = _first_beat(f, w, u, t_end if nxt is None else nxt - 1)
                    if hit is not None:
                        nxt = hit
            stop = t_end if nxt is None else nxt - 1
            _append_run(pieces, t + u, t + stop, w[1], w[0] - w[1] * t)
            if nxt is None:
                break
            u = nxt
        t += t_end + 1
    if t <= t_last:  # right of it t = end + u
        for u0, u1, dist in _outside_runs(lay.right_tangents, t - end, t_last - end):
            _append_run(pieces, end + u0, end + u1, 1, dist - end)
    lo = lay.lo
    return [(a + lo, b + lo, s, c - s * lo) for a, b, s, c in pieces]


def _dense_prefix(sig: BlockSignal) -> Optional[tuple]:
    """(D, lo, prefix) for an all-constant signal, else None: prefix[k] is
    D times the mass of [lo, lo + k - 1], lo the support start.  One walk
    over every support position builds it from the layout's scaled values
    on each oracle call and once per signal in corpus.diff_signal, so the
    row kernels read masses by position, apart from the layout's prefix reads."""
    lay = sig.layout
    if lay is None:
        return None
    pref = [0]
    for a, b, v in zip(lay.xs, lay.xs[1:], lay.vals[1:]):
        for _ in range(b - a):
            pref.append(pref[-1] + v)
    return lay.dy, lay.lo, pref


def oracle_centered(sig: Signal, n: int, limits: Limits = DEFAULT_LIMITS) -> CenteredResult:
    """Brute-force maximal centered average at n (oracle_centered_range)."""
    return oracle_centered_range(sig, n, n, limits)[0]


def _refuse_centered_scan(sig: BlockSignal, n_lo: int, n_hi: int, limits: Limits) -> None:
    """Refused past scan_radius_cap at some n in [n_lo, n_hi]."""
    # the search bound is convex in n, so it peaks at an end of the range
    for n in (n_lo, n_hi):
        r_cap = search_bound_centered(sig, n)
        if r_cap > limits.scan_radius_cap:
            raise BudgetExceeded(
                f"oracle scan over {int_brief(r_cap)} radii exceeds cap {limits.scan_radius_cap}"
            )


def oracle_centered_range(
    sig: Signal, n_lo: int, n_hi: int, limits: Limits = DEFAULT_LIMITS
) -> list:
    """Brute-force centered results for every n in [n_lo, n_hi], all constant
    ones off _centered_rows: each point scans its radii up to the search
    bound.  Refused wherever some point's scan would exceed scan_radius_cap."""
    sig = as_blocks(sig)
    _refuse_centered_scan(sig, n_lo, n_hi, limits)
    table = _dense_prefix(sig)
    results = []
    if table is None:
        for n in range(n_lo, n_hi + 1):
            r_cap = search_bound_centered(sig, n)
            averages = ((r, average_centered(sig, n, r, limits)) for r in range(r_cap + 1))
            best_v, best_r, gap = _best(averages)
            results.append(CenteredResult(n, best_v, best_r, gap is None, gap))
        return results
    rows = enumerate(_centered_rows(table, n_lo, n_hi), n_lo)
    return [CenteredResult(n, Fraction(num, den), r, True) for n, (num, den, r) in rows]


def _centered_rows(table: tuple, n_lo: int, n_hi: int):
    """(num, den, r) per n in [n_lo, n_hi]: the maximal centered average
    num/den, den = D (2r + 1) not reduced, at the minimal radius r."""
    d, lo, pref = table
    width, total, rev = len(pref) - 1, pref[-1], pref[::-1]
    for n in range(n_lo, n_hi + 1):
        off = n - lo
        # the window [n - r, n + r] has mass pref[off + r + 1] - pref[off - r]
        # with both indices clamped to [0, width]; it meets the support from r0
        # (smaller windows read mass 0, below the positive maximum)
        r0 = max(0, -off, off - width + 1)
        dens = range(2 * r0 + 1, 2 * max(off, width - 1 - off) + 2, 2)
        rights = chain(pref[off + r0 + 1:], repeat(total))
        lefts = chain(rev[width - off + r0:], repeat(0))
        best_num, best_den = -1, 1
        for den, a, b in zip(dens, rights, lefts):
            if (a - b) * best_den > best_num * den:
                best_num, best_den = a - b, den
        yield best_num, d * best_den, best_den // 2


def _uncentered_bounds(sig: Signal, n: int) -> tuple[int, int]:
    """Largest useful left and right reaches: windows sticking out past the
    support carry the same mass over a longer stretch, hence a strictly
    smaller average, so maximizers never extend past [lo, hi] (except to
    reach an n outside the support, where the near edge is pinned at n)."""
    lo, hi = support_bounds(sig)
    return max(0, n - lo), max(0, hi - n)


def _u_peak(best: _Best, l: int, u1: int, u2: int) -> Optional[int]:
    """Interior peak of u -> mean(f over [l, u]) on a power-law u-stretch.

    Extending the window right adds f(u+1), non-increasing across the
    stretch; once f(u+1) <= A([l, u]) the average can only fall, and the
    predicate stays true afterwards, so its first success is the peak.  A
    search left open bounds the windows it holds by best.undecided."""
    opened = []

    def done(u: int) -> bool:  # f(u+1) <= A([l, u])
        s = _decided_sign(best.sig, best.limits, [(u - l + 1, u + 1, u + 1), (-1, l, u)])
        if s is None:
            opened.append(u)
        return s is None or s <= 0

    peak = _first_true(done, u1, u2 - 1)
    if opened:
        best.undecided(l, u2 - 1, u1 - l + 2)
    return peak if peak < u2 else None


def _uncentered_hull(lay: StepLayout, n: int) -> UncenteredResult:
    """All-constant case of event_uncentered by prefix-sum hulls.

    With P(x) the scaled mass left of x, the window [l, u] averages the
    slope from (l, P(l)) to (u + 1, P(u + 1)), so the answer is the
    steepest chord from a left point to a right one, innermost pair first
    (StepLayout.steepest_chord).  P is linear between the block edges S_i
    and E_i + 1, the breakpoints of the signal's StepLayout, so on each side
    the slope term P*den - num*x is extremal, and extremal at its innermost,
    only at those edges or at the pinned ends t = n - lo and t + 1; the
    other candidate edges (boundaries +-1) can neither raise the maximum
    nor shorten the minimal window.  The left points are the breakpoints
    below t and (t, P(t)), the right ones (t + 1, P(t + 1)) and the
    breakpoints above t + 1: the reaches of _uncentered_bounds, with
    P = 0 left of the support.  The hulls of every prefix and suffix of
    the breakpoints are compiled with the layout, so a query walks two
    parent chains on offsets from the support start, and its arithmetic
    stays small at any n.  Outside the support the near end is pinned at
    t (left) or t + 1 (right) and the far end is the tangent vertex of the
    whole-support hull, one bisect over the switch points
    (StepLayout.outside_chord)."""
    xs = lay.xs
    t = n - lay.lo
    chord = lay.outside_chord(t if t < 0 else t + 1, 1)
    if chord is None:
        left, right = (t, lay.mass_to(t, 1)), (t + 1, lay.mass_to(t + 1, 1))
        chord = lay.steepest_chord(bisect_left(xs, t), left, bisect_right(xs, t + 1), right, 1)
    mass, length = chord
    return UncenteredResult(n, Fraction(mass, lay.dy * length), length - 1, True)


def event_uncentered(sig: Signal, n: int, limits: Limits = DEFAULT_LIMITS) -> UncenteredResult:
    """Maximal uncentered average at n and the minimal maximizing diameter.

    Candidate window edges are the block boundaries (+-1) and the pinned
    edges n and the support ends.  All-constant signals take the exact
    prefix-sum hull route: the best window is the steepest chord from a
    left-edge point of the prefix-mass graph to a right-edge one, found by
    tangent steps between the layout's compiled prefix and suffix hulls,
    so a query costs the two hull chains it walks, and among the windows
    attaining it the one with the largest left edge and the smallest right
    edge, which has the minimal diameter, is reported.  A point outside the
    support pins the near edge at n and finds the far one by one bisect
    over the layout's tangent switch points, at any distance.

    Power-law signals try the candidate pairs: for fixed right edge the
    average is valley-shaped in the left edge (constant regions: monotone
    Mobius; power-law regions: leftward extension meets non-decreasing
    values), so left edges only matter at stretch endpoints; for fixed left
    edge the average is unimodal in the right edge across power-law
    stretches, with the single interior peak located by a monotone binary
    search.  For each left edge l the right edges are walked in ascending
    order and pruned by the kink walk's end-mass bound: a power-law stretch
    (u1, u2), peak search included, is skipped when the mass of
    [l, u2 - 1] over u1 - l + 2 loses to the best, and the walk moves on to
    the next l at the first u at which the mass of [l, n + s_max] over
    u - l + 1 does.  Only strict losses prune, as a tie goes to the smaller
    diameter and the windows are not visited in diameter order."""
    blocks = as_blocks(sig)
    if blocks.layout is not None:
        return _uncentered_hull(blocks.layout, n)
    refuse_past_cap(blocks, n, limits)
    rho_max, s_max = _uncentered_bounds(blocks, n)
    l_low, u_high = n - rho_max, n + s_max
    l_set = {n, l_low}
    u_set = {n, u_high}
    for b in blocks.boundaries():
        for d in (-1, 0, 1):
            p = b + d
            if l_low <= p <= n:
                l_set.add(p)
            if n <= p <= u_high:
                u_set.add(p)
    u_cands = sorted(u_set)
    pl_ends = {
        u1: u2
        for u1, u2 in zip(u_cands, u_cands[1:])
        if u2 - u1 >= 2 and isinstance(region_at(blocks, u1 + 1), PowerLaw)
    }
    best = _Best(blocks, limits, lambda a, b: average_uncentered(blocks, n, n - a, b - n, limits))
    for l in sorted(l_set):
        for u1 in u_cands:
            if best.cannot_win(l, u_high, u1 - l + 1, True):
                break
            best.offer(u1 - l, l, u1)
            u2 = pl_ends.get(u1)
            if u2 is None or best.cannot_win(l, u2 - 1, u1 - l + 2, True):
                continue
            if u2 - u1 <= _ENUM_STRETCH:
                inner = range(u1 + 1, u2)
            else:
                peak = _u_peak(best, l, u1, u2)
                inner = () if peak is None else (peak - 1, peak, peak + 1)
            for u in inner:
                if u1 < u < u2:
                    best.offer(u - l, l, u)
    best_v, best_diam, gap = best.result()
    return UncenteredResult(n, best_v, best_diam, gap is None, gap)


def _refuse_uncentered_grid(sig: BlockSignal, n_lo: int, n_hi: int, limits: Limits) -> None:
    """Refused where some n in [n_lo, n_hi] has more than 16 * scan_radius_cap
    windows within the reaches of _uncentered_bounds."""
    lo, hi = support_bounds(sig)
    # the grid size falls left of lo, rises right of hi and is symmetric
    # and concave between, so it peaks at an end of the range or at the
    # support's middle (clamped into the range)
    for n in {n_lo, n_hi, min(max((lo + hi) // 2, n_lo), n_hi)}:
        rho_max, s_max = _uncentered_bounds(sig, n)
        if (rho_max + 1) * (s_max + 1) > limits.scan_radius_cap * 16:
            raise BudgetExceeded("uncentered oracle grid exceeds scan cap")


def oracle_uncentered(sig: Signal, n: int, limits: Limits = DEFAULT_LIMITS) -> UncenteredResult:
    """Brute-force maximal uncentered average: try every window
    [n - rho, n + s] within the useful reaches."""
    sig = as_blocks(sig)
    _refuse_uncentered_grid(sig, n, n, limits)
    rho_max, s_max = _uncentered_bounds(sig, n)
    table = _dense_prefix(sig)
    if table is not None:
        d, lo, pref = table
        width = len(pref) - 1

        def mass(a: int, b: int) -> int:
            ia = min(max(a - lo, 0), width)
            ib = min(max(b - lo + 1, 0), width)
            return pref[ib] - pref[ia] if ib > ia else 0

        best_num, best_len, best_diam = -1, 1, 0
        for rho in range(rho_max + 1):
            for s in range(s_max + 1):
                num = mass(n - rho, n + s)
                length = rho + s + 1
                lhs = num * best_len
                rhs = best_num * length
                if lhs > rhs or (lhs == rhs and rho + s < best_diam):
                    best_num, best_len, best_diam = num, length, rho + s
        return UncenteredResult(n, Fraction(best_num, d * best_len), best_diam, True)
    best_v, best_diam, gap = _best(
        (rho + s, average_uncentered(sig, n, rho, s, limits))
        for rho in range(rho_max + 1)
        for s in range(s_max + 1)
    )
    return UncenteredResult(n, best_v, best_diam, gap is None, gap)


def oracle_uncentered_range(
    sig: Signal, n_lo: int, n_hi: int, limits: Limits = DEFAULT_LIMITS
) -> list:
    """Brute-force uncentered results for every n in [n_lo, n_hi] at once, off
    _uncentered_rows: independent of oracle_uncentered, refused where it is."""
    sig = as_blocks(sig)
    _refuse_uncentered_grid(sig, n_lo, n_hi, limits)
    table = _dense_prefix(sig)
    if table is None:
        return [oracle_uncentered(sig, n, limits) for n in range(n_lo, n_hi + 1)]
    rows = enumerate(_uncentered_rows(table, *support_bounds(sig), n_lo, n_hi), n_lo)
    return [UncenteredResult(n, Fraction(num, den), d, True) for n, (num, den, d) in rows]


def _uncentered_rows(table: tuple, lo: int, hi: int, n_lo: int, n_hi: int) -> list:
    """(num, den, diameter) per n in [n_lo, n_hi], the signal supported on
    [lo, hi]: the maximal uncentered average num/den, den = D (diameter + 1)
    not reduced, at the minimal diameter.

    Enumerates every window with both endpoints inside the support once
    (for inner points the trimming argument pins maximizers there): for
    each left edge l, a pass with u descending from the support end keeps
    the best window [l, u'] with u' >= u, shortest on ties, which is the
    best window from l containing n = u, and folds it into n's row, so
    inner points cost O(width^2) in all.  Points outside the support try
    every window pinned at n on the near side, O(width) each."""
    d, _, pref = table
    count = n_hi - n_lo + 1
    # a window's diameter is its length minus one, so ties compare lengths
    best_num = [-1] * count
    best_len = [1] * count
    for l in range(lo, hi + 1):
        pl = pref[l - lo]
        run_num, run_len = -1, 1
        for u in range(hi, max(l, n_lo) - 1, -1):
            num, length = pref[u - lo + 1] - pl, u - l + 1
            if num * run_len >= run_num * length:
                run_num, run_len = num, length
            i = u - n_lo
            if i < count:
                lhs = run_num * best_len[i]
                rhs = best_num[i] * run_len
                if lhs > rhs or (lhs == rhs and run_len < best_len[i]):
                    best_num[i], best_len[i] = run_num, run_len
    # a point outside the support pins the near edge at n; lengths rise
    # along each scan, so strict gains keep the shortest maximizer
    heads, tails = pref[1:], [pref[-1] - m for m in pref[-2::-1]]
    outside = chain(range(n_lo, min(lo - 1, n_hi) + 1), range(max(hi + 1, n_lo), n_hi + 1))
    for n in outside:
        masses, dist = (heads, lo - n) if n < lo else (tails, n - hi)
        bn, bl = -1, 1
        for num, length in zip(masses, range(dist + 1, dist + len(masses) + 1)):
            if num * bl > bn * length:
                bn, bl = num, length
        best_num[n - n_lo], best_len[n - n_lo] = bn, bl
    return [(num, d * length, length - 1) for num, length in zip(best_num, best_len)]


def _checked_points(points, limits: Limits):
    """points as a sequence, a range of consecutive integers kept as one,
    refused past profile_point_cap before any point is evaluated."""
    if isinstance(points, range) and points.step == 1:
        pts, count = points, max(0, points.stop - points.start)
    else:
        pts = list(points)
        count = len(pts)
    if count > limits.profile_point_cap:
        raise BudgetExceeded(
            f"profile over {int_brief(count)} points exceeds cap {limits.profile_point_cap}"
        )
    return pts


def profile_sweep(sig: Signal, points, limits: Limits = DEFAULT_LIMITS):
    """The centered profile over a range of consecutive points of an
    all-constant signal, as cells (n_a, n_b, num, dnum, den, dden, r, dr): at
    n = n_a + k the minimal maximizing radius is r + k dr and the maximal
    average (num + k dnum) / (den + k dden), not reduced (cell_columns
    expands a cell), as event_centered gives them.  A cell is a stretch of a
    frequency_pieces piece on which neither edge of [n - r_n, n + r_n]
    crosses a breakpoint, so it reads one window sum at its start and its
    increments off layout.vals.  None for a point list or a signal with
    power-law blocks, which profile answers point by point.  The point cap
    (profile_point_cap) and the pieces are checked before this returns."""
    pts = _checked_points(points, limits)
    blocks = as_blocks(sig)
    if not isinstance(pts, range) or blocks.layout is None:
        return None
    return _sweep_cells(blocks, frequency_pieces(blocks, pts.start, pts.stop - 1) if pts else [])


def _sweep_cells(blocks: BlockSignal, pieces: list):
    lay = blocks.layout
    xs, vals, lo, d = lay.xs, lay.vals, lay.lo, lay.dy
    top = len(xs)
    for n_a, n_b, slope, icpt in pieces:
        # both edges move right: the left one by 1 - slope, the right one by
        # 1 + slope, and the prefix mass is continuous and affine between
        # breakpoints, so a cell may end with an edge on a breakpoint
        dl, de = 1 - slope, 1 + slope
        n = n_a
        while n <= n_b:
            r = slope * n + icpt
            s, e = n - r - lo, n + r + 1 - lo
            i, j = bisect_right(xs, s), bisect_right(xs, e)
            m = n_b - n
            if dl and i < top:
                m = min(m, (xs[i] - s) // dl)
            if de and j < top:
                m = min(m, (xs[j] - e) // de)
            num = window_sum_scaled(blocks, n - r, n + r)
            yield n, n + m, num, vals[j] * de - vals[i] * dl, d * (2 * r + 1), 2 * d * slope, r, slope
            n += m + 1


def _progression(start: int, step: int, count: int):
    return range(start, start + step * count, step) if step else repeat(start, count)


def cell_columns(cell: tuple):
    """(nums, dens, radii) of a profile_sweep cell, lazily, one entry per
    point: each maximal average num/den in lowest terms and its radius."""
    n_a, n_b, num, dnum, den, dden, r, dr = cell
    count = n_b - n_a + 1
    c = math.gcd(num, dnum, den, dden)  # divides every row: smaller operands
    num, dnum, den, dden = num // c, dnum // c, den // c, dden // c
    g1, g2 = tee(map(math.gcd, _progression(num, dnum, count), _progression(den, dden, count)))
    return (
        map(floordiv, _progression(num, dnum, count), g1),
        map(floordiv, _progression(den, dden, count), g2),
        _progression(r, dr, count),
    )


def profile(
    sig: Signal,
    points,
    uncentered: bool = False,
    limits: Limits = DEFAULT_LIMITS,
) -> list:
    """Event-engine results at each requested point.

    A range of consecutive points on an all-constant signal is answered
    centered by expanding the cells of profile_sweep, one frequency_pieces
    sweep, with the results event_centered gives."""
    pts = _checked_points(points, limits)
    blocks = as_blocks(sig)
    cells = None if uncentered else profile_sweep(blocks, pts, limits)
    if cells is not None:
        return [
            CenteredResult(n, Fraction(num, den), r, True)
            for cell in cells
            for n, num, den, r in zip(range(cell[0], cell[1] + 1), *cell_columns(cell))
        ]
    engine = event_uncentered if uncentered else event_centered
    return [engine(blocks, n, limits) for n in pts]
