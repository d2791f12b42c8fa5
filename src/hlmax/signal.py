"""Non-negative signals on the integers.

One integer-signal representation, BlockSignal: sorted, disjoint constant or
power-law blocks, for event-driven engines at scales where n may have
thousands of digits.  A DenseSignal only lists rational values on a window
(the input format of oracles, corpora and small experiments); every numeric
read of it goes through `as_blocks`, which compiles it once, on first use,
to the BlockSignal of its maximal constant runs.

Window sums are exact Fractions whenever every overlapped block is constant;
power-law overlaps produce certified enclosures.  An all-constant block
signal compiles, when it is built, to the continuum.StepLayout of the step
function x -> f(floor(x)): its breakpoints are the distinct block edges as
offsets from the support start, its values the amplitudes times their
common denominator D, with 0 in the gaps.  The mass of that step function
left of an integer t is D times the sum of f below t, so a window sum is two
integer prefix reads, and the window [n - r, n + r] is its ball of radius
r + 1/2 about n + 1/2: the discrete and the continuous engines share one
layout.  Power-law blocks keep integer prefix bounds at a power-of-two
scale, so a window's enclosure is one integer difference rounded once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .config import DEFAULT_LIMITS, Limits
from .continuum import StepLayout, step_layout
from .errors import ParameterViolation, PowerLawRangeTooLarge, ZeroSignal
from .values import (
    Value,
    int_str,
    json_field,
    json_int,
    json_rational,
    power_bounds_run,
    power_shift,
    power_term,
    rational_str,
    scaled_enclosure,
    v_add,
)


@dataclass(frozen=True)
class PowerLaw:
    """Amplitude model f(n) = n^(-alpha) on the block, alpha rational in (0,1)."""

    alpha: Fraction

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ParameterViolation("power-law exponent must lie in (0, 1)")


Amp = Union[Fraction, PowerLaw]


@dataclass(frozen=True)
class Block:
    start: int
    end: int
    amp: Amp

    def __post_init__(self):
        if self.start > self.end:
            raise ParameterViolation("block with start > end")
        if isinstance(self.amp, PowerLaw):
            if self.start < 1:
                raise ParameterViolation("power-law blocks need start >= 1")
        elif isinstance(self.amp, Fraction):
            if self.amp <= 0:
                raise ParameterViolation("constant block amplitude must be > 0")
        else:
            raise ParameterViolation("unknown amplitude model")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class DenseSignal:
    """Explicit rational values on [lo, lo + len - 1], trimmed and non-zero.

    Lists values only: engines, oracles, window sums and density series read
    it through its BlockSignal, which `to_blocks` builds on first use and
    returns as the same object afterwards, so repeated calls on one signal
    share that work."""

    __slots__ = ("lo", "values", "_blocks")

    def __init__(self, lo: int, values):
        vals = [Fraction(v) for v in values]
        if any(v < 0 for v in vals):
            raise ParameterViolation("signal values must be non-negative")
        i = 0
        while i < len(vals) and vals[i] == 0:
            i += 1
        j = len(vals)
        while j > i and vals[j - 1] == 0:
            j -= 1
        if i == j:
            raise ZeroSignal("dense signal is identically zero")
        self.lo = lo + i
        self.values = tuple(vals[i:j])
        self._blocks = None

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __eq__(self, other):
        return (
            isinstance(other, DenseSignal)
            and self.lo == other.lo
            and self.values == other.values
        )

    def __repr__(self):
        return f"DenseSignal(lo={self.lo}, width={len(self.values)})"


class BlockSignal:
    """Sorted disjoint blocks; adjacent blocks with identical amplitude merge.
    `layout` is the StepLayout of an all-constant signal, None when a block
    is power-law."""

    __slots__ = ("blocks", "_starts", "_ends", "_boundaries", "layout", "_pl_tables", "_sweep")

    def __init__(self, blocks):
        blist = sorted(blocks, key=lambda b: b.start)
        if not blist:
            raise ZeroSignal("block signal with no blocks")
        merged = [blist[0]]
        for b in blist[1:]:
            prev = merged[-1]
            if b.start <= prev.end:
                raise ParameterViolation("overlapping blocks")
            if b.start == prev.end + 1 and b.amp == prev.amp:
                merged[-1] = Block(prev.start, b.end, prev.amp)
            else:
                merged.append(b)
        self.blocks = tuple(merged)
        self._starts = [b.start for b in merged]
        self._ends = [b.end for b in merged]
        self._boundaries = []  # s_0 <= e_0 < s_1 <= e_1 < ...: already ascending
        for b in merged:
            self._boundaries.append(b.start)
            if b.end != b.start:
                self._boundaries.append(b.end)
        self.layout = None if self.has_powerlaw else _block_layout(merged)
        self._pl_tables = {}
        self._sweep = None  # frequency_pieces' boundary tables, built on first use

    @property
    def has_powerlaw(self) -> bool:
        return any(isinstance(b.amp, PowerLaw) for b in self.blocks)

    def boundaries(self) -> list:
        return self._boundaries

    def __eq__(self, other):
        return isinstance(other, BlockSignal) and self.blocks == other.blocks

    def __repr__(self):
        return f"BlockSignal(blocks={len(self.blocks)}, support={self.blocks[0].start}..{self.blocks[-1].end})"


Signal = Union[DenseSignal, BlockSignal]


def _block_layout(blocks: list) -> StepLayout:
    """The StepLayout of x -> f(floor(x)) for all-constant blocks: the
    distinct block edges start and end + 1, with 0 in the gaps."""
    bps, vals = [blocks[0].start], []
    for b in blocks:
        if b.start != bps[-1]:
            bps.append(b.start)
            vals.append(0)
        bps.append(b.end + 1)
        vals.append(b.amp)
    return step_layout(bps, vals)


def as_blocks(sig: Signal) -> BlockSignal:
    """The BlockSignal every numeric read goes through: the signal itself,
    or the compiled form of a DenseSignal."""
    if isinstance(sig, BlockSignal):
        return sig
    if isinstance(sig, DenseSignal):
        return to_blocks(sig)
    raise ParameterViolation("expected an integer signal (DenseSignal or BlockSignal)")


def support_bounds(sig: Signal) -> tuple[int, int]:
    """Smallest and largest n with f(n) != 0."""
    blocks = as_blocks(sig).blocks
    return blocks[0].start, blocks[-1].end


def eval_at(sig: Signal, n: int, limits: Limits = DEFAULT_LIMITS) -> Value:
    """Pointwise value f(n); exact except at power-law points with
    irrational values."""
    sig = as_blocks(sig)
    i = bisect_right(sig._starts, n) - 1
    if i >= 0 and sig._ends[i] >= n:
        amp = sig.blocks[i].amp
        if isinstance(amp, PowerLaw):
            return power_term(n, amp.alpha, limits.precision)
        return amp
    return Fraction(0)


def region_at(sig: BlockSignal, n: int):
    """Amplitude model governing position n: a Fraction (0 in gaps) or PowerLaw."""
    i = bisect_right(sig._starts, n) - 1
    if i >= 0 and sig._ends[i] >= n:
        return sig.blocks[i].amp
    return Fraction(0)


def _pl_table(sig: BlockSignal, idx: int, prec: int):
    """(shift, LO, HI) for power-law block idx: LO[i] and HI[i] bound
    2^shift times the sum of the block's first i terms, as exact integers.

    One shift serves the whole block, taken at its smallest term (its end),
    so every window sum is an integer difference.  The entries are running
    sums of power_bounds, built by power_bounds_run, whose roots are checked
    in integers (falling back to power_bounds when a check fails).
    _pl_bounds reads it for both window_sum, which rounds the difference
    into an enclosure, and window_bounds, which hands it on unrounded to the
    engines' sign decisions."""
    key = (idx, prec)
    tab = sig._pl_tables.get(key)
    if tab is None:
        b = sig.blocks[idx]
        alpha = b.amp.alpha
        shift = power_shift(b.end, alpha, prec)
        los, his = [0], [0]
        for m, exact in power_bounds_run(b.start, b.end, alpha, shift):
            los.append(los[-1] + m)
            his.append(his[-1] + (m if exact else m + 1))
        tab = (shift, los, his)
        sig._pl_tables[key] = tab
    return tab


def _past_cap(count: int, limits: Limits) -> PowerLawRangeTooLarge:
    return PowerLawRangeTooLarge(
        f"power-law intersection of length {int_str(count)} exceeds cap {limits.powerlaw_sum_cap}"
    )


def _pl_bounds(sig: BlockSignal, idx: int, a: int, b: int, limits: Limits) -> tuple:
    """(lo, hi, shift): exact integers with
    lo <= 2^shift * (sum of n^(-alpha) over [a, b]) <= hi, for [a, b] inside
    power-law block idx.  Read off the block's _pl_table, or summed term by
    term by power_bounds_run for a block longer than prefix_cache_cap: the
    same integers at the same shift either way.  Refused past
    powerlaw_sum_cap."""
    count = b - a + 1
    if count > limits.powerlaw_sum_cap:
        raise _past_cap(count, limits)
    blk = sig.blocks[idx]
    if blk.length <= limits.prefix_cache_cap:
        shift, los, his = _pl_table(sig, idx, limits.precision)
        ia, ib = a - blk.start, b - blk.start + 1
        return los[ib] - los[ia], his[ib] - his[ia], shift
    alpha = blk.amp.alpha
    shift = power_shift(blk.end, alpha, limits.precision)
    lo = hi = 0
    for m, exact in power_bounds_run(a, b, alpha, shift):
        lo += m
        hi += m if exact else m + 1
    return lo, hi, shift


def refuse_past_cap(sig: BlockSignal, n: int, limits: Limits) -> None:
    """Refuse a query at n when some power-law block of sig is longer than
    powerlaw_sum_cap, naming the length of the one nearest to n (the left
    one of two equally near).  A search whose windows reach the whole
    support sums every block whole, so it is refused exactly then, and this
    decides it before any window is read."""
    cap = limits.powerlaw_sum_cap
    over = [b for b in sig.blocks if isinstance(b.amp, PowerLaw) and b.length > cap]
    if over:
        nearest = min(over, key=lambda b: max(b.start - n, n - b.end, 0))
        raise _past_cap(nearest.length, limits)


def window_sum(sig: Signal, a: int, b: int, limits: Limits = DEFAULT_LIMITS) -> Value:
    """Sum of f over the integer window [a, b] (empty if a > b)."""
    if a > b:
        return Fraction(0)
    sig = as_blocks(sig)
    if sig.layout is not None:
        return Fraction(window_sum_scaled(sig, a, b), sig.layout.dy)
    exact = Fraction(0)
    enc: Optional[Value] = None
    i0 = bisect_left(sig._ends, a)
    i1 = bisect_right(sig._starts, b) - 1
    for i in range(i0, i1 + 1):
        blk = sig.blocks[i]
        lo_n = max(a, blk.start)
        hi_n = min(b, blk.end)
        if lo_n > hi_n:
            continue
        if isinstance(blk.amp, PowerLaw):
            part = scaled_enclosure(*_pl_bounds(sig, i, lo_n, hi_n, limits), limits.precision)
            enc = part if enc is None else v_add(enc, part, limits.precision)
        else:
            exact += blk.amp * (hi_n - lo_n + 1)
    if enc is None:
        return exact
    if exact:
        return v_add(enc, exact, limits.precision)
    return enc


def window_bounds(sig: BlockSignal, a: int, b: int, limits: Limits = DEFAULT_LIMITS):
    """(lo, hi, shift, den): exact integers with
    lo <= 2^shift * den * (sum of f over [a, b]) <= hi, read without rounding.

    Each power-law part is its _pl_bounds (the integers window_sum rounds,
    tabled or not), shifted up to the largest shift among the power-law
    blocks the window meets; the constant parts add exactly, den being the
    denominator of their sum.  shift is 0 exactly when the
    window meets no power-law block, and then lo = hi.  A single term f(n)
    is the window [n, n].  Refused, as window_sum is, where an intersection
    is past powerlaw_sum_cap."""
    if a > b:
        return 0, 0, 0, 1
    const = lo = hi = shift = 0
    for i in range(bisect_left(sig._ends, a), bisect_right(sig._starts, b)):
        blk = sig.blocks[i]
        lo_n, hi_n = max(a, blk.start), min(b, blk.end)
        if not isinstance(blk.amp, PowerLaw):
            const += blk.amp * (hi_n - lo_n + 1)
            continue
        plo, phi, s = _pl_bounds(sig, i, lo_n, hi_n, limits)
        if s > shift:
            lo, hi, shift = lo << (s - shift), hi << (s - shift), s
        lo += plo << (shift - s)
        hi += phi << (shift - s)
    if not const:
        return lo, hi, shift, 1
    num, den = const.numerator, const.denominator
    return lo * den + (num << shift), hi * den + (num << shift), shift, den


def window_sum_scaled(sig: BlockSignal, a: int, b: int) -> int:
    """Integer window numerator for all-constant block signals (amp * D):
    the layout's prefix mass (StepLayout.mass_to at q = 1) at b + 1 minus
    that at a, read inline, as this runs once per centered query and once
    per cell of a profile."""
    if a > b:
        return 0
    lay = sig.layout
    xs, lo = lay.xs, lay.lo
    s, e = a - lo, b + 1 - lo
    j = bisect_right(xs, e)
    if not j:
        return 0
    ys, vals = lay.ys, lay.vals
    i = bisect_right(xs, s)
    mass = ys[j - 1] + vals[j] * (e - xs[j - 1])
    return mass - ys[i - 1] - vals[i] * (s - xs[i - 1]) if i else mass


def norm_l1(sig: Signal, limits: Limits = DEFAULT_LIMITS) -> Value:
    """Total mass sum_n f(n); positive by the no-zero-signal invariant."""
    lo, hi = support_bounds(sig)
    return window_sum(sig, lo, hi, limits)


def to_blocks(sig: DenseSignal) -> BlockSignal:
    """Maximal constant runs of a dense signal as constant blocks, built on
    the first call and returned as the same object on every later one."""
    if sig._blocks is not None:
        return sig._blocks
    blocks = []
    run_start = None
    run_val = None
    for off, v in enumerate(sig.values):
        n = sig.lo + off
        if v != run_val:
            if run_val:
                blocks.append(Block(run_start, n - 1, run_val))
            run_start, run_val = n, v
    if run_val:
        blocks.append(Block(run_start, sig.hi, run_val))
    sig._blocks = BlockSignal(blocks)
    return sig._blocks


def translate(sig: Signal, m: int) -> Signal:
    """Shift f by m: (translate f)(n) = f(n - m)."""
    if isinstance(sig, DenseSignal):
        return DenseSignal(sig.lo + m, sig.values)
    if sig.has_powerlaw:
        raise ParameterViolation("power-law values are tied to their coordinates")
    return BlockSignal([Block(b.start + m, b.end + m, b.amp) for b in sig.blocks])


def reflect(sig: Signal) -> Signal:
    """Mirror f: (reflect f)(n) = f(-n)."""
    if isinstance(sig, DenseSignal):
        return DenseSignal(-sig.hi, tuple(reversed(sig.values)))
    if sig.has_powerlaw:
        raise ParameterViolation("power-law values are tied to their coordinates")
    return BlockSignal([Block(-b.end, -b.start, b.amp) for b in sig.blocks])


def scale(sig: Signal, c: Fraction) -> Signal:
    """Scale amplitudes by a rational c > 0."""
    c = Fraction(c)
    if c <= 0:
        raise ParameterViolation("scale factor must be positive")
    if isinstance(sig, DenseSignal):
        return DenseSignal(sig.lo, [v * c for v in sig.values])
    if sig.has_powerlaw:
        raise ParameterViolation("power-law amplitudes carry no scale factor")
    return BlockSignal([Block(b.start, b.end, b.amp * c) for b in sig.blocks])


def signal_to_json(sig: Signal) -> dict:
    # integers are serialized as decimal strings: block boundaries reach
    # scales where the interpreter refuses direct int<->str conversion
    if isinstance(sig, DenseSignal):
        return {
            "type": "dense",
            "lo": int_str(sig.lo),
            "values": [rational_str(v) for v in sig.values],
        }
    out = []
    for b in sig.blocks:
        if isinstance(b.amp, PowerLaw):
            amp = {"powerlaw": rational_str(b.amp.alpha)}
        else:
            amp = {"const": rational_str(b.amp)}
        out.append({"start": int_str(b.start), "end": int_str(b.end), "amp": amp})
    return {"type": "blocks", "blocks": out}


def signal_from_json(doc) -> Signal:
    kind = json_field(doc, "type", str)
    if kind == "dense":
        values = [json_rational(v) for v in json_field(doc, "values", list)]
        return DenseSignal(json_int(json_field(doc, "lo")), values)
    if kind == "blocks":
        blocks = []
        for item in json_field(doc, "blocks", list):
            amp_doc = json_field(item, "amp", dict)
            if "const" in amp_doc:
                amp: Amp = json_rational(amp_doc["const"])
            elif "powerlaw" in amp_doc:
                amp = PowerLaw(json_rational(amp_doc["powerlaw"]))
            else:
                raise ParameterViolation("unknown amplitude model in JSON")
            start, end = json_field(item, "start"), json_field(item, "end")
            blocks.append(Block(json_int(start), json_int(end), amp))
        return BlockSignal(blocks)
    raise ParameterViolation(f"unknown signal type {kind!r}")
