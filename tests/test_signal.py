"""Signal layer: validation, window sums, conversions, JSON round trips."""

import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlmax.config import Limits
from hlmax.corpus import random_dense
from hlmax.errors import ParameterViolation, PowerLawRangeTooLarge, ZeroSignal
from hlmax.signal import (
    Block,
    BlockSignal,
    DenseSignal,
    PowerLaw,
    eval_at,
    norm_l1,
    reflect,
    scale,
    signal_from_json,
    signal_to_json,
    support_bounds,
    to_blocks,
    translate,
    window_bounds,
    window_sum,
    window_sum_scaled,
)
from hlmax.signal import _pl_table
from dense_form import to_dense
from hlmax.values import exact_bounds, power_bounds, power_shift, power_term, scaled_enclosure

amp_st = st.fractions(min_value=Fraction(0), max_value=Fraction(4), max_denominator=12)
values_st = st.lists(amp_st, min_size=1, max_size=40).filter(lambda vs: any(vs))


def dense(lo, vals):
    return DenseSignal(lo, [Fraction(v) for v in vals])


class TestConstruction:
    def test_zero_signal_rejected(self):
        with pytest.raises(ZeroSignal):
            DenseSignal(0, [Fraction(0), Fraction(0)])

    def test_negative_rejected(self):
        with pytest.raises(ParameterViolation):
            DenseSignal(0, [Fraction(-1)])
        with pytest.raises(ParameterViolation):
            Block(0, 3, Fraction(-1, 2))

    def test_zero_trim(self):
        s = dense(5, [0, 0, 1, 2, 0])
        assert support_bounds(s) == (7, 8)

    def test_block_overlap_rejected(self):
        with pytest.raises(ParameterViolation):
            BlockSignal([Block(0, 5, Fraction(1)), Block(5, 9, Fraction(2))])

    def test_block_bad_range_rejected(self):
        with pytest.raises(ParameterViolation):
            Block(4, 3, Fraction(1))

    def test_adjacent_equal_blocks_merge(self):
        s = BlockSignal([Block(0, 3, Fraction(1, 2)), Block(4, 9, Fraction(1, 2))])
        assert len(s.blocks) == 1
        assert (s.blocks[0].start, s.blocks[0].end) == (0, 9)

    def test_powerlaw_needs_positive_start(self):
        with pytest.raises(ParameterViolation):
            BlockSignal([Block(0, 5, PowerLaw(Fraction(1, 2)))])
        BlockSignal([Block(1, 5, PowerLaw(Fraction(1, 2)))])  # fine

    def test_powerlaw_alpha_range(self):
        with pytest.raises(ParameterViolation):
            PowerLaw(Fraction(1))
        with pytest.raises(ParameterViolation):
            PowerLaw(Fraction(0))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(1, 4),
                st.one_of(st.sampled_from((Fraction(1), Fraction(1, 3))),
                          st.builds(PowerLaw, st.sampled_from((Fraction(1, 2), Fraction(2, 3))))),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from((1, 2**10000)),
    )
    @settings(max_examples=100)
    def test_boundaries_are_the_sorted_block_edges(self, spec, off):
        # gaps of 0 make touching blocks (merged when their amplitudes
        # agree), length 1 one-point blocks with start == end
        blocks, pos = [], off
        for gap, length, amp in spec:
            pos += gap
            blocks.append(Block(pos, pos + length - 1, amp))
            pos += length
        sig = BlockSignal(blocks)
        edges = {b.start for b in sig.blocks} | {b.end for b in sig.blocks}
        assert sig.boundaries() == sorted(edges)


class TestWindowSums:
    @given(values_st, st.integers(-30, 30), st.data())
    @settings(max_examples=80)
    def test_additivity(self, vals, lo, data):
        sig = DenseSignal(lo, vals)
        a = data.draw(st.integers(lo - 5, lo + len(vals) + 5))
        c = data.draw(st.integers(a, lo + len(vals) + 10))
        b = data.draw(st.integers(a, c))
        left = window_sum(sig, a, b)
        right = window_sum(sig, b + 1, c) if b < c else Fraction(0)
        assert left + right == window_sum(sig, a, c)

    @given(values_st, st.integers(-30, 30))
    @settings(max_examples=60)
    def test_matches_pointwise(self, vals, lo):
        sig = DenseSignal(lo, vals)
        a, b = lo - 2, lo + len(vals) + 2
        assert window_sum(sig, a, b) == sum(
            (eval_at(sig, n) for n in range(a, b + 1)), Fraction(0)
        )

    @given(values_st, st.integers(-30, 30))
    @settings(max_examples=60)
    def test_block_dense_agree(self, vals, lo):
        # reads of a DenseSignal go through its compiled blocks, so they are
        # checked against sums over its listed values, not against the blocks
        sig = DenseSignal(lo, vals)
        a, b = sig.lo - 3, sig.hi + 3
        listed = [Fraction(0)] * 3 + list(sig.values) + [Fraction(0)] * 3
        prefix = [Fraction(0)]
        for v in listed:
            prefix.append(prefix[-1] + v)
        for n in range(a, b + 1):
            assert eval_at(sig, n) == listed[n - a]
            for m in range(n, b + 1):
                assert window_sum(sig, n, m) == prefix[m - a + 1] - prefix[n - a]
        assert norm_l1(sig) == sum(sig.values)

    def test_norm_is_full_window(self):
        s = dense(-3, [1, 0, 2, Fraction(1, 3)])
        assert norm_l1(s) == Fraction(1) + 2 + Fraction(1, 3)


# two power-law blocks: dyadic (n = 4, 16, ...) and other perfect powers in
# the first, none in the second
PL_SIG = BlockSignal(
    [Block(1, 700, PowerLaw(Fraction(1, 2))), Block(900, 2100, PowerLaw(Fraction(3, 5)))]
)


@st.composite
def pl_windows(draw):
    blk = PL_SIG.blocks[draw(st.integers(0, 1))]
    a = draw(st.integers(blk.start, blk.end))
    return blk, a, draw(st.integers(a, min(blk.end, a + 400)))


class TestPowerLawSums:
    """Power-law window sums through the prefix table and the uncached loop."""

    @given(pl_windows())
    @settings(max_examples=40, deadline=None)
    def test_table_and_loop_agree(self, window):
        blk, a, b = window
        prec = Limits().precision
        table = window_sum(PL_SIG, a, b)
        loop = window_sum(PL_SIG, a, b, Limits(prefix_cache_cap=0))
        # every table entry up to b, and both window sums, are running sums
        # of the per-term power_bounds integers
        alpha = blk.amp.alpha
        shift, los, his = _pl_table(PL_SIG, PL_SIG.blocks.index(blk), prec)
        assert shift == power_shift(blk.end, alpha, prec)
        assert los[0] == his[0] == 0
        lo = hi = 0
        for n in range(blk.start, b + 1):
            m, exact = power_bounds(n, alpha, shift)
            lo, hi = lo + m, hi + (m if exact else m + 1)
            assert (los[n - blk.start + 1], his[n - blk.start + 1]) == (lo, hi)
        ia = a - blk.start
        assert table == loop == scaled_enclosure(lo - los[ia], hi - his[ia], shift, prec)
        # and meet the sum of the single-term enclosures, which holds the truth
        table = exact_bounds(table)
        terms = [exact_bounds(power_term(n, alpha)) for n in range(a, b + 1)]
        assert table[0] <= sum(t[1] for t in terms) and sum(t[0] for t in terms) <= table[1]

    @given(pl_windows())
    @settings(max_examples=15, deadline=None)
    def test_tables_nest_across_precisions(self, window):
        _, a, b = window
        outer = None
        for prec in (256, 512, 1024):
            lo, hi = exact_bounds(window_sum(PL_SIG, a, b, Limits(precision=prec)))
            if outer is not None:
                assert outer[0] <= lo <= hi <= outer[1]
            outer = (lo, hi)


# power-law blocks of two exponents with constant blocks and gaps between
MIXED_SIG = BlockSignal(
    [
        Block(1, 300, PowerLaw(Fraction(1, 2))),
        Block(301, 340, Fraction(2, 7)),
        Block(360, 700, PowerLaw(Fraction(3, 5))),
        Block(720, 730, Fraction(1, 3)),
    ]
)


class TestWindowBounds:
    """window_bounds: the exact integers window_sum rounds, unrounded."""

    @given(st.integers(-5, 745), st.integers(0, 760), st.sampled_from([12, 53, 256]))
    @settings(max_examples=80, deadline=None)
    def test_inside_window_sum(self, a, width, prec):
        b = a + width
        lim = Limits(precision=prec)
        lo, hi, shift, den = window_bounds(MIXED_SIG, a, b, lim)
        total = window_sum(MIXED_SIG, a, b, lim)
        scale_ = den << shift
        met = [blk for blk in MIXED_SIG.blocks if blk.start <= b and a <= blk.end]
        shifts = [
            power_shift(blk.end, blk.amp.alpha, prec) for blk in met if isinstance(blk.amp, PowerLaw)
        ]
        assert shift == max(shifts, default=0)
        if not shifts:  # constant parts alone: exact
            assert lo == hi and Fraction(lo, scale_) == total
        else:  # the unrounded bounds sit inside the rounded enclosure
            enc_lo, enc_hi = exact_bounds(total)
            assert enc_lo <= Fraction(lo, scale_) <= Fraction(hi, scale_) <= enc_hi

    def test_single_term_and_empty_window(self):
        n, alpha = 400, Fraction(3, 5)
        lo, hi, shift, den = window_bounds(MIXED_SIG, n, n)
        assert den == 1 and shift == power_shift(700, alpha, Limits().precision)
        m, exact = power_bounds(n, alpha, shift)
        assert (lo, hi) == (m, m if exact else m + 1)
        assert window_bounds(MIXED_SIG, 5, 4) == (0, 0, 0, 1)

    def test_untabled_bounds_equal_the_tabled_ones(self):
        # past prefix_cache_cap every power-law part is summed term by term,
        # to the integers the table holds, at the same shift; the windows
        # run between block edges (+-1) and every 17th point, plus every
        # one-term window
        untabled = Limits(prefix_cache_cap=0)
        ends = {e + d for blk in MIXED_SIG.blocks for e in (blk.start, blk.end) for d in (-1, 0, 1)}
        ends = sorted(ends | set(range(0, 732, 17)))
        windows = [(a, b) for a in ends for b in ends if a <= b]
        windows += [(n, n) for n in range(ends[0], ends[-1] + 1)]
        for a, b in windows:
            assert window_bounds(MIXED_SIG, a, b, untabled) == window_bounds(MIXED_SIG, a, b)
        # a window meeting constant blocks only needs no table
        assert window_bounds(MIXED_SIG, 301, 359, untabled) == (80, 80, 0, 7)

    def test_refused_past_the_summation_cap_as_window_sum_is(self):
        # block [360, 700] holds 341 terms; the window meets 41 of them
        a, b = 660, 705
        lim = Limits(powerlaw_sum_cap=40)
        with pytest.raises(PowerLawRangeTooLarge) as summed:
            window_sum(MIXED_SIG, a, b, lim)
        with pytest.raises(PowerLawRangeTooLarge) as bounded:
            window_bounds(MIXED_SIG, a, b, lim)
        assert str(bounded.value) == str(summed.value)
        assert str(summed.value) == "power-law intersection of length 41 exceeds cap 40"
        assert window_bounds(MIXED_SIG, a, b, Limits(powerlaw_sum_cap=41)) == window_bounds(
            MIXED_SIG, a, b
        )


class TestConversions:
    @given(values_st, st.integers(-20, 20))
    @settings(max_examples=60)
    def test_round_trip(self, vals, lo):
        sig = DenseSignal(lo, vals)
        back = to_dense(to_blocks(sig))
        assert support_bounds(back) == support_bounds(sig)
        s_lo, s_hi = support_bounds(sig)
        for n in range(s_lo, s_hi + 1):
            assert eval_at(back, n) == eval_at(sig, n)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_compiles_once(self, seed):
        rng = random.Random(seed)
        sig = random_dense(rng, max_width=24, run_limited=rng.random() < 0.8)
        compiled = to_blocks(sig)
        assert to_blocks(sig) is compiled
        assert compiled == to_blocks(DenseSignal(sig.lo, sig.values))

    @given(st.integers(0, 2**32 - 1), st.integers(-15, 15))
    @settings(max_examples=60)
    def test_transforms_compile_their_own_blocks(self, seed, t):
        rng = random.Random(seed)
        sig = random_dense(rng, max_width=24, run_limited=rng.random() < 0.8)
        compiled = to_blocks(sig)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        for derived, expected in (
            (translate(sig, t), translate(compiled, t)),
            (reflect(sig), reflect(compiled)),
            (scale(sig, c), scale(compiled, c)),
        ):
            got = to_blocks(derived)
            assert got is not compiled
            assert got == expected
        assert to_blocks(sig) is compiled


class TestTransforms:
    @given(values_st, st.integers(-20, 20), st.integers(-15, 15))
    @settings(max_examples=50)
    def test_translate(self, vals, lo, t):
        sig = DenseSignal(lo, vals)
        moved = translate(sig, t)
        s_lo, s_hi = support_bounds(sig)
        for n in range(s_lo - 2, s_hi + 3):
            assert eval_at(moved, n + t) == eval_at(sig, n)

    @given(values_st, st.integers(-20, 20))
    @settings(max_examples=50)
    def test_reflect(self, vals, lo):
        sig = DenseSignal(lo, vals)
        mirrored = reflect(sig)
        s_lo, s_hi = support_bounds(sig)
        for n in range(s_lo - 2, s_hi + 3):
            assert eval_at(mirrored, -n) == eval_at(sig, n)

    @given(values_st, st.integers(-20, 20))
    @settings(max_examples=50)
    def test_scale(self, vals, lo):
        sig = DenseSignal(lo, vals)
        doubled = scale(sig, Fraction(2, 3))
        s_lo, s_hi = support_bounds(sig)
        for n in range(s_lo, s_hi + 1):
            assert eval_at(doubled, n) == Fraction(2, 3) * eval_at(sig, n)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ParameterViolation):
            scale(dense(0, [1]), Fraction(0))

    def test_powerlaw_transform_rejected(self):
        s = BlockSignal([Block(1, 5, PowerLaw(Fraction(1, 2)))])
        with pytest.raises(ParameterViolation):
            translate(s, 3)
        with pytest.raises(ParameterViolation):
            reflect(s)
        with pytest.raises(ParameterViolation):
            scale(s, Fraction(2))


class TestJson:
    def test_dense_round_trip(self):
        sig = dense(-4, [1, Fraction(2, 3), 0, 5])
        doc = signal_to_json(sig)
        back = signal_from_json(doc)
        assert isinstance(back, DenseSignal)
        assert support_bounds(back) == support_bounds(sig)
        lo, hi = support_bounds(sig)
        for n in range(lo, hi + 1):
            assert eval_at(back, n) == eval_at(sig, n)

    def test_blocks_round_trip(self):
        sig = BlockSignal(
            [Block(1, 4, PowerLaw(Fraction(3, 5))), Block(10, 12, Fraction(1, 7))]
        )
        back = signal_from_json(signal_to_json(sig))
        assert isinstance(back, BlockSignal)
        assert [(b.start, b.end) for b in back.blocks] == [(1, 4), (10, 12)]
        assert isinstance(back.blocks[0].amp, PowerLaw)
        assert back.blocks[0].amp.alpha == Fraction(3, 5)
        assert back.blocks[1].amp == Fraction(1, 7)

    def test_bad_doc_rejected(self):
        with pytest.raises(ParameterViolation):
            signal_from_json({"type": "nope"})

    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            None,
            {},
            {"type": 3},
            {"type": "dense", "values": ["1"]},
            {"type": "dense", "lo": None, "values": ["1"]},
            {"type": "dense", "lo": "0", "values": "1"},
            {"type": "dense", "lo": "0", "values": [1]},
            {"type": "blocks"},
            {"type": "blocks", "blocks": [1]},
            {"type": "blocks", "blocks": [{"start": "1", "end": "3"}]},
            {"type": "blocks", "blocks": [{"start": "1", "end": "3", "amp": []}]},
            {"type": "blocks", "blocks": [{"start": "1", "amp": {"const": "1"}}]},
            {"type": "blocks", "blocks": [{"start": [], "end": "3", "amp": {"const": "1"}}]},
            {"type": "blocks", "blocks": [{"start": "1", "end": "3", "amp": {"const": 2}}]},
        ],
    )
    def test_malformed_doc_is_parameter_violation(self, doc):
        with pytest.raises(ParameterViolation):
            signal_from_json(doc)


class TestLayout:
    @given(values_st, st.integers(-20, 20))
    @settings(max_examples=40)
    def test_scaled_consistency(self, vals, lo):
        # engines and oracles both read a DenseSignal through to_blocks, so
        # its compiled blocks and their StepLayout are checked here against
        # the listed values themselves
        sig = DenseSignal(lo, vals)
        blocks = to_blocks(sig)
        lay = blocks.layout
        d = lay.dy
        assert type(lay.lo) is int and lay.lo == sig.lo and lay.dx == 1

        def listed(n):
            return sig.values[n - sig.lo] if sig.lo <= n <= sig.hi else 0

        span = range(sig.lo - 3, sig.hi + 4)
        # breakpoints: exactly the offsets where the listed value changes
        assert lay.xs == [n - sig.lo for n in span if listed(n - 1) != listed(n)]
        below = {}  # D times the listed mass left of n
        acc = 0
        for n in span:
            below[n] = acc * d
            acc += listed(n)
            held = lay.vals[bisect_right(lay.xs, n - lay.lo)]
            assert isinstance(held, int) and held == listed(n) * d, n
        below[span.stop] = acc * d
        assert lay.ys == [below[lay.lo + x] for x in lay.xs]
        assert lay.ys[-1] == sum(sig.values) * d
        for a in span:
            for b in range(a - 1, span.stop):
                assert window_sum_scaled(blocks, a, b) == below[b + 1] - below[a], (a, b)

    @pytest.mark.parametrize("off", [0, 2**10000])
    def test_block_layout_lo_is_an_int(self, off):
        # queries subtract lo from n: a Fraction lo would carry Fraction
        # arithmetic into every kink, about 20 times slower per query
        sig = BlockSignal(
            [Block(off - 3, off, Fraction(1, 3)), Block(off + 4, off + 9, Fraction(2))]
        )
        dense_sig = to_blocks(DenseSignal(off, [Fraction(1, 2), 0, 3]))
        for s in (sig, translate(sig, 5), signal_from_json(signal_to_json(sig)), dense_sig):
            assert type(s.layout.lo) is int and s.layout.lo == s.blocks[0].start
            assert all(type(x) is int for x in s.layout.xs)
