"""Event engines versus brute-force oracles, worked examples, invariances."""

import functools
import json
import random
import tracemalloc
from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlmax.config import DEFAULT_LIMITS, Limits
from hlmax.continuum import StepFunction, maximal_centered_cont
import hlmax.corpus
from hlmax.corpus import binary_signals, diff_signal, random_dense
from hlmax.errors import (
    BudgetExceeded,
    NonpositiveRadius,
    ParameterViolation,
    PowerLawRangeTooLarge,
)
import hlmax.maxengine
from hlmax.maxengine import (
    _ENUM_FALLBACK,
    _Best,
    _beats,
    _best,
    _bounds_sign,
    _cell_candidates,
    _centered_stretch_peaks,
    _delta_step_sign,
    _edge_hit,
    _first_beat,
    _h_sign,
    _sweep_tables,
    _u_peak,
    CenteredResult,
    average_centered,
    average_uncentered,
    cell_columns,
    event_centered,
    event_uncentered,
    frequency_pieces,
    oracle_centered,
    oracle_centered_range,
    oracle_uncentered,
    oracle_uncentered_range,
    profile,
    profile_sweep,
    search_bound_centered,
)
from hlmax.signal import (
    Block,
    BlockSignal,
    DenseSignal,
    PowerLaw,
    as_blocks,
    norm_l1,
    reflect,
    scale,
    support_bounds,
    to_blocks,
    translate,
    window_bounds,
    window_sum_scaled,
)
import hlmax.signal
import hlmax.values
from hlmax.values import Enclosure, Ordering, compare, exact_bounds, parse_int
from hlmax.constructions import build_theorem29_lp, dirac
from dense_form import to_dense


def dense(lo, vals):
    return DenseSignal(lo, [Fraction(v) for v in vals])


class TestAverages:
    def test_dirac_center(self):
        d = dirac()
        assert average_centered(d, 0, 0) == Fraction(1)
        assert average_centered(d, 0, 1) == Fraction(1, 3)
        assert average_centered(d, 5, 5) == Fraction(1, 11)

    def test_uncentered_window(self):
        s = dense(0, [1, 2, 3])
        assert average_uncentered(s, 1, 1, 1) == Fraction(2)
        assert average_uncentered(s, 0, 0, 2) == Fraction(2)

    def test_negative_radius_rejected(self):
        with pytest.raises(NonpositiveRadius):
            average_centered(dirac(), 0, -1)


class TestDirac:
    @pytest.mark.parametrize("n", [0, 1, -1, 7, -63, 1000])
    def test_centered(self, n):
        res = event_centered(dirac(), n)
        assert res.certified
        assert res.radius == abs(n)
        assert res.max_value == Fraction(1, 2 * abs(n) + 1)

    @pytest.mark.parametrize("n", [0, 2, -5, 999])
    def test_uncentered(self, n):
        res = event_uncentered(dirac(), n)
        assert res.certified
        assert res.min_diameter == abs(n)
        assert res.max_value == Fraction(1, abs(n) + 1)


class TestPlateauMinimality:
    def test_flat_block_center(self):
        s = dense(0, [1, 1, 1])
        res = event_centered(s, 1)
        assert (res.max_value, res.radius) == (Fraction(1), 0)
        ures = event_uncentered(s, 1)
        assert (ures.max_value, ures.min_diameter) == (Fraction(1), 0)

    def test_tie_prefers_smaller_radius(self):
        # A_0 = 1 and A_1 = 1 tie at the center; the minimal radius is 0
        s = dense(-1, [1, 1, 1])
        res = event_centered(s, 0)
        assert res.radius == 0

    def test_uncentered_tie_prefers_smaller_diameter(self):
        s = dense(0, [2, 0, 2])
        # windows [0,0] and [2,2] both average 2 from n=0; diameter 0 wins
        res = event_uncentered(s, 0)
        assert (res.max_value, res.min_diameter) == (Fraction(2), 0)


class TestEngineEqualsOracle:
    def test_random_corpus(self):
        rng = random.Random(20260818)
        for trial in range(45):
            sig = random_dense(
                rng, max_width=28, run_limited=trial % 3 != 2
            )
            assert diff_signal(sig) == []

    def test_binary_sample(self):
        for i, sig in enumerate(binary_signals(8)):
            if i % 7 == 0:  # subsample here; acceptance runs them all
                assert diff_signal(sig) == []

    def test_batch_matches_pointwise_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            sig = random_dense(rng, max_width=14)
            lo, hi = support_bounds(sig)
            w = hi - lo + 1
            batch = oracle_uncentered_range(sig, lo - w, hi + w)
            for n in range(lo - w, hi + w + 1):
                single = oracle_uncentered(sig, n)
                got = batch[n - (lo - w)]
                assert got.max_value == single.max_value
                assert got.min_diameter == single.min_diameter

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reused_dense_matches_fresh_blocks(self, seed):
        # a DenseSignal compiles to blocks once; every later engine call
        # reuses them and must answer as a freshly compiled equal signal
        rng = random.Random(seed)
        sig = random_dense(rng, max_width=16, run_limited=rng.random() < 0.8)
        compiled = to_blocks(sig)
        lo, hi = support_bounds(sig)
        w = hi - lo + 1
        for n in range(lo - w, hi + w + 1):
            fresh = to_blocks(DenseSignal(sig.lo, sig.values))
            assert event_centered(sig, n) == event_centered(fresh, n)
            assert event_uncentered(sig, n) == event_uncentered(fresh, n)
        assert to_blocks(sig) is compiled


class TestOracleBudget:
    def test_range_oracle_refuses_like_pointwise(self):
        sig = DenseSignal(0, [Fraction(1 + i % 3) for i in range(300)])
        tight = DEFAULT_LIMITS.with_(scan_radius_cap=1)
        with pytest.raises(BudgetExceeded):
            oracle_uncentered(sig, 150, tight)
        with pytest.raises(BudgetExceeded):
            oracle_uncentered_range(sig, -300, 599, tight)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_range_refuses_iff_some_point_refuses(self, seed, cap, data):
        rng = random.Random(seed)
        sig = random_dense(rng, max_width=12)
        lo, hi = support_bounds(sig)
        w = hi - lo + 1
        n_lo = data.draw(st.integers(lo - w, hi + w))
        n_hi = data.draw(st.integers(n_lo, hi + w))
        limits = DEFAULT_LIMITS.with_(scan_radius_cap=cap)
        singles = []
        for n in range(n_lo, n_hi + 1):
            try:
                singles.append(oracle_uncentered(sig, n, limits))
            except BudgetExceeded:
                singles = None
                break
        if singles is None:
            with pytest.raises(BudgetExceeded):
                oracle_uncentered_range(sig, n_lo, n_hi, limits)
        else:
            batch = oracle_uncentered_range(sig, n_lo, n_hi, limits)
            assert [(r.max_value, r.min_diameter) for r in batch] == [
                (r.max_value, r.min_diameter) for r in singles
            ]

    def test_range_over_the_support_refuses_at_its_middle(self):
        # 12 windows at each end of the support, 6 * 7 = 42 at n = 5: only
        # the middle point exceeds 16 * cap
        sig = dense(0, [1, 2] * 6)
        limits = DEFAULT_LIMITS.with_(scan_radius_cap=1)
        oracle_uncentered(sig, 0, limits), oracle_uncentered(sig, 11, limits)
        with pytest.raises(BudgetExceeded, match="uncentered oracle grid exceeds scan cap"):
            oracle_uncentered_range(sig, 0, 11, limits)
        with pytest.raises(BudgetExceeded, match="uncentered oracle grid exceeds scan cap"):
            diff_signal(sig, limits)


def public_oracle_differ(sig, limits=DEFAULT_LIMITS, max_report=8) -> list:
    """diff_signal as it was built from the public range oracles, comparing
    values with Fraction !=.  The engines are read off hlmax.corpus at each
    call, so a patched engine reaches this differ and diff_signal alike."""
    lo, hi = support_bounds(sig)
    width = hi - lo + 1
    n_lo, n_hi = lo - width, hi + width
    batch = oracle_uncentered_range(sig, n_lo, n_hi, limits)
    centered = oracle_centered_range(sig, n_lo, n_hi, limits)
    mismatches: list = []
    for n in range(n_lo, n_hi + 1):
        ev = hlmax.corpus.event_centered(sig, n, limits)
        oc = centered[n - n_lo]
        if not ev.certified or ev.max_value != oc.max_value or ev.radius != oc.radius:
            mismatches.append(
                f"centered n={n}: event ({ev.max_value}, r={ev.radius}, "
                f"certified={ev.certified}) vs oracle ({oc.max_value}, r={oc.radius})"
            )
        eu = hlmax.corpus.event_uncentered(sig, n, limits)
        ou = batch[n - n_lo]
        if (
            not eu.certified
            or eu.max_value != ou.max_value
            or eu.min_diameter != ou.min_diameter
        ):
            mismatches.append(
                f"uncentered n={n}: event ({eu.max_value}, d={eu.min_diameter}, "
                f"certified={eu.certified}) vs oracle ({ou.max_value}, d={ou.min_diameter})"
            )
        if len(mismatches) >= max_report:
            break
    return mismatches


def faulty(engine, fault: str):
    """engine with one injected fault: the radius (or diameter) one too
    large at n = 0 mod 5, the value one too large at n = 1 mod 7, or the
    result uncertified at n = 0 mod 4."""

    def run(sig, n, limits=DEFAULT_LIMITS):
        res = engine(sig, n, limits)
        key = "radius" if isinstance(res, CenteredResult) else "min_diameter"
        if fault == "radius" and n % 5 == 0:
            return replace(res, **{key: getattr(res, key) + 1})
        if fault == "value" and n % 7 == 1:
            return replace(res, max_value=res.max_value + 1)
        if fault == "certified" and n % 4 == 0:
            return replace(res, certified=False)
        return res

    return run


def differ_outcomes(sig, fault: str, limits=DEFAULT_LIMITS, max_report=8) -> tuple:
    """What diff_signal and public_oracle_differ each return or raise, with
    both engines carrying the fault."""
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hlmax.corpus, "event_centered", faulty(event_centered, fault))
        mp.setattr(hlmax.corpus, "event_uncentered", faulty(event_uncentered, fault))
        for differ in (diff_signal, public_oracle_differ):
            try:
                outcomes.append(differ(sig, limits, max_report))
            except BudgetExceeded as exc:
                outcomes.append((type(exc), str(exc)))
    return tuple(outcomes)


DIFFER_FAULTS = ["none", "radius", "value", "certified"]


class TestDifferReportsLikePublicOracles:
    """diff_signal, on integer oracle rows, against the differ built from
    the public range oracles: the same mismatch lists under injected engine
    faults, truncation included, and the same refusals."""

    @pytest.mark.parametrize("fault", DIFFER_FAULTS)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_random_dense(self, fault, seed, max_report):
        rng = random.Random(seed)
        sig = random_dense(rng, max_width=24, run_limited=rng.random() < 0.7)
        new, old = differ_outcomes(sig, fault, max_report=max_report)
        assert new == old
        assert new == [] or fault != "none"

    @pytest.mark.parametrize("fault", DIFFER_FAULTS)
    def test_binary_sample(self, fault):
        for i, sig in enumerate(binary_signals(8)):
            if i % 3 == 0:
                new, old = differ_outcomes(sig, fault)
                assert new == old

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_same_refusals_under_small_caps(self, seed, cap):
        rng = random.Random(seed)
        sig = random_dense(rng, max_width=24)
        limits = DEFAULT_LIMITS.with_(scan_radius_cap=cap)
        new, old = differ_outcomes(sig, "none", limits)
        assert new == old

    def test_a_value_that_is_no_fraction_is_a_mismatch(self):
        sig = dense(0, [1, 2])
        with pytest.MonkeyPatch.context() as mp:
            enclosed = lambda s, n, limits=DEFAULT_LIMITS: replace(
                event_centered(s, n, limits), max_value=Enclosure(0, 1)
            )
            mp.setattr(hlmax.corpus, "event_centered", enclosed)
            assert diff_signal(sig, max_report=100) == public_oracle_differ(sig, max_report=100)
            assert len(diff_signal(sig, max_report=100)) == 6


def equal_runs(amp: int, run: int, gap: int, count: int) -> list:
    """count runs of amp, run long, gap zeros apart: windows tie everywhere."""
    return ([amp] * run + [0] * gap) * (count - 1) + [amp] * run


tie_rich_st = st.one_of(
    st.lists(st.sampled_from([0, 1]), min_size=1, max_size=14).map(lambda vs: [1] + vs + [1]),
    st.builds(
        equal_runs, st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
    ),
    st.lists(st.sampled_from([0, 0, 1, 2]), max_size=14).map(lambda vs: [2] + vs + [1]),
)


def draw_range(case: str, lo: int, hi: int, data) -> tuple:
    """[n_lo, n_hi] for the range oracles: the full range within the
    support width (plus 3) either side, a sub-range strictly inside the
    support, a range wholly outside it, or a single point."""
    w = hi - lo + 1
    if case == "full":
        return lo - w - 3, hi + w + 3
    if case == "inner":
        assume(w >= 3)
        n_lo = data.draw(st.integers(lo + 1, hi - 1))
        return n_lo, data.draw(st.integers(n_lo, hi - 1))
    if case == "outside":
        a, b = (lo - w - 3, lo - 1) if data.draw(st.booleans()) else (hi + 1, hi + w + 3)
        n_lo = data.draw(st.integers(a, b))
        return n_lo, data.draw(st.integers(n_lo, b))
    n = data.draw(st.integers(lo - w - 3, hi + w + 3))
    return n, n


class TestRangeOracle:
    """oracle_uncentered_range against the per-point (rho, s) grid oracle."""

    @pytest.mark.parametrize("case", ["full", "inner", "outside", "single"])
    @given(tie_rich_st, st.integers(-6, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_pointwise_oracle(self, case, vals, lo, data):
        sig = dense(lo, vals)
        n_lo, n_hi = draw_range(case, *support_bounds(sig), data)
        batch = oracle_uncentered_range(sig, n_lo, n_hi)
        assert batch == [oracle_uncentered(sig, n) for n in range(n_lo, n_hi + 1)]

    def test_pinned_ties_keep_the_shortest_window(self):
        # 1, 0, 1: one step outside either end, the window reaching the near
        # 1 ties the one reaching both (1/2 = 2/4), and the shorter must win
        sig = dense(0, [1, 0, 1])
        batch = oracle_uncentered_range(sig, -3, 5)
        assert [(r.max_value, r.min_diameter) for r in batch] == [
            (Fraction(1, 3), 5), (Fraction(2, 5), 4), (Fraction(1, 2), 1),
            (Fraction(1), 0), (Fraction(2, 3), 2), (Fraction(1), 0),
            (Fraction(1, 2), 1), (Fraction(2, 5), 4), (Fraction(1, 3), 5),
        ]

    def test_wide_signal_at_seeded_points(self):
        # wider than any corpus signal; one point outside the support each side
        sig = DenseSignal(0, [Fraction(1 + i % 3) for i in range(600)])
        rng = random.Random(600)
        points = [rng.randint(-600, -1), rng.randint(600, 1199)]
        points += rng.sample(range(600), 3)
        batch = oracle_uncentered_range(sig, -600, 1199)
        for n in points:
            assert batch[n + 600] == oracle_uncentered(sig, n)


class TestOraclesKeepNothing:
    def test_no_prefix_table_outlives_the_call(self):
        # the oracles build their per-position table on each call, so the
        # signal keeps nothing of its 200001 positions
        sig = BlockSignal([Block(0, 0, Fraction(1)), Block(200000, 200000, Fraction(3))])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = oracle_centered(sig, 100000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (res.max_value, res.radius) == (Fraction(4, 200001), 100000)
        assert retained < 100_000


class TestCenteredOracle:
    @pytest.mark.parametrize("where", ["left_far", "start", "end_plus_one", "right_far"])
    @given(tie_rich_st, st.integers(-6, 6), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_equals_a_fraction_scan(self, where, vals, lo, far):
        # off = n - lo below -1, at 0, at the support width, beyond width + 1
        sig = dense(lo, vals)
        lo, hi = support_bounds(sig)
        w = hi - lo + 1
        n = {"left_far": lo - far, "start": lo, "end_plus_one": lo + w}.get(where, lo + w + far)
        best_v, best_r = max(
            (average_centered(sig, n, r), -r) for r in range(search_bound_centered(sig, n) + 1)
        )
        res = oracle_centered(sig, n)
        assert (res.max_value, res.radius, res.certified) == (best_v, -best_r, True)

    @pytest.mark.parametrize("case", ["full", "inner", "outside", "single"])
    @given(tie_rich_st, st.integers(-6, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_range_equals_fraction_scan(self, case, vals, lo, data):
        sig = dense(lo, vals)
        n_lo, n_hi = draw_range(case, *support_bounds(sig), data)
        want = []
        for n in range(n_lo, n_hi + 1):
            r_cap = search_bound_centered(sig, n)
            best_v, best_r = max((average_centered(sig, n, r), -r) for r in range(r_cap + 1))
            want.append((n, best_v, -best_r, True))
        got = oracle_centered_range(sig, n_lo, n_hi)
        assert [(r.n, r.max_value, r.radius, r.certified) for r in got] == want

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.data())
    @settings(max_examples=80, deadline=None)
    def test_range_refuses_iff_a_point_refuses(self, seed, cap, data):
        rng = random.Random(seed)
        sig = random_dense(rng, max_width=12)
        lo, hi = support_bounds(sig)
        w = hi - lo + 1
        n_lo = data.draw(st.integers(lo - w, hi + w))
        n_hi = data.draw(st.integers(n_lo, hi + w))
        limits = DEFAULT_LIMITS.with_(scan_radius_cap=cap)
        if any(search_bound_centered(sig, n) > cap for n in range(n_lo, n_hi + 1)):
            with pytest.raises(BudgetExceeded):
                oracle_centered_range(sig, n_lo, n_hi, limits)
        else:
            batch = oracle_centered_range(sig, n_lo, n_hi, limits)
            assert batch == [oracle_centered(sig, n, limits) for n in range(n_lo, n_hi + 1)]

    def test_power_law_range_is_the_pointwise_scan(self):
        sig = BlockSignal([Block(1, 40, PowerLaw(Fraction(3, 5))), Block(46, 50, Fraction(1, 4))])
        got = oracle_centered_range(sig, -3, 55)
        for res in got:
            averages = (
                (r, average_centered(sig, res.n, r))
                for r in range(search_bound_centered(sig, res.n) + 1)
            )
            best_v, best_r, gap = _best(averages)
            assert (res.max_value, res.radius, res.certified) == (best_v, best_r, gap is None)
            assert res.gap == gap


def quadratic_uncentered(sig: BlockSignal, n: int) -> tuple:
    """Every (left edge, right edge) pair of the uncentered candidate edges
    (block boundaries +-1, n, and the support ends), as the engine searched
    them before the hull route; window masses come from prefix masses at
    the edges.  Returns (max value, minimal maximizing diameter)."""
    lo, hi = support_bounds(sig)
    l_low, u_high = min(n, lo), max(n, hi)
    l_set, u_set = {n, l_low}, {n, u_high}
    for b in sig.boundaries():
        for d in (-1, 0, 1):
            if l_low <= b + d <= n:
                l_set.add(b + d)
            if n <= b + d <= u_high:
                u_set.add(b + d)
    left = {l: window_sum_scaled(sig, lo, l - 1) for l in l_set}
    right = {u: window_sum_scaled(sig, lo, u) for u in u_set}
    best_num, best_len, best_diam = -1, 1, 0
    for l in sorted(l_set):
        for u in sorted(u_set):
            num = right[u] - left[l]
            length = u - l + 1
            lhs = num * best_len
            rhs = best_num * length
            if lhs > rhs or (lhs == rhs and u - l < best_diam):
                best_num, best_len, best_diam = num, length, u - l
    return Fraction(best_num, sig.layout.dy * best_len), best_diam


def random_blocks(rng, count: int, offset: int, amps: list) -> BlockSignal:
    """count constant blocks; gaps of 0..3 and lengths of 1..6 make many
    candidate edges coincide, and few amplitudes make many windows tie."""
    blocks, pos = [], offset
    for _ in range(count):
        pos += rng.randint(0, 3)
        length = rng.randint(1, 6)
        blocks.append(Block(pos, pos + length - 1, rng.choice(amps)))
        pos += length
    return BlockSignal(blocks)


class TestHullAgainstPairSearch:
    """The hull route against the exhaustive pair search at B = 200, at
    offset 0 and at 2^10000, with amplitude sets rich and poor in ties."""

    @pytest.mark.parametrize("offset", [0, 2**10000], ids=["o0", "at2p10000"])
    @pytest.mark.parametrize(
        "amps",
        [
            [Fraction(1), Fraction(2)],
            [Fraction(p, q) for p in range(1, 9) for q in range(1, 9)],
        ],
        ids=["tie_rich", "tie_poor"],
    )
    def test_b200(self, offset, amps):
        rng = random.Random(200)
        sig = random_blocks(rng, 200, offset, amps)
        lo, hi = support_bounds(sig)
        points = [lo - 7, lo, hi, hi + 9]
        for blk in (sig.blocks[40], sig.blocks[100], sig.blocks[160]):
            points += [blk.start, rng.randint(blk.start, blk.end + 2)]
        for n in points:
            res = event_uncentered(sig, n)
            assert res.certified
            assert (res.max_value, res.min_diameter) == quadratic_uncentered(sig, n)


def monotone_blocks(offset: int, count: int, rising: bool) -> BlockSignal:
    """count touching blocks of lengths 1..4 with amplitudes rising
    (falling) 1, 2, ..., count: the prefix mass is convex (concave), so
    every block edge is a vertex of the prefix (suffix) hull."""
    blocks, pos = [], offset
    for k in range(count):
        amp = k + 1 if rising else count - k
        blocks.append(Block(pos, pos + k % 4, Fraction(amp)))
        pos += k % 4 + 1
    return BlockSignal(blocks)


class TestHullWorstCases:
    """The hull route against the exhaustive pair search where the hulls
    are longest and where many windows tie, at offset 0 and 2^10000."""

    @pytest.mark.parametrize("offset", [0, 2**10000], ids=["o0", "at2p10000"])
    def test_convex_b800(self, offset):
        # right of a rising layout (left of a falling one) the best window
        # reaches back to a tangent point deep in the 801-vertex hull
        for rising in (True, False):
            sig = monotone_blocks(offset, 800, rising)
            lo, hi = support_bounds(sig)
            for d in (1, 2, 9, 70, 1000, 30000, 0, -3, -40):
                n = hi + d if rising else lo - d
                res = event_uncentered(sig, n)
                assert res.certified
                assert (res.max_value, res.min_diameter) == quadratic_uncentered(sig, n)

    @pytest.mark.parametrize("offset", [0, 2**10000], ids=["o0", "at2p10000"])
    def test_collinear_ties(self, offset):
        # amplitude 1 on [5k, 5k + 2]: the block starts lie on one line, so
        # from n = hi + 2 every window from a block start to n averages 3/5
        # and the innermost, [hi - 2, n], is the one reported; every point
        # around the support against the pair search
        sig = BlockSignal([Block(offset + 5 * k, offset + 5 * k + 2, Fraction(1)) for k in range(12)])
        lo, hi = support_bounds(sig)
        for n in (hi + 2, lo - 2):
            res = event_uncentered(sig, n)
            assert (res.max_value, res.min_diameter) == (Fraction(3, 5), 4)
        for n in range(lo - 11, hi + 12):
            res = event_uncentered(sig, n)
            assert (res.max_value, res.min_diameter) == quadratic_uncentered(sig, n)


@pytest.fixture(scope="module")
def long_pl_signal():
    return BlockSignal(
        [Block(1, 2600, PowerLaw(Fraction(3, 5))), Block(3000, 3200, Fraction(1, 50))]
    )


class TestPowerLawEngine:
    """Long power-law blocks force the interior peak searches (stretches
    longer than the enumeration threshold) rather than brute enumeration."""

    @pytest.mark.parametrize("n", [0, 1, 700, 2600, 2750, 2999, 3100, 3600, -40])
    def test_centered_matches_oracle(self, long_pl_signal, n):
        sig = long_pl_signal
        ev = event_centered(sig, n)
        oc = oracle_centered(sig, n)
        assert ev.certified and oc.certified
        assert ev.radius == oc.radius
        assert compare(ev.max_value, oc.max_value) in (
            Ordering.EQUAL,
            Ordering.INDETERMINATE,
        )

    @pytest.mark.parametrize("n", [0, 1, 60, 155, 230, 320])
    def test_uncentered_matches_oracle(self, n):
        # shorter power-law block: the uncentered oracle grid is quadratic,
        # but 150 still exceeds the stretch-enumeration threshold, so the
        # engine's interior peak search is exercised
        sig = BlockSignal(
            [Block(1, 150, PowerLaw(Fraction(3, 5))), Block(200, 260, Fraction(1, 40))]
        )
        ev = event_uncentered(sig, n)
        ou = oracle_uncentered(sig, n)
        assert ev.certified and ou.certified
        assert ev.min_diameter == ou.min_diameter
        assert compare(ev.max_value, ou.max_value) in (
            Ordering.EQUAL,
            Ordering.INDETERMINATE,
        )


class _NoMpmath:
    def __getattr__(self, name):
        raise AssertionError(f"mpmath.{name} reached from a power-law engine")


class TestPowerLawHotPath:
    def test_engines_and_oracle_run_without_mpmath(self, monkeypatch):
        # power terms, window sums, averages, peak searches and comparisons
        # all run in integer arithmetic; mpmath is left to ln, pow and printing
        monkeypatch.setattr(hlmax.values, "mpmath", _NoMpmath())
        sig = BlockSignal(
            [Block(1, 150, PowerLaw(Fraction(3, 5))), Block(200, 260, Fraction(1, 40))]
        )
        for n in (1, 155, 230):
            ev = event_centered(sig, n)
            oc = oracle_centered(sig, n)
            assert ev.certified and oc.certified and ev.radius == oc.radius
            assert event_uncentered(sig, n).certified


PL_ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 5))


@st.composite
def pl_mixed_signals(draw, max_length=160, gaps=(0, 0, 1, 7, 30, 300)):
    """One to three blocks, at least one of them power-law, the others
    power-law or constant, with or without gaps between them."""
    count = draw(st.integers(1, 3))
    pl_at = draw(st.integers(0, count - 1))
    pos = draw(st.integers(1, 20))
    blocks = []
    for i in range(count):
        length = draw(st.integers(1, max_length))
        if i == pl_at or draw(st.booleans()):
            amp = PowerLaw(draw(st.sampled_from(PL_ALPHAS)))
        else:
            amp = draw(st.fractions(Fraction(1, 40), Fraction(2), max_denominator=40))
        blocks.append(Block(pos, pos + length - 1, amp))
        pos += length + draw(st.sampled_from(gaps))
    return BlockSignal(blocks)


def captured_signs(call) -> list:
    """The windows a peak-search sign test hands to _decided_sign while
    call() runs, each answered 0."""
    seen = []

    def record(sig, limits, windows):
        seen.append(windows)
        return 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hlmax.maxengine, "_decided_sign", record)
        call()
    return seen


def sign_at(sig, windows, prec: int):
    """_bounds_sign of sum c * (sum of f over [a, b]) for windows (c, a, b),
    on window_bounds at prec bits."""
    lim = Limits(precision=prec)
    return _bounds_sign([(c, window_bounds(sig, a, b, lim)) for c, a, b in windows])


class TestBoundsSign:
    """Every sign _bounds_sign decides is the true one: the sign it reads
    off window_bounds at 1024 bits, and, where compare() of the two
    averages' enclosures decides a window comparison, compare's sign."""

    @given(pl_mixed_signals(), st.sampled_from([6, 8, 12, 16, 24, 53, 256]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_window_comparisons(self, sig, prec, data):
        lim = Limits(precision=prec)
        lo, hi = support_bounds(sig)
        a = data.draw(st.integers(lo - 5, hi + 5))
        b = data.draw(st.one_of(st.integers(a, a + 3), st.integers(a, hi + 10)))
        if data.draw(st.booleans()):  # a neighbouring window: near ties
            c = a + data.draw(st.integers(-2, 2))
            d = max(c, b + data.draw(st.integers(-2, 2)))
        else:
            c = data.draw(st.integers(lo - 5, hi + 5))
            d = data.draw(st.integers(c, hi + 10))
        windows = ((d - c + 1, a, b), (a - b - 1, c, d))
        s = sign_at(sig, windows, prec)

        def average(x, y):
            if (y - x) % 2:
                return average_uncentered(sig, x, 0, y - x, lim)
            return average_centered(sig, (x + y) // 2, (y - x) // 2, lim)

        order = compare(average(a, b), average(c, d))
        if order is not Ordering.INDETERMINATE:
            assert s == order.value
        if s is not None:
            assert sign_at(sig, windows, 1024) == s

    @given(pl_mixed_signals(), st.sampled_from([6, 8, 12, 16, 24, 53, 256]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_peak_sign_tests(self, sig, prec, data):
        lim = Limits(precision=prec)
        lo, hi = support_bounds(sig)
        n = data.draw(st.integers(lo - 3, hi + 3))
        r = data.draw(st.integers(0, hi - lo + 4))
        l = data.draw(st.integers(lo - 3, hi + 3))
        u = data.draw(st.integers(l, hi + 3))
        calls = captured_signs(lambda: _delta_step_sign(sig, n, r, lim, []))
        calls += captured_signs(lambda: _h_sign(sig, n, r, lim, []))
        calls += captured_signs(lambda: _u_peak(_Best(sig, lim, None), l, u, u + 2))
        assert len(calls) == 3
        for windows in calls:
            s = sign_at(sig, windows, prec)
            if s is not None:
                assert sign_at(sig, windows, 1024) == s

    def test_exact_only_without_power_law(self):
        sig = BlockSignal([Block(1, 80, PowerLaw(Fraction(1, 2))), Block(90, 99, Fraction(1, 5))])
        # two equal constant windows tie exactly, and so does [4, 4], a
        # power-law part whose bounds are exact (4^(-1/2) = 1/2), with f = 1/2
        terms = ((1, window_bounds(sig, 90, 91)), (-1, window_bounds(sig, 92, 93)))
        assert _bounds_sign(terms) == 0
        half = BlockSignal([Block(1, 80, PowerLaw(Fraction(1, 2))), Block(90, 99, Fraction(1, 2))])
        terms = ((1, window_bounds(half, 4, 4)), (-1, window_bounds(half, 95, 95)))
        assert _bounds_sign(terms) == 0
        # an inexact power-law part leaves its tie with itself open
        terms = ((1, window_bounds(half, 3, 3)), (-1, window_bounds(half, 3, 3)))
        assert _bounds_sign(terms) is None
        # a power-law block with no table is bounded term by term, to the
        # integers of the table, so its signs are decided as on the table
        lim = Limits(prefix_cache_cap=79)
        terms = ((1, window_bounds(sig, 3, 3, lim)), (-1, window_bounds(sig, 90, 90, lim)))
        assert terms == ((1, window_bounds(sig, 3, 3)), (-1, window_bounds(sig, 90, 90)))
        assert _bounds_sign(terms) == 1
        assert compare(average_centered(sig, 3, 0, lim), average_centered(sig, 90, 0, lim)).value == 1


def mixed_pl_signals(seed: int, count: int) -> list:
    """Power-law and mixed block signals, blocks long enough for the peak
    searches (stretches past _ENUM_STRETCH) and short ones."""
    rng = random.Random(seed)
    sigs = []
    for _ in range(count):
        blocks, pos = [], rng.randint(1, 30)
        for i in range(rng.randint(1, 3)):
            length = rng.choice([rng.randint(1, 20), rng.randint(70, 220)])
            if i == 0 or rng.random() < 0.5:
                amp = PowerLaw(rng.choice(PL_ALPHAS))
            else:
                amp = Fraction(rng.randint(1, 9), rng.randint(1, 60))
            blocks.append(Block(pos, pos + length - 1, amp))
            pos += length + rng.choice([0, 0, rng.randint(1, 40)])
        sigs.append(BlockSignal(blocks))
    return sigs


def result_key(res) -> tuple:
    v = res.max_value
    value = (v.dlo, v.dhi) if isinstance(v, Enclosure) else v
    size = res.radius if hasattr(res, "radius") else res.min_diameter
    return res.n, value, size, res.certified, res.gap


LP_WORKLOAD = ((3, "1/2", 100, 10), (2, "3/5", 40, 16), (2, "2/3", 150, 8), (2, "3/4", 60, 13))


class TestPowerLawQueriesOnBounds:
    @pytest.mark.parametrize("spec", LP_WORKLOAD)
    def test_one_window_sum_and_no_power_term_per_query(self, spec, monkeypatch):
        p, alpha, n1, g = spec
        sig, cert = build_theorem29_lp(
            Fraction(p), Fraction(alpha), 3, "relaxed", n1=n1, growth_factor=g
        )
        nks = [parse_int(s) for s in cert.extras["n_k"]]
        inside = [n + l // 2 for n, l in zip(cert.N, cert.L)]
        right = [nk + l // 2 for nk, l in zip(nks, cert.L)]
        queries = [(event_centered, n) for n in nks + inside + right]
        queries += [(event_uncentered, n) for n in inside + right]
        for engine, n in queries:  # builds the prefix tables
            engine(sig, n)
        calls = {"window_sum": 0, "power_term": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            monkeypatch.setattr(module, name, wrapper)

        counted(hlmax.maxengine, "window_sum")
        counted(hlmax.signal, "power_term")
        for engine, n in queries:
            calls.update(window_sum=0, power_term=0)
            res = engine(sig, n)
            assert calls["window_sum"] == 1 and calls["power_term"] == 0, (engine, n, calls)
            assert res.certified
        for nk, l in zip(nks, cert.L):
            assert event_centered(sig, nk).radius == l

    def test_paper_exact_anchors_still_refused(self):
        sig, cert = build_theorem29_lp(Fraction(2), Fraction(3, 5), 2, "paper_exact")
        for nk in cert.extras["n_k"]:
            with pytest.raises(PowerLawRangeTooLarge):
                event_centered(sig, parse_int(nk))


PL_GOLDEN = Path(__file__).parent / "pl_results_golden.json"
GOLDEN_PRECS = {"mixed": (6, 8, 12, 16, 24, 53, 256), "lp": (5, 6, 7, 8, 9, 10, 11, 12, 256)}


@functools.lru_cache(maxsize=None)
def golden_queries(kind: str) -> tuple:
    """(engine, signal, n) of the frozen power-law results: four points
    each on 20 mixed_pl_signals, or the anchors n_k and the points inside
    and right of each block of the four LP_WORKLOAD instances."""
    queries = []
    if kind == "mixed":
        rng = random.Random(27)
        for sig in mixed_pl_signals(27, 20):
            lo, hi = support_bounds(sig)
            for n in [rng.randint(lo - 10, hi + 10) for _ in range(4)]:
                queries += [(event_centered, sig, n), (event_uncentered, sig, n)]
        return tuple(queries)
    for p, alpha, n1, g in LP_WORKLOAD:
        sig, cert = build_theorem29_lp(
            Fraction(p), Fraction(alpha), 3, "relaxed", n1=n1, growth_factor=g
        )
        nks = [parse_int(s) for s in cert.extras["n_k"]]
        inside = [n + l // 2 for n, l in zip(cert.N, cert.L)]
        right = [nk + l // 2 for nk, l in zip(nks, cert.L)]
        queries += [(event_centered, sig, n) for n in nks + inside + right]
        queries += [(event_uncentered, sig, n) for n in inside + right]
    return tuple(queries)


def golden_records(kind: str, prec: int, **limits) -> list:
    """result_key of every golden query at prec bits, as JSON values."""
    lim = Limits(precision=prec, **limits)
    out = []
    for engine, sig, n in golden_queries(kind):
        n, v, size, certified, gap = result_key(engine(sig, n, lim))
        value = [list(v[0]), list(v[1])] if isinstance(v, tuple) else str(v)
        out.append([n, value, size, certified, None if gap is None else str(gap)])
    return out


def record_range(rec) -> tuple:
    """(lo, hi + gap) for a golden record whose max_value is [lo, hi]: the
    true maximum lies in it (gap is 0 for a certified result)."""
    v = rec[1]
    if isinstance(v, str):
        lo = hi = Fraction(v)
    else:
        lo, hi = (Fraction(m) * Fraction(2) ** e for m, e in v)
    return lo, hi + Fraction(rec[4] or 0)


class TestPowerLawResultsFrozen:
    """The power-law engines' results against those of commit d3efa85,
    whose engines also decided on the averages' enclosures where the
    integer bounds, widened by a rounding margin, left a comparison open
    (pl_results_golden.json, written by `python tests/test_maxengine.py`
    run against that commit's src/).  At 24 bits and up every result is
    unchanged.  Below, every result certified then is unchanged, some
    uncertified then are certified now, with the radius or diameter found
    at 256 bits, and the range [lo, hi + gap] of every result holds the
    maximum found at 256 bits."""

    @pytest.mark.parametrize(
        "kind, prec", [(kind, prec) for kind, precs in GOLDEN_PRECS.items() for prec in precs]
    )
    def test_results_frozen(self, kind, prec):
        golden = json.loads(PL_GOLDEN.read_text())[kind]
        got, frozen, top = golden_records(kind, prec), golden[str(prec)], golden["256"]
        assert len(got) == len(frozen) == len(top)
        if prec >= 24:
            assert got == frozen
        for new, old, ref in zip(got, frozen, top):
            if old[3]:
                assert new == old
            (lo, hi), (ref_lo, ref_hi) = record_range(new), record_range(ref)
            assert lo <= ref_hi and ref_lo <= hi, (new, ref)
            if new[3]:
                assert new[2] == ref[2], (new, ref)
        if prec < 24:
            assert any(new[3] and not old[3] for new, old in zip(got, frozen))
        # every power-law block summed term by term: no table, same bounds
        if kind == "mixed":
            assert golden_records(kind, prec, prefix_cache_cap=0) == got


class TestPowerLawPruningKeepsAnswers:
    """The power-law engines drop candidates by _Best.cannot_win; with it
    never firing they try every candidate, as before it existed."""

    @staticmethod
    def unpruned(monkeypatch):
        monkeypatch.setattr(hlmax.maxengine._Best, "cannot_win", lambda *args: False)

    @pytest.mark.parametrize("prec", [6, 16, 24, 256])
    def test_results_identical_without_pruning(self, prec, monkeypatch):
        rng = random.Random(prec + 1)
        queries = []
        for sig in mixed_pl_signals(prec + 1, 10):
            lo, hi = support_bounds(sig)
            queries += [(sig, rng.randint(lo - 10, hi + 10)) for _ in range(4)]
        lim = Limits(precision=prec)

        def keys(limits):
            return [
                result_key(engine(sig, n, limits))
                for sig, n in queries
                for engine in (event_centered, event_uncentered)
            ]

        def run():  # on the tables, and term by term without them
            return keys(lim) + keys(lim.with_(prefix_cache_cap=0))

        pruned = run()
        self.unpruned(monkeypatch)
        assert run() == pruned
        if prec == 16:  # the uncertified flags and gaps are compared too
            assert any(not key[3] for key in pruned)

    @pytest.mark.parametrize("spec", LP_WORKLOAD)
    def test_fewer_peak_signs_at_the_anchors(self, spec, monkeypatch):
        p, alpha, n1, g = spec
        sig, cert = build_theorem29_lp(
            Fraction(p), Fraction(alpha), 3, "relaxed", n1=n1, growth_factor=g
        )
        nks = [parse_int(s) for s in cert.extras["n_k"]]
        for n in nks:  # builds the prefix tables
            event_centered(sig, n)
        calls = []
        h_sign = hlmax.maxengine._h_sign
        monkeypatch.setattr(
            hlmax.maxengine, "_h_sign", lambda *args: calls.append(1) or h_sign(*args)
        )

        def count():
            calls.clear()
            radii = [event_centered(sig, n).radius for n in nks]
            return len(calls), radii

        pruned, radii = count()
        self.unpruned(monkeypatch)
        full, full_radii = count()
        assert radii == full_radii == cert.L
        assert pruned < full


class TestRefusedUpFront:
    """A power-law block longer than powerlaw_sum_cap refuses every query of
    both power-law engines before any window is read, naming the past-cap
    block nearest to the query point."""

    # past a cap of 20: [25, 54] (30 terms) and [70, 104] (35 terms)
    SIG = BlockSignal(
        [
            Block(1, 12, PowerLaw(Fraction(1, 2))),
            Block(16, 20, Fraction(1, 3)),
            Block(25, 54, PowerLaw(Fraction(3, 5))),
            Block(60, 64, PowerLaw(Fraction(2, 3))),
            Block(70, 104, PowerLaw(Fraction(2, 3))),
        ]
    )
    # (n, length of the nearest past-cap block): inside the support, inside
    # a past-cap block, between blocks on either side of the midpoint 62,
    # and 2^10000 away on both sides
    POINTS = ((5, 30), (40, 30), (57, 30), (62, 30), (63, 35), (90, 35), (110, 35),
              (-(2**10000), 30), (2**10000, 35))

    def test_refused_before_any_window(self, monkeypatch):
        calls = []
        for name in ("window_sum", "window_bounds"):
            fn = getattr(hlmax.maxengine, name)
            monkeypatch.setattr(
                hlmax.maxengine, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
            )
        lim = Limits(powerlaw_sum_cap=20)
        for n, length in self.POINTS:
            for engine in (event_centered, event_uncentered):
                with pytest.raises(
                    PowerLawRangeTooLarge,
                    match=f"^power-law intersection of length {length} exceeds cap 20$",
                ):
                    engine(self.SIG, n, lim)
        assert calls == []

    def test_answers_at_the_cap(self):
        lim = Limits(powerlaw_sum_cap=35)
        for n, _ in self.POINTS[:7]:
            ev, oc = event_centered(self.SIG, n, lim), oracle_centered(self.SIG, n, lim)
            assert ev.certified and oc.certified and ev.radius == oc.radius
            assert compare(ev.max_value, oc.max_value) in (Ordering.EQUAL, Ordering.INDETERMINATE)
            ev, ou = event_uncentered(self.SIG, n, lim), oracle_uncentered(self.SIG, n, lim)
            assert ev.certified and ou.certified and ev.min_diameter == ou.min_diameter
            assert compare(ev.max_value, ou.max_value) in (Ordering.EQUAL, Ordering.INDETERMINATE)

    def test_paper_anchors_name_their_own_block(self):
        # anchor n_k sits right of block k, the nearest past-cap block
        sig, cert = build_theorem29_lp(Fraction(2), Fraction(3, 5), 2, "paper_exact")
        for nk, blk in zip(cert.extras["n_k"], sig.blocks):
            with pytest.raises(PowerLawRangeTooLarge, match=f"length {blk.length} exceeds"):
                event_centered(sig, parse_int(nk))


class TestPowerLawEnginesAgainstOracles:
    """Both power-law engines against the brute-force oracles on random
    power-law and mixed signals, blocks long enough for the peak searches;
    the uncentered oracle's quadratic grid keeps its points near an end."""

    @given(pl_mixed_signals(gaps=(0, 0, 1, 7)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_centered(self, sig, data):
        lo, hi = support_bounds(sig)
        n = data.draw(st.integers(lo - 3, hi + 3))
        ev, oc = event_centered(sig, n), oracle_centered(sig, n)
        assert ev.certified and oc.certified
        assert ev.radius == oc.radius
        assert compare(ev.max_value, oc.max_value) in (Ordering.EQUAL, Ordering.INDETERMINATE)

    @given(pl_mixed_signals(gaps=(0, 0, 1, 7)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_uncentered(self, sig, data):
        lo, hi = support_bounds(sig)
        k = data.draw(st.integers(-3, 6))
        n = data.draw(st.sampled_from([lo + k, hi - k]))
        ev, ou = event_uncentered(sig, n), oracle_uncentered(sig, n)
        assert ev.certified and ou.certified
        assert ev.min_diameter == ou.min_diameter
        assert compare(ev.max_value, ou.max_value) in (Ordering.EQUAL, Ordering.INDETERMINATE)


@functools.lru_cache(maxsize=None)
def lp_instance(spec: tuple) -> tuple:
    """(signal, certificate) of an LP_WORKLOAD instance, built once."""
    p, alpha, n1, g = spec
    return build_theorem29_lp(Fraction(p), Fraction(alpha), 3, "relaxed", n1=n1, growth_factor=g)


def value_range(res) -> tuple:
    """(lo, hi + gap), [lo, hi] the bounds of max_value: the range that
    holds the true maximum (gap None for a certified result)."""
    lo, hi = exact_bounds(res.max_value)
    return lo, hi + (res.gap or 0)


class TestGapBoundsTheMaximum:
    """Every engine and oracle result is certified exactly when its gap is
    None, and its range [lo, hi + gap] meets that of the engine's result
    at 256 bits, as both hold the true maximum: an undecided comparison or
    peak search raises gap to a bound on every candidate it left open."""

    @staticmethod
    def check(sig, n: int, m: int, prec: int) -> None:
        """The centered results at n and the uncentered ones at m."""
        lim = Limits(precision=prec)
        pairs = (((event_centered, oracle_centered), n), ((event_uncentered, oracle_uncentered), m))
        for engines, point in pairs:
            ref_lo, ref_hi = value_range(engines[0](sig, point))
            for engine in engines:
                res = engine(sig, point, lim)
                assert res.certified == (res.gap is None), res
                lo, hi = value_range(res)
                assert lo <= ref_hi and ref_lo <= hi, (engine.__name__, prec, res)

    @given(pl_mixed_signals(gaps=(0, 0, 1, 7)), st.integers(5, 16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_signals(self, sig, prec, data):
        lo, hi = support_bounds(sig)
        k = data.draw(st.integers(-3, 6))  # the uncentered oracle's grid stays near an end
        self.check(sig, data.draw(st.integers(lo - 3, hi + 3)), data.draw(st.sampled_from([lo + k, hi - k])), prec)

    @given(st.sampled_from(LP_WORKLOAD), st.integers(5, 12), st.data())
    @settings(max_examples=8, deadline=None)
    def test_lp_workload(self, spec, prec, data):
        sig, cert = lp_instance(spec)
        lo, hi = support_bounds(sig)
        anchors = [parse_int(s) for s in cert.extras["n_k"]]
        n = data.draw(st.one_of(st.sampled_from(anchors), st.integers(lo, hi)))
        k = data.draw(st.integers(0, 3))
        self.check(sig, n, data.draw(st.sampled_from([lo + k, hi - k])), prec)

    def test_open_peak_searches_bound_their_stretch(self, monkeypatch):
        # every sign left open: each search records the bound cannot_win
        # tests on its stretch, mass of the end window over the shortest length
        sig = BlockSignal([Block(1, 30000, PowerLaw(Fraction(1, 2)))])
        lim = Limits(precision=16)
        monkeypatch.setattr(hlmax.maxengine, "_decided_sign", lambda *args: None)

        def bound(a, b, length):
            _, hi, shift, den = window_bounds(sig, a, b, lim)
            return Fraction(hi, (den << shift) * length)

        best = _Best(sig, lim, None)
        _u_peak(best, 5, 100, 300)
        assert best.top == bound(5, 299, 97)
        n, r1 = 15000, 7
        r2 = r1 + _ENUM_FALLBACK + 1
        best = _Best(sig, lim, None)
        assert _centered_stretch_peaks(best, n, r1, r2 - 1) == range(r1 + 1, r2 - 1)
        assert best.top is None  # a short stretch is enumerated instead
        _centered_stretch_peaks(best, n, r1, r2)
        assert best.top == bound(n - r2 + 1, n + r2 - 1, 2 * r1 + 3)

    def test_exact_best_leaves_no_zero_gap(self):
        # f(32) = 32^(-3/5) = 1/8 exactly, so the overlap of radius 2's
        # enclosure with it was 0 and gap read 0, though the maximum,
        # 0.1251175, lies at radius 2; the open offer now bounds it
        sig = BlockSignal([Block(30, 45, PowerLaw(Fraction(3, 5)))])
        ref = event_centered(sig, 32)
        assert ref.certified and ref.radius == 2
        res = event_centered(sig, 32, Limits(precision=6))
        assert (res.radius, exact_bounds(res.max_value), res.certified) == (
            0, (Fraction(1, 8), Fraction(1, 8)), False
        )
        assert res.gap == Fraction(3, 5120)
        assert Fraction(1, 8) + res.gap >= exact_bounds(ref.max_value)[1]


values_st = st.lists(
    st.fractions(min_value=Fraction(0), max_value=Fraction(3), max_denominator=8),
    min_size=1,
    max_size=16,
).filter(lambda vs: any(vs))


class TestInvariances:
    @given(values_st, st.integers(-10, 10), st.integers(-8, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_translation_covariance(self, vals, lo, t, data):
        sig = DenseSignal(lo, vals)
        n = data.draw(st.integers(lo - 4, lo + len(vals) + 4))
        moved = translate(sig, t)
        a, b = event_centered(sig, n), event_centered(moved, n + t)
        assert (a.max_value, a.radius) == (b.max_value, b.radius)
        ua, ub = event_uncentered(sig, n), event_uncentered(moved, n + t)
        assert (ua.max_value, ua.min_diameter) == (ub.max_value, ub.min_diameter)

    @given(values_st, st.integers(-10, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_reflection_covariance(self, vals, lo, data):
        sig = DenseSignal(lo, vals)
        n = data.draw(st.integers(lo - 4, lo + len(vals) + 4))
        mirrored = reflect(sig)
        a, b = event_centered(sig, n), event_centered(mirrored, -n)
        assert (a.max_value, a.radius) == (b.max_value, b.radius)
        ua, ub = event_uncentered(sig, n), event_uncentered(mirrored, -n)
        assert (ua.max_value, ua.min_diameter) == (ub.max_value, ub.min_diameter)

    @given(values_st, st.integers(-10, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_scaling_invariance_of_argmax(self, vals, lo, data):
        sig = DenseSignal(lo, vals)
        n = data.draw(st.integers(lo - 4, lo + len(vals) + 4))
        c = Fraction(5, 7)
        scaled_sig = scale(sig, c)
        a, b = event_centered(sig, n), event_centered(scaled_sig, n)
        assert b.max_value == c * a.max_value
        assert b.radius == a.radius

    @given(values_st, st.integers(-10, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_uncentered_dominates_centered(self, vals, lo, data):
        sig = DenseSignal(lo, vals)
        n = data.draw(st.integers(lo - 4, lo + len(vals) + 4))
        c = event_centered(sig, n)
        u = event_uncentered(sig, n)
        assert u.max_value >= c.max_value
        # the diameter bound holds whenever the two maxima agree (the
        # minimal centered ball then competes among uncentered windows);
        # with a strictly larger uncentered max it can fail -- see
        # test_diameter_bound_fails_when_uncentered_max_is_strictly_larger
        if u.max_value == c.max_value:
            assert u.min_diameter <= 2 * c.radius

    def test_diameter_bound_fails_when_uncentered_max_is_strictly_larger(self):
        # f(0) = 1, f(1) = 2: centered at n = 0, A_0 = 1 = A_1 ties, so
        # Mf(0) = 1 with minimal radius 0; the window [0, 1] averages 3/2,
        # so the only uncentered maximizer has diameter 1 > 2 * 0.
        sig = dense(0, [1, 2])
        c = event_centered(sig, 0)
        u = event_uncentered(sig, 0)
        assert (c.max_value, c.radius) == (Fraction(1), 0)
        assert (u.max_value, u.min_diameter) == (Fraction(3, 2), 1)
        assert u.min_diameter > 2 * c.radius  # the unconditional form is false

    @given(values_st, st.integers(-10, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_from_full_window(self, vals, lo, data):
        # the window spanning the whole support is always a competitor
        sig = DenseSignal(lo, vals)
        n = data.draw(st.integers(lo - 6, lo + len(vals) + 6))
        res = event_centered(sig, n)
        big_r = search_bound_centered(sig, n)
        assert res.max_value >= norm_l1(sig) / (2 * big_r + 1)


class TestProfile:
    def test_profile_matches_single_calls(self):
        sig = dense(0, [1, 0, 2, 5])
        pts = [-2, 0, 3, 9]
        rows = profile(sig, pts)
        for n, row in zip(pts, rows):
            single = event_centered(sig, n)
            assert (row.n, row.max_value, row.radius) == (n, single.max_value, single.radius)

    def test_profile_uncentered(self):
        sig = dense(0, [1, 0, 2])
        rows = profile(sig, [1], uncentered=True)
        assert rows[0].min_diameter == event_uncentered(sig, 1).min_diameter


    def test_range_sweep_matches_single_calls(self):
        sig = BlockSignal([Block(3, 5, Fraction(1)), Block(9, 9, Fraction(4, 3))])
        pts = range(-12, 25)
        rows = profile(sig, pts)
        assert [r.n for r in rows] == list(pts)
        for row in rows:
            assert row == event_centered(sig, row.n)

    def test_range_cap_counts_without_materializing(self):
        with pytest.raises(BudgetExceeded):
            profile(dirac(), range(0, 10**30))
        with pytest.raises(BudgetExceeded):
            profile_sweep(dirac(), range(0, 10**30))

    def test_sweep_rows_are_lowest_terms(self):
        sig = BlockSignal([Block(3, 5, Fraction(1)), Block(9, 9, Fraction(4, 3))])
        rows = sweep_rows(profile_sweep(sig, range(-12, 25)))
        assert [n for n, *_ in rows] == list(range(-12, 25))
        for n, num, den, r in rows:
            single = event_centered(sig, n)
            value = single.max_value
            assert (num, den, r) == (value.numerator, value.denominator, single.radius)

    def test_sweep_declines_point_lists_and_power_law(self):
        assert profile_sweep(dirac(), [0, 1]) is None
        pl = BlockSignal([Block(1, 10, PowerLaw(Fraction(1, 2)))])
        assert profile_sweep(pl, range(3)) is None
        assert list(profile_sweep(dirac(), range(4, 4))) == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 300), st.integers(1, 9), st.integers(1, 4)),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([0, 2**10000, -(2**10000), 2**20000, -(2**20000)]),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_cells_expand_to_engine_and_oracle_rows(self, spec, offset, data):
        # long blocks give multi-row cells, and slope +-1 cells end where
        # their moving edge steps two values, onto or across a breakpoint
        sig = blocks_from(spec)
        lo, hi = support_bounds(sig)
        width = hi - lo + 1
        a = data.draw(st.integers(lo - width, lo + width // 2))
        b = data.draw(st.integers(max(a, hi - width // 2), hi + width))
        far = translate(sig, offset)
        cells = list(profile_sweep(far, range(a + offset, b + offset + 1)))
        assert [c[0] for c in cells] == [a + offset] + [c[1] + 1 for c in cells[:-1]]
        assert cells[-1][1] == b + offset
        rows = sweep_rows(cells)
        want = [
            (res.n + offset, res.max_value.numerator, res.max_value.denominator, res.radius)
            for res in oracle_centered_range(sig, a, b)
        ]
        assert rows == want
        for n, num, den, r in rows:
            res = event_centered(far, n)
            assert (num, den, r) == (res.max_value.numerator, res.max_value.denominator, res.radius)


def expand(pieces: list) -> dict:
    return {n: s * n + c for a, b, s, c in pieces for n in range(a, b + 1)}


constant_blocks_st = st.lists(
    st.tuples(st.integers(0, 8), st.integers(1, 8), st.integers(1, 9), st.integers(1, 4)),
    min_size=1,
    max_size=12,
)


def sweep_rows(cells) -> list:
    """(n, num, den, r) per point of profile_sweep's cells."""
    return [
        row for cell in cells for row in zip(range(cell[0], cell[1] + 1), *cell_columns(cell))
    ]


def blocks_from(spec: list) -> BlockSignal:
    """Blocks after the spec's gaps (adjacent blocks of one amplitude merge)."""
    blocks, pos = [], 0
    for gap, length, num, den in spec:
        pos += gap
        blocks.append(Block(pos, pos + length - 1, Fraction(num, den)))
        pos += length
    return BlockSignal(blocks)


def greedy_runs(radii: dict) -> list:
    """The runs (n_a, n_b, slope, intercept) of consecutive radii, built
    point by point from the left: a point joins the last run when it lies
    on its line, and a one-point run (slope 0) takes the slope to the next
    point when that slope is -1, 0 or 1."""
    runs: list = []
    for n, r in radii.items():
        if runs:
            a, b, s, c = runs[-1]
            if a == b and r - c in (-1, 0, 1):
                s, c = r - c, c - (r - c) * a
            if s * n + c == r:
                runs[-1] = (a, n, s, c)
                continue
        runs.append((n, n, 0, r))
    return runs


class TestFrequencyPieces:
    def check(self, sig: BlockSignal, n_lo: int, n_hi: int) -> list:
        pieces = frequency_pieces(sig, n_lo, n_hi)
        radii = {n: event_centered(sig, n).radius for n in range(n_lo, n_hi + 1)}
        assert pieces == greedy_runs(radii)
        return pieces

    def test_dirac_gives_two_pieces(self):
        # r_0 = 0 lies on the left line r = -n, so n = 0 joins that piece
        assert self.check(dirac(), -1000, 1000) == [(-1000, 0, -1, 0), (1, 1000, 1, 0)]

    @given(constant_blocks_st, st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_equals_event_centered_at_both_offsets(self, spec, margin):
        sig = blocks_from(spec)
        lo, hi = support_bounds(sig)
        pieces = self.check(sig, lo - margin - 10, hi + margin)
        t = 2**10000
        moved = self.check(translate(sig, t), lo - margin - 10 + t, hi + margin + t)
        assert moved == [(a + t, b + t, s, c - s * t) for a, b, s, c in pieces]

    def test_acceptance_corpus(self):
        """Every signal of acceptance criterion 5's corpus, over the points
        within one support width, as diff_signal checks the engines."""
        rng = random.Random(20260818)
        corpus = [random_dense(rng) for _ in range(500)] + list(binary_signals(12))
        for sig in corpus:
            lo, hi = support_bounds(sig)
            width = hi - lo + 1
            radii = expand(frequency_pieces(sig, lo - width, hi + width))
            assert all(event_centered(sig, n).radius == r for n, r in radii.items())

    def test_first_beat_equals_a_scan(self):
        """_first_beat against trying every t, on random affine forms whose
        comparison is often concave with a short positive stretch."""
        rng = random.Random(11)

        def form(span):
            rs = rng.choice((-1, 0, 1))
            r0 = rng.randint(span if rs < 0 else 0, span + 8)
            ms = rng.randint(-40, 40)
            m0 = rng.randint(max(0, -ms * span), max(0, -ms * span) + 400)
            return (r0, rs, m0, ms)

        for _ in range(3000):
            span = rng.randint(1, 30)
            f, w = form(span), form(span)
            t0 = rng.randint(-1, span - 1)
            want = next((t for t in range(t0 + 1, span + 1) if _beats(f, w, t)), None)
            assert _first_beat(f, w, t0, span) == want, (f, w, t0, span)
        # q(t) = -2 (t - 5)^2 + 1: negative at both ends, positive at t = 5 only
        assert _first_beat((0, 1, 1, 121), (0, 0, 50, 1), 0, 10) == 5

    def test_few_pieces_over_a_long_range(self):
        sig = BlockSignal([Block(14, 18, Fraction(1, 10)), Block(150, 178, Fraction(1, 116))])
        pieces = frequency_pieces(sig, -10**6, 10**6)
        assert len(pieces) < 20
        assert pieces[0] == (-10**6, pieces[0][1], -1, 178)  # far left: r = 178 - n
        assert pieces[-1][2:] == (1, -14)  # far right: r = n - 14

    def test_sweep_tables_built_once_per_signal(self, monkeypatch):
        builds = []

        def counted(lay):
            builds.append(lay)
            return _sweep_tables(lay)

        monkeypatch.setattr(hlmax.maxengine, "_sweep_tables", counted)
        sig = blocks_from([(0, 3, 1, 1), (2, 4, 2, 1), (5, 2, 1, 3)])
        lo, hi = support_bounds(sig)
        radii = expand(frequency_pieces(sig, lo, hi))
        assert len(builds) == 1
        inner = expand(frequency_pieces(sig, lo + 2, hi - 1))
        assert inner == {n: radii[n] for n in range(lo + 2, hi)}
        frequency_pieces(sig, lo - 5, lo - 1)  # outside the support: no tables
        assert len(builds) == 1

    def test_refusals(self):
        with pytest.raises(ParameterViolation):
            frequency_pieces(dirac(), 5, 4)
        pl = BlockSignal([Block(1, 10, PowerLaw(Fraction(1, 2)))])
        with pytest.raises(ParameterViolation):
            frequency_pieces(pl, 0, 3)


class TestCenteredWalk:
    """The kink walk of event_centered on constant signals against the
    brute-force radius scan, including adjacent blocks of different
    amplitudes, one-point blocks and points outside the support."""

    @given(constant_blocks_st, st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle_and_its_2p10000_twin(self, spec, data):
        sig = blocks_from(spec)
        lo, hi = support_bounds(sig)
        t = 2**10000
        moved = translate(sig, t)
        near = data.draw(st.lists(st.integers(lo - 12, hi + 12), min_size=1, max_size=12))
        far = data.draw(st.lists(st.sampled_from([lo - 10**6, hi + 10**6]), max_size=2))
        for n in near:
            ev, oc = event_centered(sig, n), oracle_centered(sig, n)
            assert (ev.max_value, ev.radius, ev.certified) == (oc.max_value, oc.radius, True), n
        for n in near + far:
            a, b = event_centered(sig, n), event_centered(moved, n + t)
            assert (a.max_value, a.radius) == (b.max_value, b.radius), n

    def test_adjacent_amplitudes_and_single_points(self):
        sig = BlockSignal(
            [Block(0, 0, Fraction(5)), Block(1, 3, Fraction(1)), Block(4, 4, Fraction(9))]
        )
        for n in range(-6, 11):
            ev, oc = event_centered(sig, n), oracle_centered(sig, n)
            assert (ev.max_value, ev.radius) == (oc.max_value, oc.radius), n

    def test_one_window_sum_per_query(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return window_sum_scaled(*args)

        monkeypatch.setattr("hlmax.maxengine.window_sum_scaled", counted)
        sig = blocks_from([(3, 2, 1, 1), (0, 1, 7, 2), (5, 4, 2, 3)] * 20)
        lo, hi = support_bounds(sig)
        for n in (lo - 50, lo, (lo + hi) // 2, hi + 1, hi + 10**6):
            del calls[:]
            event_centered(sig, n)
            assert len(calls) <= 1, n


class TestTranslationAt2p10000:
    """Both discrete engines on constant signals, BlockSignal and DenseSignal,
    equal the oracles at offset 0 and give the same value and radius (or
    diameter) after a shift by 2^10000, inside the support, at its edges
    and outside it."""

    @given(constant_blocks_st, st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_engines_equal_oracles_and_their_translates(self, spec, as_dense, data):
        sig = blocks_from(spec)
        if as_dense:
            sig = to_dense(sig)
        lo, hi = support_bounds(sig)
        t = 2**10000
        moved = translate(sig, t)
        inside = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=6))
        outside = data.draw(st.lists(
            st.one_of(st.integers(lo - 15, lo - 1), st.integers(hi + 1, hi + 15)), max_size=4
        ))
        for n in inside + [lo, hi] + outside:
            ec, oc = event_centered(sig, n), oracle_centered(sig, n)
            assert (ec.max_value, ec.radius, ec.certified) == (oc.max_value, oc.radius, True), n
            eu, ou = event_uncentered(sig, n), oracle_uncentered(sig, n)
            assert (eu.max_value, eu.min_diameter, eu.certified) == (
                ou.max_value, ou.min_diameter, True
            ), n
            far = event_centered(moved, n + t)
            assert (far.max_value, far.radius) == (ec.max_value, ec.radius), n
            far_u = event_uncentered(moved, n + t)
            assert (far_u.max_value, far_u.min_diameter) == (eu.max_value, eu.min_diameter), n


class TestOneLayoutForZAndR:
    """A constant signal on Z is the step function x -> f(floor(x)), and the
    window [n - r, n + r] is its ball of radius r + 1/2 about n + 1/2."""

    @given(constant_blocks_st, st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_discrete_engine_is_the_continuous_one_at_half_integers(self, spec, as_dense, data):
        base = blocks_from(spec)
        lo, hi = support_bounds(base)
        points = data.draw(st.lists(st.integers(lo - 12, hi + 12), min_size=1, max_size=10))
        for off in (0, 2**10000):
            sig = translate(to_dense(base) if as_dense else base, off)
            values = to_dense(as_blocks(sig)).values

            def f(m):
                return values[m - lo - off] if lo + off <= m <= hi + off else 0

            # one unit piece per integer, built from the listed values
            units = StepFunction(range(lo + off, hi + off + 2), values)
            for n in points:
                ev = event_centered(sig, n + off)
                co = maximal_centered_cont(units, n + off + Fraction(1, 2))
                assert ev.max_value == co.max_value, n
                assert co.radius == (ev.radius + Fraction(1, 2) if ev.radius else 0), n
            # the signal's layout is the one of the step function whose
            # breakpoints are the block edges, where the listed value changes
            edges = [m for m in range(lo + off, hi + off + 2) if f(m - 1) != f(m)]
            steps = StepFunction(edges, [f(m) for m in edges[:-1]])
            assert as_blocks(sig).layout == steps.layout


class TestShortCells:
    """frequency_pieces walks short cells point by point; the pieces must
    be the ones the sweep alone gives, wherever the walks start and end."""

    @given(constant_blocks_st, st.integers(0, 20), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_walked_cells_give_the_sweeps_pieces(self, spec, margin, shift):
        sig = blocks_from(spec)
        lo, hi = support_bounds(sig)
        n_lo, n_hi = lo - margin - 10 + shift, hi + margin
        if n_hi < n_lo:
            n_lo, n_hi = n_hi, n_lo
        pieces = frequency_pieces(sig, n_lo, n_hi)
        for cell in (0, 10**9):  # sweep every cell, walk every cell
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("hlmax.maxengine._SHORT_CELL", cell)
                assert frequency_pieces(sig, n_lo, n_hi) == pieces, cell

    @given(constant_blocks_st, st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_cell_starts_and_first_forms_match_the_sweep(self, spec, margin):
        """Through every cell of the sweep: the edge-point test marks exactly
        its end."""
        lay = blocks_from(spec).layout
        bounds, near3, near4 = _sweep_tables(lay)
        t, t_hi = -margin - 3, lay.xs[-1] + margin
        while t <= t_hi:
            t_end, _ = _cell_candidates(lay, bounds, t, t_hi - t)
            k = bisect_left(bounds, t)
            left, right = bounds[:k], bounds[k:]
            for u in range(t + 1, min(t + t_end + 1, t_hi) + 1):
                if k < len(bounds) and bounds[k] <= u:
                    break  # boundaries end cells on their own
                ends = _edge_hit(left, right, near3, 2 * u - 1) or (
                    u - 1 > t and _edge_hit(left, right, near3, 2 * u - 2)
                )
                assert ends == (u == t + t_end + 1), (t, u)
                if u - 1 > t:
                    assert _edge_hit(left, right, near4, 2 * u - 2) == ends, (t, u)
            t += t_end + 1

    def test_dense_layout_walks_without_a_sweep(self, monkeypatch):
        # blocks 4-12 long with gaps 3-12: every cell inside the support is
        # walked, so _cell_candidates never runs there
        rng = random.Random(3)
        spec = [(rng.randint(3, 12), rng.randint(4, 12), rng.randint(1, 16), rng.randint(1, 16))
                for _ in range(60)]
        sig = blocks_from(spec)
        lo, hi = support_bounds(sig)
        mid = (lo + hi) // 2
        want = [event_centered(sig, n).radius for n in range(mid - 60, mid + 60)]

        def refuse(*args):
            raise AssertionError("swept a cell")

        monkeypatch.setattr("hlmax.maxengine._cell_candidates", refuse)
        assert list(expand(frequency_pieces(sig, mid - 60, mid + 59)).values()) == want


class TestEnclosureHonesty:
    def test_powerlaw_value_is_enclosure_with_true_value_inside(self):
        sig = BlockSignal([Block(1, 100, PowerLaw(Fraction(1, 2)))])
        res = event_centered(sig, 50)
        lo, hi = exact_bounds(res.max_value)
        assert lo <= hi
        # the maximal average is at least f(50) = 50^(-1/2) > 1/8
        assert hi > Fraction(1, 8)


if __name__ == "__main__":
    golden = {kind: {str(p): golden_records(kind, p) for p in ps} for kind, ps in GOLDEN_PRECS.items()}
    PL_GOLDEN.write_text(json.dumps(golden) + "\n")
