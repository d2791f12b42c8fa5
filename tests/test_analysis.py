"""Dichotomy classification and density counting: window partition with
exact boundary behavior, membership tests at meaningful boundary parameters,
pointwise/structural/closed-form counting agreement, and CSV rendering."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlmax.analysis import (
    DensityRow,
    DichotomyClass,
    classify,
    density_series,
    rows_to_csv,
    sc_membership,
)
from hlmax.analysis import _count_in_range, _structural_zero_blocks
from hlmax.config import DEFAULT_LIMITS
from hlmax.constructions import GrowthSpec, build_theorem27, build_theorem29_linf, dirac
from hlmax.corpus import random_dense
from hlmax.errors import ParameterViolation, ZeroIndex
from hlmax.maxengine import (
    CenteredResult,
    UncenteredResult,
    event_centered,
    event_uncentered,
)
from hlmax.signal import DenseSignal, to_blocks
from hlmax.values import Enclosure, exact_bounds

F = Fraction


def centered_record(n: int, radius: int) -> CenteredResult:
    return CenteredResult(n, F(1), radius, True)


def uncentered_record(n: int, diam: int) -> UncenteredResult:
    return UncenteredResult(n, F(1), diam, True)


class TestClassify:
    def test_named_examples(self):
        # point mass: r_n = |n|, ratio exactly 1
        res = event_centered(dirac(), 50)
        assert classify(res) is DichotomyClass.NEAR_ONE
        # inside a dominant block the minimal radius is 0
        sig, cert = build_theorem27(GrowthSpec("log"), 2)
        inside = cert.N[0] + 1
        assert classify(event_centered(sig, inside)) is DichotomyClass.NEAR_ZERO
        # at a block-family anchor the ratio sits near 1/3: middle band
        lsig, lcert = build_theorem29_linf(5)
        assert classify(event_centered(lsig, lcert.N[1])) is DichotomyClass.MIDDLE

    def test_centered_boundaries(self):
        eps = F(1, 10)
        # windows: [0, e) [e, 1-e] (1-e, 1+e) [1+e, oo)
        cases = [
            (F(0), DichotomyClass.NEAR_ZERO),
            (F(1, 10), DichotomyClass.MIDDLE),  # ratio = e: middle is closed
            (F(9, 10), DichotomyClass.MIDDLE),  # ratio = 1-e
            (F(1), DichotomyClass.NEAR_ONE),
            (F(11, 10), DichotomyClass.ABOVE_ONE_PLUS),  # ratio = 1+e
            (F(3), DichotomyClass.ABOVE_ONE_PLUS),
        ]
        for ratio, want in cases:
            rec = centered_record(ratio.denominator, ratio.numerator)
            assert classify(rec, eps) is want, ratio

    def test_uncentered_boundaries_at_quarter(self):
        # e = 1/4 closes the admissible range; middle degenerates to {1/4}
        eps = F(1, 4)
        cases = [
            (F(0), DichotomyClass.NEAR_ZERO),
            (F(1, 5), DichotomyClass.NEAR_ZERO),
            (F(1, 4), DichotomyClass.MIDDLE),
            (F(1, 2), DichotomyClass.NEAR_HALF),
            (F(7, 10), DichotomyClass.NEAR_HALF),
            (F(3, 4), DichotomyClass.ABOVE_HALF_PLUS),
        ]
        for ratio, want in cases:
            # ratio = diam / (2 |n|): use n = denominator, diam = 2*numerator
            rec = uncentered_record(ratio.denominator, 2 * ratio.numerator)
            assert classify(rec, eps) is want, ratio

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=0, max_value=800),
        st.fractions(min_value=F(1, 64), max_value=F(31, 64), max_denominator=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_centered_partition(self, n, radius, eps):
        got = classify(centered_record(n, radius), eps)
        ratio = F(radius, n)
        windows = {
            DichotomyClass.NEAR_ZERO: ratio < eps,
            DichotomyClass.MIDDLE: eps <= ratio <= 1 - eps,
            DichotomyClass.NEAR_ONE: 1 - eps < ratio < 1 + eps,
            DichotomyClass.ABOVE_ONE_PLUS: ratio >= 1 + eps,
        }
        assert windows.pop(got)
        assert not any(windows[k] for k in windows)

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=0, max_value=800),
        st.fractions(min_value=F(1, 64), max_value=F(1, 4), max_denominator=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_uncentered_partition(self, n, diam, eps):
        got = classify(uncentered_record(n, diam), eps)
        ratio = F(diam, 2 * n)
        windows = {
            DichotomyClass.NEAR_ZERO: ratio < eps,
            DichotomyClass.MIDDLE: eps <= ratio <= F(1, 2) - eps,
            DichotomyClass.NEAR_HALF: F(1, 2) - eps < ratio < F(1, 2) + eps,
            DichotomyClass.ABOVE_HALF_PLUS: ratio >= F(1, 2) + eps,
        }
        assert windows.pop(got)
        assert not any(windows[k] for k in windows)

    def test_epsilon_bounds(self):
        rec = centered_record(5, 5)
        with pytest.raises(ParameterViolation):
            classify(rec, F(0))
        with pytest.raises(ParameterViolation):
            classify(rec, F(1, 2))
        urec = uncentered_record(5, 5)
        with pytest.raises(ParameterViolation):
            classify(urec, F(3, 10))
        classify(urec, F(1, 4))  # closed upper bound is admissible

    def test_zero_index(self):
        with pytest.raises(ZeroIndex):
            classify(centered_record(0, 3))
        with pytest.raises(ZeroIndex):
            sc_membership(centered_record(0, 3), F(2))

    def test_flag_mismatch(self):
        with pytest.raises(ParameterViolation):
            classify(centered_record(5, 5), uncentered=True)
        with pytest.raises(ParameterViolation):
            classify(uncentered_record(5, 5), uncentered=False)


class TestScMembership:
    def test_point_mass_examples(self):
        rec = event_centered(dirac(), 10)  # ratio exactly 1
        assert not sc_membership(rec, F(2))  # needs 1/4 <= 1 <= 1/2
        assert sc_membership(rec, F(1))  # 1/2 <= 1 <= 1 at the boundary C

    def test_linf_anchor_inside_third(self):
        sig, cert = build_theorem29_linf(5)
        rec = event_centered(sig, cert.N[1])
        # ratio = 341/1024 lies in [1/6, 1/3]
        assert sc_membership(rec, F(3))
        assert not sc_membership(rec, F(6))

    def test_validation(self):
        with pytest.raises(ParameterViolation):
            sc_membership(centered_record(5, 5), F(0))
        with pytest.raises(ParameterViolation):
            sc_membership(centered_record(5, 5), F(-2))

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=400),
        st.fractions(min_value=F(1, 4), max_value=F(8), max_denominator=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_inequality(self, n, radius, C):
        if C == 0:
            return
        rec = centered_record(n, radius)
        want = F(1, 2) / C <= F(radius, n) <= 1 / C
        assert sc_membership(rec, C) == want


class TestDensitySeries:
    def test_point_mass_closed_form(self):
        rows = density_series(dirac(), [100, 10**4, 10**9])
        for row in rows:
            assert row.flags == ""
            assert row.count_S == 0
            assert row.count_Z == 0
            assert row.count_near1 == 2 * row.N
            assert row.ratio_S_over_N == 0
            assert row.ratio_near1_over_2N == 1

    def test_point_mass_uncentered_half(self):
        # minimal diameter |n| gives ratio exactly 1/2 at every n != 0:
        # inside S for C = 2, never near 1, never zero
        rows = density_series(dirac(), [5, 40], uncentered=True)
        for row in rows:
            assert row.count_S == 2 * row.N
            assert row.count_Z == 0
            assert row.count_near1 == 0

    def test_counts_monotone_and_bounded(self):
        rng = random.Random(424242)
        for _ in range(5):
            sig = random_dense(rng, max_width=20)
            rows = density_series(sig, [5, 10, 25, 60])
            prev = None
            for row in rows:
                assert row.flags == ""
                assert 0 <= row.count_Z <= row.count_S <= 2 * row.N
                assert 0 <= row.count_near1 <= 2 * row.N
                if prev is not None:
                    assert row.count_S >= prev.count_S
                    assert row.count_Z >= prev.count_Z
                    assert row.count_near1 >= prev.count_near1
                prev = row

    def test_far_field_closed_form_matches_pointwise(self):
        # the horizon tail (+2 near-1 points per N) must agree with honest
        # pointwise evaluation well beyond the horizon
        sig = DenseSignal(-2, [F(1), F(2), F(1), F(1), F(3)])
        rows = density_series(sig, [400])
        row = rows[0]
        s = z = n1 = 0
        eps, C = F(1, 10), F(2)
        for m in range(1, 401):
            for n in (m, -m):
                rec = event_centered(sig, n)
                ratio = F(rec.radius, abs(n))
                s += ratio <= 1 / C
                z += ratio == 0
                n1 += 1 - eps <= ratio <= 1 + eps
        assert (row.count_S, row.count_Z, row.count_near1) == (s, z, n1)

    def test_structural_row_matches_pointwise_count(self):
        sig, cert = build_theorem27(GrowthSpec("log"), 4)
        spans = _structural_zero_blocks(sig)
        assert spans is not None  # block dominance holds by construction
        # pointwise row at small N vs the structural span count
        rows = density_series(sig, [600], g=GrowthSpec("log"))
        assert rows[0].flags == ""
        assert rows[0].count_Z == _count_in_range(spans, 600)
        # structural row at a scale past the evaluation cap
        big_n = cert.N[-1] + cert.L[-1]
        brow = density_series(sig, [big_n], g=GrowthSpec("log"))[0]
        assert brow.flags == "structural"
        assert brow.count_Z == _count_in_range(spans, big_n)
        assert brow.count_S is None and brow.count_near1 is None
        lo, hi = exact_bounds(brow.ratio_Z_over_NoverG)
        assert lo > F(1, 2)  # the zero set fills more than half of N/g(N)

    def test_compact_support_never_goes_partial(self):
        # small support pins every far ratio, so the closed-form tail covers
        # any N for a dense signal: no partial rows, exact counts
        sig = DenseSignal(0, [F(1), F(5)])
        rows = density_series(sig, [50, 10**7])
        assert [r.flags for r in rows] == ["", ""]
        assert rows[1].count_S is not None

    def test_partial_row_when_dominance_fails_at_scale(self):
        # wide support pushes the horizon past the evaluation cap, and the
        # second block is too weak for amplitude dominance: honest partial
        from hlmax.signal import Block, BlockSignal

        sig = BlockSignal([Block(0, 0, F(1)), Block(10**7, 10**7, F(1, 10**9))])
        assert _structural_zero_blocks(sig) is None
        rows = density_series(sig, [10**6])
        assert rows[0].flags == "partial"
        assert rows[0].count_Z is None and rows[0].count_S is None

    def test_dense_and_its_blocks_give_identical_rows(self):
        # a signal's rows cannot depend on how it was written: past the cap
        # both forms get the structural zero count of the same blocks
        sig = DenseSignal(0, [F(1), F(0), F(0), F(0), F(0), F(5)])
        limits = DEFAULT_LIMITS.with_(density_eval_cap=3)
        for uncentered in (False, True):
            dense_rows = density_series(sig, [2, 10**6], uncentered=uncentered, limits=limits)
            block_rows = density_series(
                to_blocks(sig), [2, 10**6], uncentered=uncentered, limits=limits
            )
            assert dense_rows == block_rows
        rows = density_series(sig, [2, 10**6], limits=limits)
        assert [r.flags for r in rows] == ["", "structural"]
        assert rows[1].count_Z == 1

    def test_partial_row_uncentered_beyond_cap(self):
        # uncentered counting has no far-field closed form (membership at
        # C = 2 straddles the boundary), so beyond the cap rows go partial
        sig = DenseSignal(0, [F(1), F(5)])
        rows = density_series(sig, [10**6], uncentered=True)
        assert rows[0].flags == "partial"

    def test_validation(self):
        with pytest.raises(ParameterViolation):
            density_series(dirac(), [10], C=F(1))
        with pytest.raises(ParameterViolation):
            density_series(dirac(), [10], epsilon=F(1, 2))
        with pytest.raises(ParameterViolation):
            density_series(dirac(), [])
        with pytest.raises(ParameterViolation):
            density_series(dirac(), [10, 10])
        with pytest.raises(ParameterViolation):
            density_series(dirac(), [0, 10])
        with pytest.raises(ParameterViolation):
            density_series("not-a-signal", [10])

    def test_uncentered_pointwise_only(self):
        sig = DenseSignal(0, [F(1), F(2)])
        rows = density_series(sig, [30], uncentered=True)
        row = rows[0]
        assert row.flags == ""
        s = sum(
            F(event_uncentered(sig, n).min_diameter, 2 * abs(n)) <= F(1, 2)
            for m in range(1, 31)
            for n in (m, -m)
        )
        assert row.count_S == s


def pointwise_counts(sig, n_max: int, C: Fraction, eps: Fraction, uncentered=False) -> list:
    """Cumulative (count_S, count_Z, count_near1) for N = 1..n_max from one
    event_centered pass, or one event_uncentered pass with the ratio
    min_diameter / (2 |n|)."""
    out, s, z, n1 = [], 0, 0, 0
    for m in range(1, n_max + 1):
        for n in (m, -m):
            if uncentered:
                ratio = F(event_uncentered(sig, n).min_diameter, 2 * m)
            else:
                ratio = F(event_centered(sig, n).radius, m)
            s += ratio <= 1 / C
            z += ratio == 0
            n1 += 1 - eps <= ratio <= 1 + eps
        out.append((s, z, n1))
    return out


class TestSweptCounts:
    """Centered rows on constant signals are counted from frequency pieces;
    they must equal one pointwise pass at every N."""

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("C, eps", [(F(2), F(1, 10)), (F(5, 2), F(1, 8))])
    def test_theorem27_every_n(self, k, C, eps):
        sig, _ = build_theorem27(GrowthSpec("log"), k)
        n_max = 10_000
        rows = density_series(sig, list(range(1, n_max + 1)), C=C, epsilon=eps)
        assert all(r.flags == "" for r in rows)
        got = [(r.count_S, r.count_Z, r.count_near1) for r in rows]
        assert got == pointwise_counts(sig, n_max, C, eps)

    def test_dense_signal_rows(self):
        rng = random.Random(77)
        for _ in range(5):
            sig = random_dense(rng, max_width=24)
            rows = density_series(sig, [3, 17, 40, 90])
            want = pointwise_counts(sig, 90, F(2), F(1, 10))
            for row in rows:
                # past the horizon every ratio is near 1, as the tail assumes
                assert (row.count_S, row.count_Z) == want[row.N - 1][:2]
                assert row.count_near1 == want[row.N - 1][2]

    @given(
        st.integers(0, 2**32),
        st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True),
        st.sampled_from([(F(2), F(1, 10)), (F(5, 2), F(1, 8)), (F(3, 2), F(1, 4))]),
    )
    @settings(max_examples=30, deadline=None)
    def test_uncentered_rows_at_several_n(self, seed, ns, c_eps):
        # uncentered rows count one-point pieces of the diameter, w = 2
        C, eps = c_eps
        sig = random_dense(random.Random(seed), max_width=16)
        ns = sorted(ns)
        rows = density_series(sig, ns, C=C, epsilon=eps, uncentered=True)
        want = pointwise_counts(sig, ns[-1], C, eps, uncentered=True)
        assert [(r.count_S, r.count_Z, r.count_near1) for r in rows] == [want[n - 1] for n in ns]
        assert all(r.flags == "" for r in rows)

    def test_uncentered_rows_keep_no_point_list(self):
        # each side's diameters merge into affine runs as they are evaluated
        # (7 runs for n > 0 and 2 for n < 0 up to |n| = 20000 here), so the
        # memory does not grow with N
        sig, _ = build_theorem27(GrowthSpec("log"), 4)
        tracemalloc.start()
        try:
            row = density_series(sig, [6000], uncentered=True)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (row.count_S, row.count_Z, row.count_near1) == (5992, 34, 9)
        assert peak < 500_000

    def test_constant_rows_make_no_engine_calls(self, monkeypatch):
        import hlmax.analysis

        def refuse(*args):
            raise AssertionError("pointwise engine call")

        monkeypatch.setattr(hlmax.analysis, "event_centered", refuse)
        sig, _ = build_theorem27(GrowthSpec("log"), 4)
        rows = density_series(sig, [200, 2000, 20000, 200000], g=GrowthSpec("log"))
        assert [r.flags for r in rows] == ["", "", "", "structural"]

    def test_power_law_rows_stay_pointwise(self):
        from hlmax.signal import Block, BlockSignal, PowerLaw

        sig = BlockSignal([Block(2, 9, PowerLaw(F(1, 2))), Block(12, 12, F(1, 5))])
        row = density_series(sig, [25])[0]
        assert row.flags == ""
        assert (row.count_S, row.count_Z, row.count_near1) == pointwise_counts(
            sig, 25, F(2), F(1, 10)
        )[-1]


class TestCsv:
    def test_header_and_cells(self):
        rows = density_series(dirac(), [10], g=GrowthSpec("log"))
        csv = rows_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "N,count_S,count_Z,count_near1,ratio_S,ratio_Z_norm,ratio_near1,flags"
        cells = lines[1].split(",")
        assert cells[0] == "10"
        assert cells[1] == "0"
        assert cells[4] == "0/1"
        assert cells[6] == "1/1"
        assert cells[7] == ""

    def test_enclosure_and_empty_cells(self):
        sig, cert = build_theorem27(GrowthSpec("log"), 4)
        big_n = cert.N[-1] + cert.L[-1]
        rows = density_series(sig, [big_n], g=GrowthSpec("log"))
        line = rows_to_csv(rows).strip().split("\n")[1]
        # csv cells: empty count_S, exact count_Z, enclosure ratio, flag
        cells = line.split(",")
        assert cells[1] == "" and cells[3] == "" and cells[4] == ""
        assert int(cells[2]) > 0
        assert ".." in cells[5]
        assert cells[7] == "structural"

    def test_partial_row_renders(self):
        row = DensityRow(10**8, None, None, None, None, None, None, "partial")
        line = rows_to_csv([row]).strip().split("\n")[1]
        assert line == "100000000,,,,,,,partial"
