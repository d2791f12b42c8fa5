"""Counterexample constructions: frozen golden scales (computed once with
independent oracles, asserted exactly here), certified growth-function
arithmetic including exact rational-power ties, certificate recheck against
tampering, and the verification harnesses' report shapes."""

import copy
import functools
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlmax.constructions
from hlmax.config import DEFAULT_LIMITS
from hlmax.constructions import (
    Certificate,
    GrowthSpec,
    _block_claim,
    _smallest_admissible,
    build_theorem27,
    build_theorem29_linf,
    build_theorem29_lp,
    dirac,
    recheck_certificate,
    verify_delta,
    verify_theorem27,
    verify_theorem29_linf,
    verify_theorem29_lp,
)
from hlmax.continuum import StepFunction
from hlmax.errors import (
    GrowthSpecInvalid,
    InfeasibleConstraint,
    ParameterViolation,
)
from hlmax.maxengine import (
    CenteredResult,
    event_centered,
    event_uncentered,
    frequency_pieces,
    oracle_centered,
)
from hlmax.signal import Block, BlockSignal, norm_l1, support_bounds, translate
from hlmax.values import Ordering, int_str, parse_int, parse_rational, rational_str

F = Fraction

LOG = GrowthSpec("log")


class TestGrowthSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(GrowthSpecInvalid):
            GrowthSpec("exp")

    def test_logpow_beta_range(self):
        with pytest.raises(GrowthSpecInvalid):
            GrowthSpec("logpow", beta=F(0))
        with pytest.raises(GrowthSpecInvalid):
            GrowthSpec("logpow", beta=F(3, 2))
        GrowthSpec("logpow", beta=F(1))  # closed at 1

    def test_power_beta_range(self):
        with pytest.raises(GrowthSpecInvalid):
            GrowthSpec("power", beta=F(1))
        GrowthSpec("power", beta=F(1, 2))

    def test_stray_parameters(self):
        with pytest.raises(GrowthSpecInvalid):
            GrowthSpec("log", beta=F(1, 2))

    def test_table_kind_refused(self):
        # a bounded step table is no longer a growth kind, from Python or JSON
        with pytest.raises(GrowthSpecInvalid, match="unknown growth kind 'table'"):
            GrowthSpec("table")
        with pytest.raises(GrowthSpecInvalid, match="unknown growth kind 'table'"):
            GrowthSpec.from_json({"kind": "table", "steps": [["1", "2"]]})

    def test_evaluation_domain(self):
        with pytest.raises(GrowthSpecInvalid):
            LOG.value_at(1)


class TestGrowthSpecArithmetic:
    def test_power_exact_values(self):
        g = GrowthSpec("power", beta=F(1, 2))
        assert g.value_at(16) == F(4)
        assert g.value_at(10**6) == F(1000)

    def test_power_exact_tie_comparison(self):
        # N/g(N) integral exactly: sqrt(16) = 4 must compare EQUAL, not
        # hang or guess, which is the hazard enclosure arithmetic alone
        # cannot resolve.
        g = GrowthSpec("power", beta=F(1, 2))
        assert g.cmp_at(16, F(4)) is Ordering.EQUAL
        assert g.cmp_at(16, F(17, 4)) is Ordering.LESS
        assert g.cmp_at(16, F(15, 4)) is Ordering.GREATER

    def test_log_comparisons(self):
        assert LOG.cmp_at(3, F(1)) is Ordering.GREATER
        assert LOG.cmp_at(2, F(1)) is Ordering.LESS
        # e^2 = 7.389...: ln 7 < 2 < ln 8
        assert LOG.cmp_at(7, F(2)) is Ordering.LESS
        assert LOG.cmp_at(8, F(2)) is Ordering.GREATER

    def test_ceil_n_over_g(self):
        assert LOG.ceil_n_over_g(13) == 6  # 13/ln(13) = 5.068...
        g_half = GrowthSpec("power", beta=F(1, 2))
        assert g_half.ceil_n_over_g(16) == 4  # exact tie: 16/4
        assert g_half.ceil_n_over_g(17) == 5  # sqrt(17) = 4.12...

    def test_loglog_and_logpow(self):
        # ln ln 10^6 = ln(13.8...) = 2.62...
        g = GrowthSpec("loglog")
        assert g.cmp_at(10**6, F(5, 2)) is Ordering.GREATER
        assert g.cmp_at(10**6, F(3)) is Ordering.LESS
        h = GrowthSpec("logpow", beta=F(1, 2))
        # sqrt(ln 10^6) = 3.71...
        assert h.cmp_at(10**6, F(7, 2)) is Ordering.GREATER
        assert h.cmp_at(10**6, F(4)) is Ordering.LESS

    @given(
        g=st.sampled_from(
            [
                GrowthSpec("log"),
                GrowthSpec("loglog"),
                GrowthSpec("logpow", beta=F(1)),
                GrowthSpec("logpow", beta=F(1, 3)),
                GrowthSpec("power", beta=F(2, 3)),
                GrowthSpec("power", beta=F(1, 7)),
            ]
        ),
        n=st.one_of(st.sampled_from([2, 3]), st.integers(2, 2**2000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_g_below_n(self, g, n):
        # every kind has g(N) < N from N = 2 on, which lets the scale
        # search skip the N >= g(N) comparison
        assert g.cmp_at(n, F(n)) is Ordering.LESS

    @pytest.mark.parametrize(
        "g",
        [
            GrowthSpec("log"),
            GrowthSpec("loglog"),
            GrowthSpec("logpow", beta=F(2, 3)),
            GrowthSpec("logpow", beta=F(1)),
            GrowthSpec("power", beta=F(3, 5)),
        ],
    )
    def test_json_round_trip(self, g):
        assert GrowthSpec.from_json(g.to_json()) == g


class TestTheorem27Goldens:
    """Frozen scales for g = log, k_max = 4, computed independently (ln is
    transcendental at integers >= 2, so minimality was certified by
    comparing ln N against the rational targets on both sides)."""

    N_GOLD = [13, 149, 22027, 485165196]
    L_GOLD = [6, 30, 2203, 24258260]
    A_GOLD = ["1/10", "1/116", "1/17616", "1/388132144"]

    def test_discrete_scales(self):
        sig, cert = build_theorem27(LOG, 4)
        assert cert.theorem == "theorem27"
        assert cert.mode == "paper_exact"
        assert cert.N == self.N_GOLD
        assert cert.L == self.L_GOLD
        assert cert.extras["a"] == self.A_GOLD
        assert cert.extras["norm_l1"] == "15/16"
        assert cert.all_satisfied()
        assert isinstance(sig, BlockSignal)
        assert len(sig.blocks) == 4
        assert [(b.start, b.end) for b in sig.blocks] == [
            (n + 1, n + l - 1) for n, l in zip(self.N_GOLD, self.L_GOLD)
        ]
        assert norm_l1(sig) == F(15, 16)

    def test_scale_minimality_certified(self):
        # Each N_k is the first integer admitted: its predecessor must fail
        # the threshold g(N) >= max(2, (5/4) 2^k).  Through k = 13 (N_13
        # about 2^14774) the comparisons at N_k - 1 sit within 2^-bitlen(N)
        # of the target, so cmp_at must escalate to about bitlen(N) bits.
        _, cert = build_theorem27(LOG, 13)
        assert cert.N[:4] == self.N_GOLD
        assert cert.all_satisfied()
        assert 14770 < cert.N[-1].bit_length() < 14780
        for k, n in enumerate(cert.N, start=1):
            t = max(F(2), F(5, 4) * 2**k)
            assert LOG.cmp_at(n, t) is not Ordering.LESS
            assert LOG.cmp_at(n - 1, t) is Ordering.LESS

    def test_continuous_scales(self):
        sig, cert = build_theorem27(LOG, 4, variant="continuous")
        assert cert.theorem == "theorem27-cont"
        assert cert.N == self.N_GOLD
        assert cert.L == self.L_GOLD
        assert cert.extras["a"] == ["1/12", "1/120", "1/17624", "1/388132160"]
        assert cert.all_satisfied()
        assert isinstance(sig, StepFunction)
        assert sig.integral() == sum(
            F(1, 2**k * l) * l for k, l in enumerate(self.L_GOLD, start=1)
        )

    def test_engine_agrees_on_small_blocks(self):
        sig, cert = build_theorem27(LOG, 4)
        for k in (1, 2):
            a = F(self.A_GOLD[k - 1].split("/")[0]) / int(self.A_GOLD[k - 1].split("/")[1])
            n0, l = self.N_GOLD[k - 1], self.L_GOLD[k - 1]
            for n in range(n0 + 1, n0 + l):
                res = event_centered(sig, n)
                assert res.certified
                assert (res.max_value, res.radius) == (a, 0)

    def test_truncation_stability(self):
        _, c3 = build_theorem27(LOG, 3)
        _, c4 = build_theorem27(LOG, 4)
        assert c4.N[:3] == c3.N
        assert c4.L[:3] == c3.L

    def test_relaxed_records_violations(self):
        sig, cert = build_theorem27(LOG, 3, mode="relaxed", n1=5, growth_factor=10)
        assert cert.mode == "relaxed"
        assert cert.N == [5, 50, 500]
        assert not cert.all_satisfied()
        relaxed = {c.name for c in cert.conditions if c.status == "relaxed"}
        assert "g_large_k1" in relaxed  # ln 5 = 1.6... < 5/2
        ok, notes = recheck_certificate(cert.to_json())
        assert ok, notes

    def test_relaxed_needs_n1(self):
        with pytest.raises(ParameterViolation):
            build_theorem27(LOG, 3, mode="relaxed")

    @pytest.mark.parametrize(
        "g",
        [
            GrowthSpec("log"),
            GrowthSpec("loglog"),
            GrowthSpec("logpow", beta=F(1, 2)),
            GrowthSpec("power", beta=F(1, 2)),
        ],
        ids=["log", "loglog", "logpow", "power"],
    )
    def test_discrete_blocks_are_non_empty(self, g):
        # g(N) < N for every kind, so each paper_exact N_k has L_k >= 2 and
        # its discrete block {N_k < n < N_k + L_k} holds at least one point
        sig, cert = build_theorem27(g, 2)
        assert cert.all_satisfied()
        assert all(l >= 2 for l in cert.L)
        assert [(b.start, b.end) for b in sig.blocks] == [
            (n + 1, n + l - 1) for n, l in zip(cert.N, cert.L)
        ]

    def test_zero_growth_factor_is_not_the_default(self):
        # 0 is a given factor, not an absent one: N_2 = 0 is below g's domain
        with pytest.raises(GrowthSpecInvalid):
            build_theorem27(LOG, 2, "relaxed", n1=100, growth_factor=0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterViolation):
            build_theorem27(LOG, 0)
        with pytest.raises(ParameterViolation):
            build_theorem27(LOG, 2, variant="semi")
        with pytest.raises(ParameterViolation):
            build_theorem27(LOG, 2, mode="loose")


_SCALE_GOLDENS = json.loads((Path(__file__).parent / "t27_scales_golden.json").read_text())


class TestTheorem27ScaleGoldens:
    """N_k and L_k of every paper_exact build that the doubling and
    bisection search reached, frozen from that search as decimal strings:
    the inverse of g must reproduce each one."""

    @pytest.mark.parametrize(
        "gold",
        _SCALE_GOLDENS,
        ids=[f"{d['kind']}-{d['beta']}-{d['variant']}" for d in _SCALE_GOLDENS],
    )
    def test_scales_reproduced(self, gold):
        beta = None if gold["beta"] is None else parse_rational(gold["beta"])
        g = GrowthSpec(gold["kind"], beta)
        _, cert = build_theorem27(g, len(gold["N"]), variant=gold["variant"])
        assert [int_str(n) for n in cert.N] == gold["N"]
        assert [int_str(x) for x in cert.L] == gold["L"]


def _reference_smallest(g, k, lower, need_l_ge_2, doublings):
    """The doubling and bisection search over the admissibility predicate;
    None when no admissible N shows up within the given doublings."""
    target = max(F(2), F(5, 4) * 2**k)

    def admissible(n):
        if g.cmp_at(n, target) is Ordering.LESS:
            return False
        o = g.cmp_at(n, F(n))
        return o is Ordering.LESS or (not need_l_ge_2 and o is Ordering.EQUAL)

    if admissible(lower):
        return lower
    hi = lower
    for _ in range(doublings):
        hi *= 2
        if admissible(hi):
            break
    else:
        return None
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if admissible(mid) else (mid, hi)
    return hi


class TestInverseMatchesBisection:
    REACH = 256  # doublings the reference may take

    @given(
        kind=st.sampled_from(["log", "loglog", "logpow", "power"]),
        beta=st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 5)]),
        k=st.integers(1, 5),
        lower=st.integers(4, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_scale_wherever_the_reference_decides(self, kind, beta, k, lower):
        # g(N) < N for every kind, so the search asks only for g(N) at the
        # target, and meets the reference asking N >= g(N) or N > g(N)
        g = GrowthSpec(kind, beta if kind in ("logpow", "power") else None)
        for need_l_ge_2 in (False, True):
            ref = _reference_smallest(g, k, lower, need_l_ge_2, self.REACH)
            if ref is not None:
                assert _smallest_admissible(g, k, lower, DEFAULT_LIMITS) == ref

    def test_doubling_cap_decided_exactly_at_its_edge(self):
        # sqrt(N) >= (5/4) 2^k holds from N = (25/16) 4^k: about 2^20000.6
        # at k = 10000 and 2^20002.6 at k = 10001, both within a few bits of
        # the cap 4 * 2^20000, where one predicate evaluation decides
        g = GrowthSpec("power", beta=F(1, 2))
        assert _smallest_admissible(g, 10000, 4, DEFAULT_LIMITS) == 25 << 19996
        refusal = "no admissible N within 20000 doublings from 4$"
        with pytest.raises(InfeasibleConstraint, match=refusal):
            _smallest_admissible(g, 10001, 4, DEFAULT_LIMITS)


class TestBlockDominanceMatchesSignal:
    """Build and re-check share one gap formula, so a mistake in it would
    pass the re-check; these verdicts are recomputed from the edges and
    amplitudes of the signal that was actually built."""

    @pytest.mark.parametrize("variant", ["discrete", "continuous"])
    def test_verdicts_follow_the_built_signal(self, variant):
        sig, cert = build_theorem27(
            LOG, 4, "relaxed", variant, n1=100, growth_factor=2
        )
        if variant == "discrete":
            spans = [(b.start, b.end, b.amp) for b in sig.blocks]
            total = norm_l1(sig)
        else:
            bps = sig.breakpoints
            spans = [(bps[i], bps[i + 1], v) for i, v in enumerate(sig.values) if v]
            total = sig.integral()
        assert len(spans) == 4
        gaps = [s - e for (_, e, _), (s, _, _) in zip(spans, spans[1:])]
        expected = {}
        for k, (_, _, a) in enumerate(spans, start=1):
            d = min(gaps[i] for i in (k - 2, k - 1) if 0 <= i < len(gaps))
            if variant == "discrete":
                bound, rhs = a * (2 * d + 1), f"a_{k}*(2*{d}+1)"
            else:
                bound, rhs = 2 * a * d, f"2*a_{k}*{d}"
            expected[f"block_dominance_k{k}"] = (
                "satisfied" if total <= bound else "relaxed",
                f"||f||_1 = {rational_str(total)} vs {rhs}",
            )
        stored = {
            c.name: (c.status, c.note)
            for c in cert.conditions
            if c.name.startswith("block_dominance")
        }
        assert stored == expected
        assert {status for status, _ in stored.values()} == {"satisfied", "relaxed"}
        ok, notes = recheck_certificate(cert.to_json())
        assert ok, notes


class TestTheorem29LinfGoldens:
    def test_scales(self):
        sig, cert = build_theorem29_linf(5)
        assert cert.N == [2, 1024, 2**100, 2**1000, 2**10000]
        assert cert.L == [0, 341, 2**100 // 3, 2**1000 // 3, 2**10000 // 3]
        assert cert.extras["K"] == 2
        assert cert.extras["claim_ks"] == [2, 3, 4]
        assert cert.extras["claimed_radius"]["2"] == "341"
        assert cert.all_satisfied()
        # k = 1 block is empty (L_1 = 0); the signal starts at N_2 + 1
        assert sig.blocks[0].start == 1025
        assert len(sig.blocks) == 4

    def test_anchor_engine_exact(self):
        sig, _ = build_theorem29_linf(5)
        res = event_centered(sig, 1024)
        assert res.certified
        assert res.radius == 341
        assert res.max_value == F(341, 683)

    def test_huge_anchor_exact(self):
        sig, cert = build_theorem29_linf(5)
        n, l = cert.N[3], cert.L[3]  # 2^1000
        res = event_centered(sig, n)
        assert res.certified
        assert res.radius == l
        assert res.max_value == F(l, 2 * l + 1)
        ratio = F(l, n)
        assert abs(ratio - F(1, 3)) == F(1, 3 * 2**1000)

    def test_truncation_stability(self):
        sig5, c5 = build_theorem29_linf(5)
        sig6, c6 = build_theorem29_linf(6)
        assert c6.N[:5] == c5.N
        assert c6.extras["claim_ks"][:3] == c5.extras["claim_ks"]
        a = event_centered(sig5, 1024)
        b = event_centered(sig6, 1024)
        assert (a.max_value, a.radius) == (b.max_value, b.radius)

    def test_relaxed_growth(self):
        sig, cert = build_theorem29_linf(4, mode="relaxed", n1=2, growth_factor=4)
        assert cert.N == [2, 8, 32, 128]
        assert not cert.all_satisfied()
        relaxed = {c.name for c in cert.conditions if c.status == "relaxed"}
        assert "growth_k1" in relaxed
        ok, notes = recheck_certificate(cert.to_json())
        assert ok, notes

    def test_relaxed_n1_past_the_int_digit_limit(self):
        # str() of an int over 4300 digits raises ValueError
        n1 = 10**5000
        _, cert = build_theorem29_linf(3, mode="relaxed", n1=n1, growth_factor=10)
        note = next(c.note for c in cert.conditions if c.name == "N1_eq_2")
        assert note == "N_1 = 1" + "0" * 5000

    def test_k_max_floor(self):
        with pytest.raises(ParameterViolation):
            build_theorem29_linf(2)


class TestTheorem29LpGoldens:
    def test_paper_scales_and_caps(self):
        sig, cert = build_theorem29_lp(F(2), F(3, 5), 4)
        assert cert.N == [2**25, 2**250, 2**2500, 2**25000]
        assert cert.L == [n // 3 for n in cert.N]
        assert cert.all_satisfied()
        assert cert.extras["verifiable_blocks"] == [False, False, False, False]
        assert cert.extras["n_k"][0] == str(2**25 + 2**25 // 3 + 1)

    def test_relaxed_scales(self):
        sig, cert = build_theorem29_lp(
            F(2), F(3, 5), 4, mode="relaxed", n1=100, growth_factor=10
        )
        assert cert.N == [100, 1000, 10000, 100000]
        assert cert.L == [33, 333, 3333, 33333]
        assert cert.extras["n_k"] == ["134", "1334", "13334", "133334"]
        assert cert.extras["verifiable_blocks"] == [True, True, True, True]
        relaxed = {c.name for c in cert.conditions if c.status == "relaxed"}
        assert "N1_paper" in relaxed and "growth_k1" in relaxed

    def test_brute_force_oracle_golden_smallest_scale(self):
        # The claimed minimal radius at the first probe point, frozen from
        # the radius-scanning oracle rather than the event engine.
        sig, cert = build_theorem29_lp(
            F(2), F(3, 5), 2, mode="relaxed", n1=100, growth_factor=10
        )
        orc = oracle_centered(sig, 134)
        assert orc.radius == 33
        res = event_centered(sig, 134)
        assert res.radius == 33
        assert res.certified

    def test_parameter_validation(self):
        with pytest.raises(ParameterViolation):
            build_theorem29_lp(F(1), F(3, 5), 3)
        with pytest.raises(ParameterViolation):
            build_theorem29_lp(F(2), F(3, 2), 3)
        with pytest.raises(ParameterViolation):
            build_theorem29_lp(F(2), F(1, 2), 3)  # alpha * p = 1 exactly
        with pytest.raises(ParameterViolation):
            build_theorem29_lp(F(2), F(3, 5), 3, mode="relaxed")

    def test_empty_block_infeasible(self):
        with pytest.raises(InfeasibleConstraint):
            build_theorem29_lp(F(2), F(3, 5), 2, mode="relaxed", n1=2, growth_factor=10)


class TestCertificateRecheck:
    def make_t27(self):
        _, cert = build_theorem27(LOG, 3)
        return cert.to_json()

    def test_genuine_certificates_pass(self):
        docs = [
            self.make_t27(),
            build_theorem27(LOG, 3, variant="continuous")[1].to_json(),
            build_theorem29_linf(4)[1].to_json(),
            build_theorem29_lp(F(2), F(3, 5), 3)[1].to_json(),
            Certificate("delta", "paper_exact", [], [], []).to_json(),
        ]
        for doc in docs:
            ok, notes = recheck_certificate(doc)
            assert ok, (doc["theorem"], notes)

    def test_flipped_status_detected(self):
        doc = self.make_t27()
        doc["conditions"][0]["status"] = "relaxed"
        ok, notes = recheck_certificate(doc)
        assert not ok and any("N1_geq_4" in s for s in notes)

    def test_wrong_scale_detected(self):
        doc = self.make_t27()
        doc["L"][1] = str(int(doc["L"][1]) + 1)
        ok, notes = recheck_certificate(doc)
        assert not ok and any("ceil" in s for s in notes)

    def test_wrong_norm_detected(self):
        doc = self.make_t27()
        doc["norm_l1"] = "1/2"
        ok, notes = recheck_certificate(doc)
        assert not ok and any("norm" in s for s in notes)

    def test_missing_condition_detected(self):
        doc = self.make_t27()
        doc["conditions"] = doc["conditions"][1:]
        ok, notes = recheck_certificate(doc)
        assert not ok and any("missing" in s for s in notes)

    def test_wrong_linf_k_detected(self):
        doc = build_theorem29_linf(4)[1].to_json()
        doc["K"] = 3
        ok, notes = recheck_certificate(doc)
        assert not ok and any("K" in s for s in notes)

    def test_wrong_lp_probe_detected(self):
        doc = build_theorem29_lp(F(2), F(3, 5), 3)[1].to_json()
        doc["n_k"][0] = str(int(doc["n_k"][0]) + 5)
        ok, notes = recheck_certificate(doc)
        assert not ok and any("n_k" in s for s in notes)

    def test_unknown_theorem_detected(self):
        ok, notes = recheck_certificate(
            {"theorem": "lemma1", "mode": "paper_exact", "N": [], "L": [], "conditions": []}
        )
        assert not ok

    def test_json_round_trip(self):
        doc = self.make_t27()
        cert = Certificate.from_json(copy.deepcopy(doc))
        assert cert.to_json() == doc

    @pytest.mark.parametrize("key, value", [("alpha", "1"), ("alpha", "3"), ("p", "1")])
    def test_lp_parameters_outside_the_domain_refused(self, key, value):
        # alpha = 1 divides by zero in N_1's exponent; alpha = 3 would
        # re-derive N_1 as a fraction; the build refuses both
        doc = build_theorem29_lp(F(2), F(3, 5), 2)[1].to_json()
        doc[key] = value
        with pytest.raises(ParameterViolation):
            recheck_certificate(doc)

    def test_malformed_doc_is_parameter_violation(self):
        good = self.make_t27()
        docs = [{"theorem": "theorem27"}, [1]]
        for key, bad in (
            ("N", "5"),
            ("L", 3),
            ("conditions", {}),
            ("conditions", [1]),
            ("conditions", [{"name": "N1_geq_4"}]),
            ("N", ["x"]),
            ("L", []),
            ("a", None),
            ("g", {"kind": "table", "steps": [["5"]]}),
            ("g", [1]),
        ):
            doc = copy.deepcopy(good)
            doc[key] = bad
            docs.append(doc)
        for key in ("g", "a", "norm_l1"):
            doc = copy.deepcopy(good)
            del doc[key]
            docs.append(doc)
        for doc in docs:
            with pytest.raises(ParameterViolation):
                recheck_certificate(doc)


TAMPER_BUILDS = {
    "t27_paper": lambda: build_theorem27(LOG, 3),
    "t27_relaxed": lambda: build_theorem27(LOG, 3, "relaxed", n1=5, growth_factor=2),
    "t27cont_paper": lambda: build_theorem27(LOG, 3, variant="continuous"),
    "t27cont_relaxed": lambda: build_theorem27(
        LOG, 3, "relaxed", "continuous", n1=5, growth_factor=2
    ),
    "linf_paper": lambda: build_theorem29_linf(4),
    "linf_relaxed": lambda: build_theorem29_linf(4, "relaxed", n1=3, growth_factor=10),
    "lp_paper": lambda: build_theorem29_lp(F(2), F(3, 5), 3),
    "lp_relaxed": lambda: build_theorem29_lp(F(2), F(3, 5), 3, "relaxed", n1=5, growth_factor=10),
}


class TestRecheckCatchesEveryCondition:
    """recheck_certificate re-derives every condition that a build records:
    flipping any one stored status, or deleting any one condition, is
    caught and named."""

    @pytest.fixture(params=sorted(TAMPER_BUILDS), scope="class")
    def doc(self, request):
        doc = TAMPER_BUILDS[request.param]()[1].to_json()
        assert recheck_certificate(copy.deepcopy(doc)) == (True, [])
        return doc

    def test_relaxed_builds_record_relaxed_conditions(self):
        for key in ("t27_relaxed", "t27cont_relaxed", "linf_relaxed", "lp_relaxed"):
            cert = TAMPER_BUILDS[key]()[1]
            assert {c.status for c in cert.conditions} == {"satisfied", "relaxed"}, key

    def test_every_flipped_status_is_named(self, doc):
        for i, cond in enumerate(doc["conditions"]):
            tampered = copy.deepcopy(doc)
            flipped = "relaxed" if cond["status"] == "satisfied" else "satisfied"
            tampered["conditions"][i]["status"] = flipped
            ok, notes = recheck_certificate(tampered)
            assert not ok and any(s.startswith(cond["name"] + ": ") for s in notes), (
                cond["name"],
                notes,
            )

    def test_every_deleted_condition_is_named(self, doc):
        for i, cond in enumerate(doc["conditions"]):
            tampered = copy.deepcopy(doc)
            del tampered["conditions"][i]
            ok, notes = recheck_certificate(tampered)
            assert not ok and f"{cond['name']}: missing from certificate" in notes, (
                cond["name"],
                notes,
            )

    def test_rederived_names_equal_recorded_names(self, doc):
        bare = copy.deepcopy(doc)
        bare["conditions"] = []
        ok, notes = recheck_certificate(bare)
        suffix = ": missing from certificate"
        derived = [s[: -len(suffix)] for s in notes if s.endswith(suffix)]
        assert not ok and derived == [c["name"] for c in doc["conditions"]]


class TestVerificationReports:
    def test_delta_report(self):
        rep = verify_delta(n_abs_max=50)
        assert rep["ok"] and not rep["resource_capped"]
        names = {c["name"]: c for c in rep["claims"]}
        assert names["centered_profile_exact"]["status"] == "pass"
        assert names["uncentered_profile_exact"]["basis"] == "exact"

    def test_theorem27_report(self):
        rep = verify_theorem27(LOG, 4)
        assert rep["ok"] and not rep["resource_capped"]
        names = {c["name"]: c for c in rep["claims"]}
        for k in range(1, 5):
            assert names[f"block_k{k}_pointwise"]["status"] == "pass"
        dens = names["density_zero_set_half"]
        assert dens["status"] == "pass" and dens["basis"] == "enclosure"
        assert rep["certificate_recheck"]["ok"]

    def test_theorem27_relaxed_long_block_without_dominance(self):
        # block 4 is longer than _POINTWISE_CAP and short of dominance, so
        # it is decided on its pieces, not failed for want of dominance
        rep = verify_theorem27(LOG, 4, "relaxed", n1=100000, growth_factor=2)
        status = {c.name: c.status for c in Certificate.from_json(rep["certificate"]).conditions}
        claims = {c["name"]: c for c in rep["claims"]}
        assert status["block_dominance_k4"] == "relaxed"
        assert claims["block_k4_pointwise"]["status"] == "pass"
        assert claims["block_k4_pointwise"]["note"] == "all 58856 points exact"
        assert claims["density_zero_set_half"]["status"] == "unverifiable"

    def test_theorem27_continuous_report(self):
        rep = verify_theorem27(LOG, 3, variant="continuous")
        assert rep["ok"]
        assert all(c["status"] == "pass" for c in rep["claims"])

    def test_theorem27_continuous_claims_need_dominance(self):
        # relaxed scales leave block_dominance_k3 unsatisfied; seven exact
        # samples must not stand in for it
        rep = verify_theorem27(
            LOG, 4, "relaxed", "continuous", n1=100, growth_factor=2
        )
        status = {c.name: c.status for c in Certificate.from_json(rep["certificate"]).conditions}
        claims = {c["name"]: c for c in rep["claims"]}
        assert status["block_dominance_k3"] == "relaxed"
        assert claims["block_k3_pointwise"]["status"] == "fail"
        assert "block_dominance_k3 not satisfied" in claims["block_k3_pointwise"]["note"]
        assert status["block_dominance_k1"] == "satisfied"
        assert claims["block_k1_pointwise"]["status"] == "pass"
        assert not rep["ok"]

    def test_linf_report(self):
        rep = verify_theorem29_linf(5)
        assert rep["ok"] and not rep["resource_capped"]
        names = {c["name"]: c for c in rep["claims"]}
        assert {f"anchor_k{k}" for k in (2, 3, 4)} <= set(names)
        assert names["ratio_k4"]["status"] == "pass"
        assert all(c["basis"] == "exact" for c in rep["claims"])

    def test_lp_relaxed_report(self):
        rep = verify_theorem29_lp(
            F(2), F(3, 5), 4, mode="relaxed", n1=100, growth_factor=10
        )
        assert rep["ok"] and not rep["resource_capped"]
        names = {c["name"]: c for c in rep["claims"]}
        assert all(names[f"anchor_k{k}"]["status"] == "pass" for k in range(1, 5))
        assert names["ratio_k4"]["status"] == "pass"

    def test_lp_paper_resource_capped(self):
        rep = verify_theorem29_lp(F(2), F(3, 5), 2)
        assert rep["resource_capped"]
        assert not rep["ok"]
        assert all(c["status"] == "unverifiable" for c in rep["claims"])
        # honesty: the certificate itself still rechecks
        assert rep["certificate_recheck"]["ok"]


class TestLpVerifyAtLowPrecision:
    """verify_theorem29_lp fails an anchor only on a certified engine result.
    An anchor it cannot decide is unverifiable, and the note names why: the
    summation cap, or the gap of an uncertified result."""

    @staticmethod
    def check(p, alpha, k_max, n1, g, limits):
        args = (F(p), F(alpha), k_max, "relaxed")
        rep = verify_theorem29_lp(*args, n1=n1, growth_factor=g, limits=limits)
        sig, cert = build_theorem29_lp(*args, n1=n1, growth_factor=g, limits=limits)
        claims = {c["name"]: c for c in rep["claims"]}
        # a block past the cap refuses every anchor: each search reaches it
        capped = any(l > limits.powerlaw_sum_cap for l in cert.L)
        for k, (nk, l) in enumerate(zip(cert.extras["n_k"], cert.L), start=1):
            claim = claims[f"anchor_k{k}"]
            if capped:
                assert claim["status"] == "unverifiable"
                assert "power-law block sum exceeds cap" in claim["note"]
                continue
            res = event_centered(sig, parse_int(nk), limits)
            if not res.certified:
                assert claim["status"] == "unverifiable"
                assert "uncertified, gap" in claim["note"]
            else:
                assert claim["status"] == ("pass" if res.radius == l else "fail")
        if "ratio" in claims:
            assert claims["ratio"]["status"] == "unverifiable"
            cause = "under the summation cap" if capped else "no certified anchor"
            assert cause in claims["ratio"]["note"]
        return rep

    @given(
        st.sampled_from([(2, "3/5"), (2, "2/3"), (2, "3/4"), ("5/2", "1/2"), (3, "1/2")]),
        st.integers(1, 3),
        st.integers(3, 150),
        st.integers(2, 16),
        st.integers(5, 12),
        st.sampled_from([DEFAULT_LIMITS.powerlaw_sum_cap, 40, 400, 4000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fail_only_when_certified(self, pa, k_max, n1, g, prec, cap):
        limits = DEFAULT_LIMITS.with_(precision=prec, powerlaw_sum_cap=cap)
        self.check(*pa, k_max, n1, g, limits)

    @pytest.mark.parametrize(
        "p, alpha, n1, g", [(3, "1/2", 100, 10), (2, "3/5", 40, 16), (2, "2/3", 150, 8), (2, "3/4", 60, 13)]
    )
    def test_workload_instances_never_fail(self, p, alpha, n1, g):
        for prec in range(5, 13):
            rep = self.check(p, alpha, 3, n1, g, DEFAULT_LIMITS.with_(precision=prec))
            assert all(c["status"] != "fail" for c in rep["claims"]), prec


# every verify_* on a small build; theorem27's blocks past 16 points are
# sampled (_POINTWISE_CAP patched), so its engine-decided claims are reached
SMALL_VERIFY = {
    "delta": lambda lim: verify_delta(lim, n_abs_max=12),
    "t27": lambda lim: verify_theorem27(LOG, 3, limits=lim),
    "t27_relaxed": lambda lim: verify_theorem27(
        LOG, 4, "relaxed", n1=300, growth_factor=2, limits=lim
    ),
    "linf": lambda lim: verify_theorem29_linf(4, limits=lim),
    "linf_relaxed": lambda lim: verify_theorem29_linf(
        4, "relaxed", n1=3, growth_factor=3, limits=lim
    ),
    "lp": lambda lim: verify_theorem29_lp(
        F(2), F(3, 5), 3, "relaxed", n1=40, growth_factor=16, limits=lim
    ),
}
UNVERIFIABLE_CAUSES = (
    "uncertified, gap",
    "power-law block sum exceeds cap",
    "under the summation cap",
    "no certified anchor",
    "is partial",
)


def run_verify(kind: str, prec: int, uncertify: int = 0, wrong: int = 0) -> tuple:
    """(report, records) of one verify at the given precision, the engines
    it calls faulted: results at n = 0 mod uncertify made uncertified (gap
    1/1000), after certified ones at n = 0 mod wrong are given a radius (or
    diameter) one too large.  records holds (n, result,
    wrong injected) for every engine result the verify read."""
    records = []

    def faulty(engine):
        def run(sig, n, limits):
            res = engine(sig, n, limits)
            hit = bool(wrong) and res.certified and n % wrong == 0
            if hit:
                key = "radius" if isinstance(res, CenteredResult) else "min_diameter"
                res = replace(res, **{key: getattr(res, key) + 1})
            if uncertify and n % uncertify == 0 and res.certified:
                res = replace(res, certified=False, gap=F(1, 1000))
            records.append((n, res, hit and res.certified))
            return res

        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hlmax.constructions, "_POINTWISE_CAP", 16)
        mp.setattr(hlmax.constructions, "event_centered", faulty(event_centered))
        mp.setattr(hlmax.constructions, "event_uncentered", faulty(event_uncentered))
        rep = SMALL_VERIFY[kind](DEFAULT_LIMITS.with_(precision=prec))
    return rep, records


@functools.cache
def unfaulted(kind: str, prec: int) -> tuple:
    return run_verify(kind, prec)


def deciding_records(rep, records) -> dict:
    """Claim name -> the engine records that decide it."""
    doc = rep["certificate"]
    ns, ls = [parse_int(s) for s in doc["N"]], [parse_int(s) for s in doc["L"]]
    if rep["verify"] == "delta":
        return {"uncentered_profile_exact": records}
    if rep["verify"] == "theorem27":
        return {
            f"block_k{k}_pointwise": [r for r in records if n + 1 <= r[0] <= n + l - 1]
            for k, (n, l) in enumerate(zip(ns, ls), start=1)
        }
    anchors = ns if rep["verify"] == "theorem29-linf" else [parse_int(s) for s in doc["n_k"]]
    return {
        f"anchor_k{k}": [r for r in records if r[0] == n] for k, n in enumerate(anchors, start=1)
    }


class TestEveryVerifyAtLowPrecision:
    """Every verify_* fails a claim only on a certified engine result or on
    exact grounds: a claim whose deciding results include an uncertified
    one and no certified mismatch is unverifiable, and says so with the
    gap; every unverifiable note names its cause.  Engine faults are
    injected, because constant signals are exact at every precision."""

    @given(
        st.sampled_from(sorted(SMALL_VERIFY)),
        st.integers(5, 12),
        st.sampled_from([0, 1, 2, 3]),
        st.sampled_from([0, 1, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fail_only_when_certified(self, kind, prec, uncertify, wrong):
        base, base_records = unfaulted(kind, prec)
        rep, records = run_verify(kind, prec, uncertify, wrong)
        before = {c["name"]: c for c in base["claims"]}
        deciding = deciding_records(rep, records)
        base_deciding = deciding_records(base, base_records)
        for claim in rep["claims"]:
            name, status, note = claim["name"], claim["status"], claim["note"]
            if status == "unverifiable":
                assert any(cause in note for cause in UNVERIFIABLE_CAUSES), note
            if name not in deciding:
                continue
            recs, old = deciding[name], before[name]
            open_before = any(not res.certified for _, res, _ in base_deciding[name])
            if any(hit for _, _, hit in recs):
                assert status == "fail", claim
            elif any(not res.certified for _, res, _ in recs):
                if old["status"] == "pass" or open_before:
                    assert status == "unverifiable" and "uncertified, gap" in note, claim
                else:  # failing on exact grounds or on a certified result
                    assert status in ("fail", "unverifiable"), claim
            else:
                assert (status, note) == (old["status"], old["note"])
            if status == "fail" and recs:
                assert any(res.certified for _, res, _ in recs) or old["status"] == "fail"


class TestReportShape:
    KEYS = [
        "verify", "mode", "certificate", "certificate_recheck",
        "claims", "resource_capped", "ok",
    ]

    def check(self, rep, cert):
        assert list(rep) == self.KEYS
        assert rep["certificate"] == cert.to_json()

    def test_delta(self):
        self.check(verify_delta(n_abs_max=5), Certificate("delta", "paper_exact", [], [], []))

    @pytest.mark.parametrize(
        "verify, build, args, kwargs",
        [
            (verify_theorem27, build_theorem27, (LOG, 3), {}),
            (verify_theorem27, build_theorem27, (LOG, 3), {"variant": "continuous"}),
            (verify_theorem29_linf, build_theorem29_linf, (4,), {}),
            (
                verify_theorem29_lp,
                build_theorem29_lp,
                (F(2), F(3, 5), 3, "relaxed"),
                {"n1": 100, "growth_factor": 10},
            ),
        ],
        ids=["theorem27", "theorem27-cont", "theorem29-linf", "theorem29-lp"],
    )
    def test_constructions(self, verify, build, args, kwargs):
        self.check(verify(*args, **kwargs), build(*args, **kwargs)[1])


class TestDirac:
    def test_shape(self):
        sig = dirac()
        assert [(b.start, b.end) for b in sig.blocks] == [(0, 0)]
        assert norm_l1(sig) == 1


def pointwise_claim(sig, start: int, end: int, a: Fraction) -> tuple:
    """(mismatches, count) of the claim Mf(n) = a at radius 0, one
    event_centered query per point."""
    bad = 0
    for n in range(start, end + 1):
        res = event_centered(sig, n)
        if not (res.certified and res.radius == 0 and res.max_value == a):
            bad += 1
    return bad, max(0, end - start + 1)


def piece_claim(sig, start: int, end: int, a: Fraction) -> tuple:
    bad, count, gaps = _block_claim(sig, start, end, a, False, DEFAULT_LIMITS)
    assert gaps == []
    return bad, count


claim_blocks_st = st.lists(
    st.tuples(
        st.integers(0, 8),
        st.one_of(st.integers(1, 3), st.integers(4, 40)),  # one-point blocks often
        st.integers(1, 9),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=10,
)


class TestBlockClaimOnPieces:
    """The exhaustive block claim of verify_theorem27, decided on
    frequency_pieces, against one event_centered query per point."""

    @given(claim_blocks_st, st.sampled_from([0, 2**10000]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_pointwise_loop(self, spec, offset, data):
        blocks, pos = [], offset
        for gap, length, num, den in spec:  # gaps of 0..8, neighbours touch at 0
            pos += gap
            blocks.append(Block(pos, pos + length - 1, Fraction(num, den)))
            pos += length
        sig = BlockSignal(blocks)
        lo, hi = support_bounds(sig)
        start = data.draw(st.integers(lo - 12, hi + 12))
        end = data.draw(st.integers(start - 1, hi + 12))
        amps = sorted({b.amp for b in blocks})
        a = data.draw(st.sampled_from(amps + [Fraction(1, 7)]))
        assert piece_claim(sig, start, end, a) == pointwise_claim(sig, start, end, a)

    @pytest.mark.parametrize(
        "g, k, mode, n1, growth",
        [
            (LOG, 3, "paper_exact", None, None),
            (LOG, 4, "relaxed", 300, 2),
            (LOG, 3, "relaxed", 10, 2),
            (GrowthSpec("loglog"), 2, "relaxed", 20, 3),
        ],
        ids=["paper", "relaxed-partly-failing", "relaxed-small", "loglog-partly-failing"],
    )
    def test_construction_blocks_and_spans(self, g, k, mode, n1, growth):
        sig, cert = build_theorem27(g, k, mode, n1=n1, growth_factor=growth)
        amps = [Fraction(s) for s in cert.extras["a"]]
        ns, ls = cert.N, cert.L
        for j in range(k):
            start, end = ns[j] + 1, ns[j] + ls[j] - 1
            spans = [(start, end), (start - 3, end + 3)]  # the interior, then past both ends
            if j:  # from the previous block over the gap into this one
                spans.append((ns[j - 1] + 1, min(end, ns[j - 1] + 10**4)))
            for u, v in spans:
                if v - u < 10**4:
                    assert piece_claim(sig, u, v, amps[j]) == pointwise_claim(sig, u, v, amps[j])

    def test_failing_notes_unchanged(self):
        rep = verify_theorem27(LOG, 4, "relaxed", n1=300, growth_factor=2)
        notes = [c["note"] for c in rep["claims"] if c["name"].startswith("block_")]
        assert notes == [
            "all 52 points exact",
            "all 93 points exact",
            "all 169 points exact",
            "210 of 308 points mismatched",
        ]

    @pytest.mark.parametrize("a", [Fraction(2), Fraction(3), Fraction(1)])
    def test_radius_zero_across_block_edges(self, a):
        # r = 0 on one piece over 2, 3, 2: the runs of f inside it decide
        sig = BlockSignal([Block(n, n, Fraction(v)) for n, v in enumerate((2, 3, 2))])
        assert frequency_pieces(sig, 0, 2) == [(0, 2, 0, 0)]
        for u, v in ((0, 2), (1, 2), (0, 1), (-1, 3), (1, 1)):
            assert piece_claim(sig, u, v, a) == pointwise_claim(sig, u, v, a)

    def test_empty_interior(self):
        assert _block_claim(dirac(), 5, 4, Fraction(1), False, DEFAULT_LIMITS) == (0, 0, [])


class TestDeltaOnPieces:
    """verify_delta counts centered mismatches (r_n != |n|) from the pieces
    of frequency_pieces over [-n, n]."""

    @staticmethod
    def centered_mismatches(rep) -> int:
        note = next(c["note"] for c in rep["claims"] if c["name"] == "centered_profile_exact")
        return int(note.rsplit(", ", 1)[1].split()[0])

    @pytest.mark.parametrize("n_abs_max", [0, 1, 2, 7, 30])
    def test_equals_pointwise_loop(self, n_abs_max):
        sig = dirac()
        bad = sum(
            1
            for n in range(-n_abs_max, n_abs_max + 1)
            if not (
                (res := event_centered(sig, n)).certified
                and res.radius == abs(n)
                and res.max_value == Fraction(1, 2 * abs(n) + 1)
            )
        )
        rep = verify_delta(n_abs_max=n_abs_max)
        assert self.centered_mismatches(rep) == bad == 0

    @given(claim_blocks_st, st.integers(-30, 30), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_counts_radii_off_abs_n(self, spec, shift, n_abs_max):
        # pieces of another signal: the count is the number of points whose
        # radius is not |n|, as a per-point loop counts them
        blocks, pos = [], shift
        for gap, length, num, den in spec[:3]:
            pos += gap
            blocks.append(Block(pos, pos + length - 1, Fraction(num, den)))
            pos += length
        other = BlockSignal(blocks)
        want = sum(
            event_centered(other, n).radius != abs(n) for n in range(-n_abs_max, n_abs_max + 1)
        )
        original = hlmax.constructions.frequency_pieces
        hlmax.constructions.frequency_pieces = lambda _sig, a, b: frequency_pieces(other, a, b)
        try:
            rep = verify_delta(n_abs_max=n_abs_max)
        finally:
            hlmax.constructions.frequency_pieces = original
        assert self.centered_mismatches(rep) == want
