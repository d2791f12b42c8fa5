"""Acceptance gate: one test per shipped claim, each timed against its budget.

Every criterion is exercised end to end through the public API, with exact
rational assertions (tolerances appear only where a criterion itself states
one).  Each test prints a single ``ACCEPTANCE <k>: PASS`` line on success
(visible under ``pytest -s`` / ``-rA``); under ``pytest -v`` the per-test
PASSED/FAILED row is the one-line verdict.  Golden values asserted here were
frozen from independent oracles (brute-force radius scans, closed-form
counting) before the engines were trusted with them.
"""

import random
import time
from fractions import Fraction as F

import pytest

from hlmax import (
    Block,
    BlockSignal,
    DenseSignal,
    DichotomyClass,
    GrowthSpec,
    StepFunction,
    binary_signals,
    build_theorem27,
    build_theorem29_linf,
    build_theorem29_lp,
    classify,
    density_series,
    diff_signal,
    dirac,
    event_centered,
    event_uncentered,
    grid_scan_centered,
    maximal_centered_cont,
    maximal_uncentered_cont,
    norm_l1,
    oracle_centered,
    parse_int,
    parse_rational,
    profile,
    random_dense,
    recheck_certificate,
    reflect,
    scale,
    support_bounds,
    translate,
    verify_theorem27,
    verify_theorem29_lp,
)

CORPUS_SEED = 20260818


def _report(num: int, label: str, elapsed: float, budget: float = None) -> None:
    tail = f" [{elapsed:.2f}s < {budget:.0f}s budget]" if budget else f" [{elapsed:.2f}s]"
    print(f"ACCEPTANCE {num}: PASS - {label}{tail}")


@pytest.fixture(scope="module")
def corpus():
    """The oracle corpus: 500 seeded random dense signals (support width
    <= 64, numerators/denominators <= 16) plus every 0/1 signal of width
    <= 12 (2048 signals up to leading/trailing-zero normalisation)."""
    rng = random.Random(CORPUS_SEED)
    randoms = [random_dense(rng) for _ in range(500)]
    binaries = list(binary_signals(12))
    assert len(binaries) == 2048
    return randoms + binaries


def test_criterion_1_dirac_frequency_profile():
    """Dirac mass at 0: r_n = |n|, Mf(n) = 1/(2|n|+1), min_diameter = |n|
    for every |n| <= 1000, all exact."""
    t0 = time.perf_counter()
    sig = dirac()
    points = range(-1000, 1001)
    for res in profile(sig, points):
        n = abs(res.n)
        assert res.certified
        assert res.radius == n
        assert res.max_value == F(1, 2 * n + 1)
    for res in profile(sig, points, uncentered=True):
        n = abs(res.n)
        assert res.certified
        assert res.min_diameter == n
        assert res.max_value == F(1, n + 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "dirac profile exact over |n| <= 1000", elapsed, 1.0)


def test_criterion_2_log_growth_construction():
    """Log-growth block construction (theorem27, k_max = 4, paper_exact):
    the maximal value on every realized block is (a_k, radius 0); the
    certificate inequalities re-check; the zero-set density row at
    N_4 + L_4 has an enclosure lower bound above 1/2, with the exact count
    frozen from the independent closed-form count sum(L_k - 1)."""
    t0 = time.perf_counter()
    g = GrowthSpec("log")
    sig, cert = build_theorem27(g, k_max=4, mode="paper_exact")

    # Frozen scale goldens (selected by an independent doubling/bisection
    # oracle over the growth predicate before the builder existed; the
    # builder now takes N_k = max(lower, ceil(e^c)) from the inverse of g
    # and certifies it by the predicate at N_k and N_k - 1).
    assert cert.N == [13, 149, 22027, 485165196]
    assert cert.L == [6, 30, 2203, 24258260]
    amps = [parse_rational(s) for s in cert.extras["a"]]
    assert amps == [F(1, 10), F(1, 116), F(1, 17616), F(1, 388132144)]

    # (a_k, 0) at every point of every block small enough to sweep
    # exhaustively (k = 1..3), and on a 64-point sample of the 2.4e7-point
    # block k = 4; the structural dominance certificate inside the verify
    # report covers the remaining points exactly.
    for k in (1, 2, 3):
        a_k = amps[k - 1]
        lo, hi = cert.N[k - 1] + 1, cert.N[k - 1] + cert.L[k - 1] - 1
        for n in range(lo, hi + 1):
            res = event_centered(sig, n)
            assert res.certified
            assert (res.max_value, res.radius) == (a_k, 0)
    lo4, hi4 = cert.N[3] + 1, cert.N[3] + cert.L[3] - 1
    stride = max(1, (hi4 - lo4) // 63)
    sample = sorted(set(range(lo4, hi4 + 1, stride)) | {lo4, hi4})
    for n in sample:
        res = event_centered(sig, n)
        assert res.certified
        assert (res.max_value, res.radius) == (amps[3], 0)

    ok, notes = recheck_certificate(cert.to_json())
    assert ok, notes

    rep = verify_theorem27(g, k_max=4)
    assert rep["ok"] and not rep["resource_capped"]

    # Independent counting oracle: every block point has radius 0 and no
    # point outside a block does, so count_Z = sum(L_k - 1) arithmetic.
    golden_count_z = sum(l - 1 for l in [6, 30, 2203, 24258260])
    assert golden_count_z == 24260495
    n_top = cert.N[-1] + cert.L[-1]
    row = density_series(sig, [n_top], C=F(2), g=g)[0]
    assert row.flags == "structural"
    assert row.count_Z == golden_count_z
    enc = row.ratio_Z_over_NoverG
    assert enc.lo > 0.5

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        2,
        f"theorem27 blocks exact, recheck ok, zero-set ratio > 1/2 "
        f"(count_Z = {golden_count_z})",
        elapsed,
        10.0,
    )


def test_criterion_3_linf_big_integer_scales():
    """Bounded-amplitude construction (theorem29-linf, k_max = 5, scales up
    to N_5 = 2^10000): the minimal maximizing radius at N_k equals L_k
    exactly for k = 2, 3, 4, and at k = 4 the ratio r/N_4 is within 10^-3
    of 1/3 (exact deviation 1/(3*2^1000))."""
    t0 = time.perf_counter()
    sig, cert = build_theorem29_linf(k_max=5)
    assert cert.N == [2, 2**10, 2**100, 2**1000, 2**10000]
    assert cert.L[1] == 341
    assert cert.extras["K"] == 2
    assert cert.extras["claim_ks"] == [2, 3, 4]

    for k in (2, 3, 4):
        n_k, l_k = cert.N[k - 1], cert.L[k - 1]
        res = event_centered(sig, n_k)
        assert res.certified
        assert res.radius == l_k
        ratio = F(res.radius, n_k)
        assert F(1, 4) <= ratio <= F(3, 4)
        if k == 4:
            dev = abs(ratio - F(1, 3))
            assert dev == F(1, 3 * 2**1000)
            assert dev <= F(1, 1000)

    ok, notes = recheck_certificate(cert.to_json())
    assert ok, notes
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, "linf radii r_{N_k} = L_k exact at 2^10, 2^100, 2^1000", elapsed, 30.0)


def test_criterion_4_lp_relaxed_with_oracle_golden():
    """Power-law-amplitude construction (theorem29-lp).  The published
    constants (N_1 = 2^25 for p = 2, alpha = 3/5) are NOT desk-reproducible:
    L_1 = 11184810 exceeds the 10^7 power-law summation cap, so every block
    is flagged unverifiable and this test asserts that refusal.  The relaxed
    instance (n1 = 100, growth factor 10) is then verified in full, with the
    smallest-scale radius golden frozen from the brute-force oracle first."""
    t0 = time.perf_counter()
    p, alpha = F(2), F(3, 5)

    _, cert_paper = build_theorem29_lp(p=p, alpha=alpha, mode="paper_exact", k_max=4)
    assert cert_paper.L[0] == 11184810 > 10**7
    assert cert_paper.extras["verifiable_blocks"] == [False, False, False, False]
    print(
        "criterion 4 note: paper_exact lp scales are not desk-reproducible "
        "(L_1 = 11184810 exceeds the 10^7 summation cap); asserting the "
        "refusal and verifying the relaxed instance instead"
    )

    sig, cert = build_theorem29_lp(
        p=p, alpha=alpha, mode="relaxed", n1=100, growth_factor=10, k_max=4
    )
    assert cert.extras["verifiable_blocks"] == [True, True, True, True]
    nks = [parse_int(s) for s in cert.extras["n_k"]]
    assert nks == [134, 1334, 13334, 133334]
    assert cert.L == [33, 333, 3333, 33333]

    # Oracle first: brute-force radius scan at the smallest anchor.
    oc = oracle_centered(sig, nks[0])
    assert oc.radius == 33  # frozen golden
    for n_k, l_k in zip(nks, cert.L):
        res = event_centered(sig, n_k)
        assert res.certified
        assert res.radius == l_k
    assert event_centered(sig, nks[0]).radius == oc.radius

    ratio = F(event_centered(sig, nks[-1]).radius, nks[-1])
    assert F(1, 8) <= ratio <= F(7, 8)
    dev = abs(ratio - F(1, 4))
    assert dev == F(1, 266668)  # ~3.75e-6
    assert dev <= F(1, 50)

    rep = verify_theorem29_lp(p=p, alpha=alpha, k_max=4, mode="relaxed", n1=100, growth_factor=10)
    assert rep["ok"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, "lp paper refusal stated; relaxed radii = L_k with oracle golden 33", elapsed, 60.0)


def test_criterion_5_oracle_equivalence(corpus):
    """Event engines agree exactly with the brute-force oracles on
    (max value, minimal radius / minimal diameter) for every point within
    one support width of every corpus signal."""
    t0 = time.perf_counter()
    mismatches = []
    for sig in corpus:
        mismatches.extend(diff_signal(sig))
    assert mismatches == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        5,
        f"engines == oracles on {len(corpus)} signals (500 random + 2048 binary), "
        "0 mismatches",
        elapsed,
        60.0,
    )


def test_criterion_6_compact_support_dichotomy(corpus):
    """For support inside [-a, a], every |n| > a satisfies the exact
    sandwich |n| - a <= r_n <= |n| + a and |n| - a <= min_diameter
    <= |n| + a; classification with epsilon = 1/4 is NEAR_ONE (centered)
    resp. NEAR_HALF (uncentered) for all |n| >= 8a."""
    t0 = time.perf_counter()
    checked = 0
    for sig in corpus:
        lo, hi = support_bounds(sig)
        width = hi - lo + 1
        a = max(abs(lo), abs(hi))
        base = max(a, 1)
        near = [n for n in range(lo - width, hi + width + 1) if abs(n) > a]
        far = []
        for m in (8 * base, 8 * base + 1, 16 * base + 5):
            far.extend((m, -m))
        for n in near + far:
            ev = event_centered(sig, n)
            eu = event_uncentered(sig, n)
            assert ev.certified and eu.certified
            assert abs(n) - a <= ev.radius <= abs(n) + a
            assert abs(n) - a <= eu.min_diameter <= abs(n) + a
            checked += 1
        for n in far:
            assert classify(event_centered(sig, n), epsilon=F(1, 4)) is DichotomyClass.NEAR_ONE
            assert classify(event_uncentered(sig, n), epsilon=F(1, 4)) is DichotomyClass.NEAR_HALF
    elapsed = time.perf_counter() - t0
    _report(6, f"compact-support sandwich + dichotomy exact at {checked} points", elapsed)


def _random_lattice_step(rng: random.Random) -> StepFunction:
    """Step function with breakpoints and values on the 1/8-lattice inside
    [-1, 1]: every candidate radius is then a multiple of 1/8, which the
    2^-12 grid contains exactly."""
    pts = sorted(rng.sample(range(-8, 9), rng.randint(2, 5)))
    bps = [F(p, 8) for p in pts]
    vals = [F(rng.randint(1, 16), 8) for _ in range(len(bps) - 1)]
    return StepFunction(bps, vals)


def test_criterion_7_continuous_engine_and_grid():
    """Indicator of (-1, 1): centered maximal value at x = 2 is (1/3,
    radius 3, attained) and uncentered (2/3, half-diameter 3/2, attained),
    re-derived on a fine grid before asserting the engine; for 20 random
    step functions the 10^4-point grid supremum never exceeds the engine
    maximum and the gap at grid step 2^-12 is <= 10^-3."""
    t0 = time.perf_counter()
    box = StepFunction([F(-1), F(1)], [F(1)])

    # Grid re-derivation first (10^4 radii, grid contains r = 3 exactly).
    grid_val, grid_rad = grid_scan_centered(box, F(2), F(4), 10_000)
    assert (grid_val, grid_rad) == (F(1, 3), F(3))
    res_c = maximal_centered_cont(box, F(2))
    assert (res_c.max_value, res_c.radius, res_c.attained) == (F(1, 3), F(3), True)
    # Uncentered golden by closed form: the hull [-1, 2] has mass 2 over
    # length 3, and no shorter interval containing 2 does better.
    res_u = maximal_uncentered_cont(box, F(2))
    assert (res_u.max_value, res_u.radius, res_u.attained) == (F(2, 3), F(3, 2), True)

    rng = random.Random(CORPUS_SEED + 7)
    step = F(1, 2**12)
    r_max = 10_000 * step
    for _ in range(20):
        f = _random_lattice_step(rng)
        x = F(rng.randint(-8, 8), 8)
        engine = maximal_centered_cont(f, x)
        grid_best, _ = grid_scan_centered(f, x, r_max, 10_000)
        assert grid_best <= engine.max_value
        gap = engine.max_value - grid_best
        assert gap <= F(1, 1000)
        assert gap == 0  # lattice design: the grid contains a maximizer
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, "continuous goldens exact; grid sup <= engine with zero gap", elapsed, 30.0)


def test_criterion_8_invariance_suite(corpus):
    """Exact invariances over the corpus: positive scaling preserves the
    minimizing radius/diameter and scales the value; translation and
    reflection commute with both engines; uncentered >= centered; the
    diameter bound min_diameter <= 2 r_n holds whenever the uncentered and
    centered maxima coincide (its unconditional form is false — witnessed
    below); and Mf(n) >= ||f||_1/(2R+1) for the support-covering radius R."""
    t0 = time.perf_counter()

    # Witness that the unconditional diameter bound fails, so the suite
    # asserts the conditional form: for f = [1, 2] at n = 0 the centered
    # maximum 1 is attained at radius 0 while the window [0, 1] averages
    # 3/2 over diameter 1 > 2*0.
    wit = DenseSignal(0, [F(1), F(2)])
    wc, wu = event_centered(wit, 0), event_uncentered(wit, 0)
    assert (wc.max_value, wc.radius) == (F(1), 0)
    assert (wu.max_value, wu.min_diameter) == (F(3, 2), 1)
    assert wu.min_diameter > 2 * wc.radius
    print(
        "criterion 8 note: the unconditional bound min_diameter <= 2 r_n is "
        "false (f = [1, 2] at n = 0 gives diameter 1 > 0); the suite asserts "
        "it in the conditional form 'when the two maxima coincide'"
    )

    c = F(5, 7)
    for sig in corpus:
        lo, hi = support_bounds(sig)
        width = hi - lo + 1
        norm = norm_l1(sig)
        scaled = scale(sig, c)
        shifted = translate(sig, 13)
        mirrored = reflect(sig)
        probe = sorted({lo - width, lo - 1, lo, (lo + hi) // 2, hi, hi + 1, hi + width})
        for n in range(lo - width, hi + width + 1):
            ev = event_centered(sig, n)
            eu = event_uncentered(sig, n)
            assert eu.max_value >= ev.max_value
            if eu.max_value == ev.max_value:
                assert eu.min_diameter <= 2 * ev.radius
            r_cover = max(abs(n - lo), abs(hi - n))
            assert ev.max_value >= norm / (2 * r_cover + 1)
            if n in probe:
                es = event_centered(scaled, n)
                assert (es.max_value, es.radius) == (c * ev.max_value, ev.radius)
                us = event_uncentered(scaled, n)
                assert (us.max_value, us.min_diameter) == (c * eu.max_value, eu.min_diameter)
                et = event_centered(shifted, n + 13)
                assert (et.max_value, et.radius) == (ev.max_value, ev.radius)
                ut = event_uncentered(shifted, n + 13)
                assert (ut.max_value, ut.min_diameter) == (eu.max_value, eu.min_diameter)
                er = event_centered(mirrored, -n)
                assert (er.max_value, er.radius) == (ev.max_value, ev.radius)
                ur = event_uncentered(mirrored, -n)
                assert (ur.max_value, ur.min_diameter) == (eu.max_value, eu.min_diameter)
    elapsed = time.perf_counter() - t0
    _report(8, f"invariance suite exact over {len(corpus)} signals", elapsed)


def test_criterion_9_dirac_density_sanity():
    """Dirac mass with C = 2: the pinched-ratio count is 0 at every
    N <= 10^4 (the count is nondecreasing in N, so N = 10^4 covers all
    smaller N; sampled N values are asserted directly) and the near-one
    ratio equals 1 exactly."""
    t0 = time.perf_counter()
    sig = dirac()
    n_list = [1, 10, 100, 1000, 10_000]
    rows = density_series(sig, n_list, C=F(2))
    for row in rows:
        assert row.flags == ""  # exact pointwise row
        assert row.count_S == 0
        assert row.count_near1 == 2 * row.N
        assert row.ratio_near1_over_2N == 1
    elapsed = time.perf_counter() - t0
    _report(9, "dirac density: count_S = 0 through 10^4, near-one ratio = 1", elapsed)
