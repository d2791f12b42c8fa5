"""The four benchmark workloads: seeded inputs, op lists and references.

A workload draws every parameter of its op list from the seed once, in its
constructor.  `build()` turns those parameters into fresh program inputs;
the worker calls it once for set-up and again before every further pass,
so lazy caches that a user pays on every run (power-law prefix tables,
integer views) are paid inside the timed ops of every pass.

Each op is one call a user would make.  Its check compares the result
against a reference the engine under test did not produce; `pass_checks`
runs cheap cross-op references after every pass and `post_checks` runs the
brute-force oracles once, on the first pass, outside the timed window.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import hlmax
import hlmax.cli

import checks

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "goldens"


@dataclass
class Op:
    name: str
    fn: Callable[[], object]
    check: Callable[[object], list] = lambda result: []
    expect: Optional[type] = None  # exception type that is the expected outcome
    layer: str = "bench.op"  # root span name in a traced run
    tags: tuple = ()


@dataclass
class Rec:
    """Outcome of one op execution."""

    op: Op
    result: object
    ns: int
    msgs: list = field(default_factory=list)
    host: float = 1.0  # host factor around the op (hostspeed.py); 1 if not timed


def outcome(op: Op, result, exc: Optional[BaseException]) -> list:
    """Failure messages of one op: unexpected exceptions, missing expected
    refusals and reference mismatches."""
    if op.expect is not None:
        if isinstance(exc, op.expect):
            return []
        if exc is not None:
            return [f"{op.name}: raised {type(exc).__name__}: {exc}, expected {op.expect.__name__}"]
        return [f"{op.name}: returned, expected {op.expect.__name__}"]
    if exc is not None:
        return [f"{op.name}: raised {type(exc).__name__}: {exc}"]
    return [f"{op.name}: {m}" for m in op.check(result)]


class Workload:
    name = ""
    # highest percentile reported as op_tail_ms (lowered when a run has
    # fewer than ten samples beyond it)
    tail_cap = 90.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def build(self):
        raise NotImplementedError

    def ops(self, inputs) -> list:
        raise NotImplementedError

    def pass_checks(self, inputs, recs: list) -> list:
        """(op index, message) failures found across the ops of one pass."""
        return []

    def post_checks(self, inputs, recs: list) -> list:
        """(op index, message) failures found by brute-force oracles."""
        return []

    def close(self) -> None:
        pass


def _frac(pq) -> Fraction:
    return Fraction(pq[0], pq[1])


def _strata(rng: random.Random, count: int, lo: float, hi: float, m: int) -> list:
    """m indices in [0, count), one from each of m equal slices of the
    fraction window [lo, hi] of the index range."""
    out = []
    for j in range(m):
        a = int(count * (lo + (hi - lo) * j / m))
        b = max(a + 1, int(count * (lo + (hi - lo) * (j + 1) / m)))
        out.append(rng.randrange(a, min(b, count)))
    return out


# ---------------------------------------------------------------------------
# corpus: engine-vs-oracle diffs of many tiny dense signals
# ---------------------------------------------------------------------------

CORPUS_WIDTHS = (8, 16, 24, 32, 40, 48, 56, 64)
CORPUS_BINARY_WIDTH = 8
CORPUS_SAMPLE = 6  # signals re-checked point by point after the run


def dense_values(rng: random.Random, width: int, run_limited: bool) -> list:
    """Values num/den (num <= 16, den <= 16) drawn as hlmax.random_dense
    draws them, at a fixed width: runs of at most ceil(width/8) equal
    values, or independent values.  The end values are non-zero so the
    signal keeps its width."""
    if run_limited:
        vals: list = []
        while len(vals) < width:
            run = rng.randint(1, max(1, (width + 7) // 8))
            vals.extend([(rng.randint(0, 16), rng.randint(1, 16))] * run)
        del vals[width:]
    else:
        vals = [(rng.randint(0, 16), rng.randint(1, 16)) for _ in range(width)]
    for i in (0, -1):
        if vals[i][0] == 0:
            vals[i] = (rng.randint(1, 16), vals[i][1])
    return vals


class Corpus(Workload):
    name = "corpus"
    tail_cap = 99.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.random_specs = [
            (rng.randint(-128, 128), dense_values(rng, w, run_limited))
            for w in CORPUS_WIDTHS
            for run_limited in (True, False)
        ]
        count = len(self.random_specs) + 2 ** (CORPUS_BINARY_WIDTH - 1)
        self.order = list(range(count))
        rng.shuffle(self.order)
        self.sample = rng.sample(range(count), CORPUS_SAMPLE)
        self.sample_u = [[rng.random() for _ in range(4)] for _ in range(CORPUS_SAMPLE)]

    def build(self):
        sigs = [
            hlmax.DenseSignal(lo, [_frac(v) for v in vals]) for lo, vals in self.random_specs
        ]
        sigs.extend(hlmax.binary_signals(CORPUS_BINARY_WIDTH))
        return [sigs[i] for i in self.order]

    def ops(self, inputs):
        return [
            Op("diff_signal", partial(hlmax.diff_signal, sig), check=list)
            for sig in inputs
        ]

    def post_checks(self, inputs, recs):
        bad = []
        for i, us in zip(self.sample, self.sample_u):
            sig = inputs[i]
            lo, hi = hlmax.support_bounds(sig)
            width = hi - lo + 1
            n_lo, n_hi = lo - width, hi + width
            batch = hlmax.oracle_uncentered_range(sig, n_lo, n_hi)
            for u in us:
                n = n_lo + int(u * (n_hi - n_lo + 1))
                for m in checks.same_result(
                    hlmax.event_centered(sig, n), hlmax.oracle_centered(sig, n), "radius",
                    f"centered n={n}: ",
                ):
                    bad.append((i, m))
                for m in checks.same_result(
                    hlmax.event_uncentered(sig, n), batch[n - n_lo], "min_diameter",
                    f"uncentered n={n}: ",
                ):
                    bad.append((i, m))
        return bad


# ---------------------------------------------------------------------------
# blocks: few queries on prebuilt block signals and step functions, at
# offset 0 and at 2^10000
# ---------------------------------------------------------------------------

BIG = 2**10000
OFFSETS = (("o0", 0), ("at2p10000", BIG))
BLOCK_COUNTS = (50, 200, 800)
# points per block count: centered everywhere, uncentered where it costs
# under a few seconds per point today.  The centered counts put the median
# op in the middle of the 32 centered queries at B = 200 (2^10000) and
# B = 800 (offset 0), which cost about the same whatever the seed; with
# fewer of them the seed's points would move the median.
EC_POINTS = {50: 16, 200: 16, 800: 16}
EU_POINTS = {50: 12, 200: 1}
CC_POINTS = {50: 4, 200: 4}
CU_POINTS = {50: 4, 200: 1}
CU_ORACLE_POINTS = 2  # continuous uncentered points brute-forced at P = 50


def block_layout(rng: random.Random, count: int) -> list:
    """count blocks (start, end, num, den): lengths in 4..12, gaps in 3..12.

    With these minimums the event engines' candidate edges (each boundary
    and its two neighbours) never coincide, so a query's candidate count
    depends only on how many blocks lie on each side of it, not on the seed."""
    out = []
    pos = 0
    for _ in range(count):
        pos += rng.randint(3, 12)
        length = rng.randint(4, 12)
        out.append((pos, pos + length - 1, rng.randint(1, 16), rng.randint(1, 16)))
        pos += length
    return out


def step_layout(rng: random.Random, count: int) -> tuple:
    """count pieces: integer breakpoints 1..12 apart, values num/den with
    zero pieces allowed inside the support."""
    bps = [0]
    for _ in range(count):
        bps.append(bps[-1] + rng.randint(1, 12))
    vals = [(rng.randint(0, 16), rng.randint(1, 16)) for _ in range(count)]
    for i in (0, -1):
        if vals[i][0] == 0:
            vals[i] = (rng.randint(1, 16), vals[i][1])
    return bps, vals


def _ops_by_tag(recs: list) -> dict:
    return {rec.op.tags: i for i, rec in enumerate(recs)}


class Blocks(Workload):
    name = "blocks"
    # p90 falls among the uncentered queries at B = 50, offset 2^10000
    tail_cap = 90.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.block_specs = {b: block_layout(rng, b) for b in BLOCK_COUNTS}
        self.step_specs = {p: step_layout(rng, p) for p in CC_POINTS}

        def block_points(b, m, lo, hi):
            spec = self.block_specs[b]
            pts = []
            for idx in _strata(rng, b, lo, hi, m):
                end = spec[idx + 1][0] - 1 if idx + 1 < b else spec[idx][1]
                pts.append(rng.randint(spec[idx][0], end))
            return pts

        def step_points(p, m, lo, hi):
            bps = self.step_specs[p][0]
            return [
                Fraction(rng.randint(2 * bps[idx], 2 * bps[idx + 1]), 2)
                for idx in _strata(rng, p, lo, hi, m)
            ]

        # uncentered cost grows with (boundaries left of n) x (right of n),
        # so uncentered points sit in middle slices where each costs about
        # the same; the corpus workload covers the ends
        self.ec_points = {b: block_points(b, m, 0.0, 1.0) for b, m in EC_POINTS.items()}
        self.eu_points = {
            50: block_points(50, EU_POINTS[50], 0.35, 0.65),
            200: block_points(200, EU_POINTS[200], 0.4, 0.6),
        }
        self.cc_points = {p: step_points(p, m, 0.0, 1.0) for p, m in CC_POINTS.items()}
        self.cu_points = {
            50: step_points(50, CU_POINTS[50], 0.25, 0.75),
            200: step_points(200, CU_POINTS[200], 0.4, 0.6),
        }
        self.cu_oracle = rng.sample(range(CU_POINTS[50]), CU_ORACLE_POINTS)

    def build(self):
        sigs = {}
        steps = {}
        for b, spec in self.block_specs.items():
            for tag, off in OFFSETS:
                sigs[(b, tag)] = hlmax.BlockSignal(
                    [hlmax.Block(s + off, e + off, Fraction(p, q)) for s, e, p, q in spec]
                )
        for p, (bps, vals) in self.step_specs.items():
            for tag, off in OFFSETS:
                steps[(p, tag)] = hlmax.StepFunction(
                    [b + off for b in bps], [_frac(v) for v in vals]
                )
        return {"sigs": sigs, "steps": steps}

    def ops(self, inputs):
        out = []

        def certified(res):
            return [] if res.certified else ["not certified"]

        for kind, fn, table, store in (
            ("event_centered", hlmax.event_centered, self.ec_points, "sigs"),
            ("event_uncentered", hlmax.event_uncentered, self.eu_points, "sigs"),
            ("maximal_centered_cont", hlmax.maximal_centered_cont, self.cc_points, "steps"),
            ("maximal_uncentered_cont", hlmax.maximal_uncentered_cont, self.cu_points, "steps"),
        ):
            check = certified if store == "sigs" else (lambda res: [])
            for size, pts in table.items():
                for j, x in enumerate(pts):
                    for tag, off in OFFSETS:
                        sig = inputs[store][(size, tag)]
                        out.append(
                            Op(kind, partial(fn, sig, x + off), check=check,
                               tags=(kind, size, tag, j))
                        )
        return out

    def pass_checks(self, inputs, recs):
        """Each answer equals its translated twin's exactly."""
        bad = []
        index = _ops_by_tag(recs)
        for i, rec in enumerate(recs):
            kind, size, tag, j = rec.op.tags
            if tag != "o0":
                continue
            k = index[(kind, size, "at2p10000", j)]
            twin = recs[k]
            if rec.msgs or twin.msgs:
                continue  # already failed: raised or uncertified
            if kind.endswith("_cont"):
                msgs = checks.same_continuous(twin.result, rec.result, "twin: ")
            else:
                attr = "radius" if kind == "event_centered" else "min_diameter"
                msgs = checks.same_result(twin.result, rec.result, attr, "twin: ")
            bad.extend((k, m) for m in msgs)
        return bad

    def post_checks(self, inputs, recs):
        bad = []
        index = _ops_by_tag(recs)
        sigs, steps = inputs["sigs"], inputs["steps"]
        for b, pts in self.ec_points.items():
            for j, n in enumerate(pts):
                i = index[("event_centered", b, "o0", j)]
                want = hlmax.oracle_centered(sigs[(b, "o0")], n)
                bad.extend((i, m) for m in checks.same_result(recs[i].result, want, "radius", "oracle: "))
        for j, n in enumerate(self.eu_points[50]):
            i = index[("event_uncentered", 50, "o0", j)]
            want = hlmax.oracle_uncentered(sigs[(50, "o0")], n)
            bad.extend(
                (i, m) for m in checks.same_result(recs[i].result, want, "min_diameter", "oracle: ")
            )
        for p in (50, 200):
            f = steps[(p, "o0")]
            for j, x in enumerate(self.cc_points[p]):
                i = index[("maximal_centered_cont", p, "o0", j)]
                bad.extend(
                    (i, m) for m in checks.same_continuous(recs[i].result, grid_centered(f, x), "grid oracle: ")
                )
        f = steps[(50, "o0")]
        for j in self.cu_oracle:
            x = self.cu_points[50][j]
            i = index[("maximal_uncentered_cont", 50, "o0", j)]
            bad.extend(
                (i, m) for m in checks.same_continuous(recs[i].result, grid_uncentered(f, x), "grid oracle: ")
            )
        return bad


def grid_centered(f, x: Fraction):
    """Centered maximum of a step function with integer breakpoints at a
    half-integer x, by hlmax.grid_scan_centered on the half-integer radii.

    Every distance from x to a breakpoint is a multiple of 1/2, and between
    two such distances the average is monotone, so the grid holds the
    maximum over r > 0; the r -> 0 limit wins ties, as in the engine."""
    left, right = f.one_sided_limits(x)
    limit = (left + right) / 2
    r_max = max(abs(x - f.breakpoints[0]), abs(x - f.breakpoints[-1]))
    best, best_r = hlmax.grid_scan_centered(f, x, r_max, int(2 * r_max))
    if best > limit:
        return hlmax.ContinuousResult(x, best, best_r, True)
    return hlmax.ContinuousResult(x, limit, Fraction(0), True)


def grid_uncentered(f, x: Fraction):
    """Uncentered maximum at x over every interval with half-integer ends
    (a superset of the breakpoint candidates); vanishing intervals realize
    the larger one-sided limit and win ties, as in the engine."""
    lo, hi = f.breakpoints[0], f.breakpoints[-1]
    grid = [Fraction(k, 2) for k in range(int(2 * lo), int(2 * hi) + 1)]
    if x not in grid:
        grid = sorted(grid + [x])
    left = [t for t in grid if t <= x]
    right = [t for t in grid if t >= x]
    mass_to = {t: f.mass(lo, t) for t in grid}
    best = max(f.one_sided_limits(x))
    best_len = Fraction(0)
    for a in left:
        ma = mass_to[a]
        for b in right:
            if b <= a:
                continue
            avg = (mass_to[b] - ma) / (b - a)
            if avg > best:
                best, best_len = avg, b - a
            elif avg == best and best_len != 0 and b - a < best_len:
                best_len = b - a
    return hlmax.ContinuousResult(x, best, best_len / 2, True)


# ---------------------------------------------------------------------------
# powerlaw: relaxed theorem29-lp instances end to end, plus the paper scales
# ---------------------------------------------------------------------------

LP_K = 3
# (p, alpha, n1, growth factor), one group per alpha and scale geometry.
# The seed picks p within each group; p enters only the certificate, so
# every seed runs the same four signals, at about 3600 power-law terms each.
LP_GROUPS = (
    (("3", "1/2", 100, 10), ("5/2", "1/2", 100, 10), ("4", "1/2", 100, 10)),
    (("2", "3/5", 40, 16), ("3", "3/5", 40, 16), ("5/2", "3/5", 40, 16)),
    (("2", "2/3", 150, 8), ("5/2", "2/3", 150, 8), ("3", "2/3", 150, 8)),
    (("5/2", "3/4", 60, 13), ("3/2", "3/4", 60, 13), ("2", "3/4", 60, 13)),
)
LP_POOL = tuple(spec for group in LP_GROUPS for spec in group)
LP_POINTS = 4  # fixed query points inside the blocks, and as many right of them
LP_UNCENTERED = 2  # of each kind, also queried uncentered
LP_PAPER = ("2", "3/5", 2)  # paper-exact instance: every anchor is capped


def lp_key(spec) -> str:
    """Golden key of an instance: its signal, which does not depend on p."""
    _, alpha, n1, g = spec
    return f"alpha={alpha},n1={n1},g={g},k={LP_K}"


def lp_scales(n1: int, g: int, k: int) -> tuple:
    """(N_k, L_k, n_k) recomputed from the construction's formulas."""
    ns = [n1 * g**i for i in range(k)]
    ls = [n // 3 for n in ns]
    return ns, ls, [n + l + 1 for n, l in zip(ns, ls)]


def lp_candidate_points(spec) -> tuple:
    """Fixed query points of a pool instance, inside its blocks and just
    right of them; their goldens are frozen in powerlaw.json."""
    ns, ls, nks = lp_scales(spec[2], spec[3], LP_K)
    rng = random.Random(lp_key(spec))
    inside = [rng.randint(ns[k % LP_K] + 1, ns[k % LP_K] + ls[k % LP_K]) for k in range(LP_POINTS)]
    right = [nks[k % LP_K] + rng.randint(1, ls[k % LP_K]) for k in range(LP_POINTS)]
    return inside, right


def load_json(name: str) -> dict:
    with open(GOLDEN_DIR / name) as fh:
        return json.load(fh)


def _golden_interval(g) -> tuple:
    return hlmax.parse_rational(g["lo"]), hlmax.parse_rational(g["hi"])


def check_golden_centered(res, g, label="") -> list:
    msgs = []
    if res.radius != g["radius"]:
        msgs.append(f"{label}radius {res.radius} != golden {g['radius']}")
    if g["certified"] and not res.certified:
        msgs.append(f"{label}not certified, golden is")
    lo, hi = _golden_interval(g)
    return msgs + checks.enclosure_matches(res.max_value, lo, hi, label)


class Powerlaw(Workload):
    name = "powerlaw"
    tail_cap = 95.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        goldens = load_json("powerlaw.json")
        self.instances = []
        for group in LP_GROUPS:
            spec = rng.choice(group)
            gold = goldens[lp_key(spec)]
            self.instances.append(
                {
                    "spec": spec,
                    "anchor": gold["anchor"],
                    "points": gold["inside"] + gold["right"],
                    "uncentered": gold["inside"][:LP_UNCENTERED] + gold["right"][:LP_UNCENTERED],
                }
            )
        rng.shuffle(self.instances)

    def build(self):
        return [{} for _ in self.instances]

    def ops(self, inputs):
        out = []
        for inst, state in zip(self.instances, inputs):
            out.extend(self._instance_ops(inst, state))
        out.extend(self._paper_ops({}))
        return out

    def _instance_ops(self, inst, state):
        p_s, a_s, n1, g = inst["spec"]
        p, alpha = hlmax.parse_rational(p_s), hlmax.parse_rational(a_s)
        ns, ls, nks = lp_scales(n1, g, LP_K)

        def construct():
            state["sig"], state["cert"] = hlmax.build_theorem29_lp(
                p, alpha, LP_K, "relaxed", n1=n1, growth_factor=g
            )
            return state["cert"]

        def check_cert(cert):
            msgs = []
            if cert.N != ns or cert.L != ls:
                msgs.append(f"scales N={cert.N} L={cert.L}, expected N={ns} L={ls}")
            if cert.extras["verifiable_blocks"] != [True] * LP_K:
                msgs.append("a relaxed block is marked unverifiable")
            return msgs

        def centered(n):
            return hlmax.event_centered(state["sig"], n)

        def uncentered(n):
            return hlmax.event_uncentered(state["sig"], n)

        def anchor_check(k):
            def check(res):
                msgs = checks.claimed_radius(res, ls[k], f"n_{k + 1}: ")
                if k == 0:
                    msgs += check_golden_centered(res, inst["anchor"], "oracle golden: ")
                return msgs

            return check

        def verify():
            return hlmax.verify_theorem29_lp(p, alpha, LP_K, "relaxed", n1=n1, growth_factor=g)

        def check_report(rep):
            msgs = [] if rep["ok"] else ["verify report not ok"]
            if not rep["certificate_recheck"]["ok"]:
                msgs.append("certificate recheck failed")
            msgs += [f"claim {c['name']}: {c['status']}" for c in rep["claims"] if c["status"] != "pass"]
            return msgs

        ops = [Op("build_theorem29_lp", construct, check=check_cert)]
        for k in range(LP_K):
            ops.append(Op("event_centered", partial(centered, nks[k]), check=anchor_check(k),
                          tags=("anchor", k + 1)))
        for gp in inst["points"]:
            n = hlmax.parse_int(gp["n"])
            ops.append(Op("event_centered", partial(centered, n),
                          check=partial(check_golden_centered, g=gp, label="oracle golden: ")))
        for gp in inst["uncentered"]:
            lo, _ = _golden_interval(gp)

            def check_unc(res, lo=lo):
                return ([] if res.certified else ["not certified"]) + checks.at_least(
                    res.max_value, lo, "centered golden: "
                )

            ops.append(Op("event_uncentered", partial(uncentered, hlmax.parse_int(gp["n"])),
                          check=check_unc))
        ops.append(Op("verify_theorem29_lp", verify, check=check_report))
        return ops

    def _paper_ops(self, state):
        p, alpha = (hlmax.parse_rational(s) for s in LP_PAPER[:2])
        k = LP_PAPER[2]
        e = Fraction(10) / (1 - alpha)
        n1 = 2 ** -((-e.numerator) // e.denominator)
        ns = [n1]
        for _ in range(k - 1):
            ns.append(ns[-1] ** 10)
        ls = [n // 3 for n in ns]

        def construct():
            state["sig"], state["cert"] = hlmax.build_theorem29_lp(p, alpha, k, "paper_exact")
            return state["cert"]

        def check_cert(cert):
            msgs = []
            if cert.N != ns or cert.L != ls:
                msgs.append("paper scales differ from N_1 = 2^ceil(10/(1-alpha)), N_k+1 = N_k^10")
            if any(cert.extras["verifiable_blocks"]):
                msgs.append("a paper block over the summation cap is marked verifiable")
            return msgs

        def check_capped(rep):
            msgs = [] if rep["resource_capped"] and not rep["ok"] else ["paper verify not capped"]
            if not rep["certificate_recheck"]["ok"]:
                msgs.append("certificate recheck failed")
            msgs += [f"claim {c['name']}: {c['status']}" for c in rep["claims"] if c["status"] != "unverifiable"]
            return msgs

        return [
            Op("build_theorem29_lp", construct, check=check_cert),
            Op("event_centered", lambda: hlmax.event_centered(state["sig"], ns[0] + ls[0] + 1),
               expect=hlmax.PowerLawRangeTooLarge),
            Op("verify_theorem29_lp", lambda: hlmax.verify_theorem29_lp(p, alpha, k), check=check_capped),
        ]


# ---------------------------------------------------------------------------
# cli: the README pipeline through hlmax.cli.main, files compared to goldens
# ---------------------------------------------------------------------------

LINF = [2 ** (10**i) for i in range(5)]  # theorem29-linf anchors N_1..N_5


def _profile_variants() -> list:
    rng = random.Random("profile-variants")
    t27_starts = (-400, -100, 0, 100, 21800, 22100, 23800, 24100)
    ranges = [
        [(["profile", "--signal", "t27.json", "--range", f"{a}..{a + 999}", "--out", "range.csv"],
          ["range.csv"])]
        for a in t27_starts
    ]
    unc = [
        [(["profile", "--signal", "t27.json", "--points",
           ",".join(str(rng.randint(-30000, 30000)) for _ in range(6)),
           "--uncentered", "--out", "unc.csv"], ["unc.csv"])]
        for _ in range(8)
    ]
    linf = []
    for _ in range(8):
        pts = [LINF[k] + d for k in (2, 3, 4) for d in (rng.randint(-5, 5), rng.randint(1, 9))]
        linf.append([(["profile", "--signal", "linf.json", "--points",
                       ",".join(str(x) for x in pts), "--out", "linf.csv"], ["linf.csv"])])
    return ranges, unc, linf


def cli_slots() -> list:
    """(slot, variants); a variant is a list of (argv, output files).  The
    seed picks one variant per slot; every variant has a frozen golden.
    The variants of a slot cost about the same, so every seed runs about
    the same mix of op costs."""
    lp = []
    for p, alpha, n1, g in (("2", "3/5", 100, 10), ("3", "3/5", 40, 16),
                            ("5/2", "3/5", 150, 8), ("4", "3/5", 60, 13)):
        nks = lp_scales(n1, g, LP_K)[2]
        lp.append([
            (["construct", "theorem29-lp", "--p", p, "--alpha", alpha, "--mode", "relaxed",
              "--n1", str(n1), "--growth-factor", str(g), "--k", str(LP_K),
              "--out", "lp.json", "--cert", "lp.cert.json"], ["lp.json", "lp.cert.json"]),
            (["profile", "--signal", "lp.json", "--points", ",".join(str(n) for n in nks),
              "--out", "lp.csv"], ["lp.csv"]),
        ])
    ranges, unc, linf = _profile_variants()
    return [
        ("construct-t27", [[(["construct", "theorem27", "--g", "log", "--k", "4", "--out",
                              "t27.json", "--cert", "t27.cert.json"], ["t27.json", "t27.cert.json"])]]),
        ("construct-linf", [[(["construct", "theorem29-linf", "--k", "5", "--out", "linf.json",
                               "--cert", "linf.cert.json"], ["linf.json", "linf.cert.json"])]]),
        ("construct-delta", [[(["construct", "delta", "--out", "delta.json"], ["delta.json"])]]),
        ("construct-t27c", [
            [(["construct", "theorem27", "--g", *g, "--k", "3", "--variant", "continuous",
               "--out", "t27c.json", "--cert", "t27c.cert.json"], ["t27c.json", "t27c.cert.json"])]
            for g in (["power", "1/3"], ["power", "1/2"], ["power", "2/5"], ["power", "1/4"])
        ]),
        ("lp", lp),
        ("profile-range", ranges),
        ("profile-uncentered", unc),
        ("profile-linf", linf),
        ("density-sweep", [
            [(["density", "--signal", "t27.json", "--N-list", "200,2000,20000,200000",
               "--C", c, "--epsilon", eps, "--g", "log", "--out", "sweep.csv"], ["sweep.csv"])]
            for c, eps in (("2", "1/10"), ("3", "1/10"), ("2", "1/5"), ("5/2", "1/8"))
        ]),
        ("density-uncentered", [
            [(["density", "--signal", "t27.json", "--N-list", f"{a},200", "--uncentered",
               "--out", "dunc.csv"], ["dunc.csv"])]
            for a in (20, 50, 100, 150)
        ]),
        ("verify-delta", [[(["verify", "delta", "--report", "vdelta.json"], ["vdelta.json"])]]),
        ("verify-t27", [[(["verify", "theorem27", "--g", "log", "--k", "4", "--report",
                           "vt27.json"], ["vt27.json"])]]),
        ("verify-linf", [[(["verify", "theorem29-linf", "--k", "5", "--report", "vlinf.json"],
                           ["vlinf.json"])]]),
        # paper scales exceed the summation cap: exit 3 is the expected refusal
        ("verify-lp-paper", [[(["verify", "theorem29-lp", "--p", "2", "--alpha", "3/5", "--k",
                                "2", "--report", "vlp.json"], ["vlp.json"])]]),
        ("oracle-diff", [
            [(["oracle-diff", "--trials", "100", "--max-width", "12", "--seed", str(s)], [])]
            for s in range(1, 9)
        ]),
    ]


# range sweeps run several times per pass, so the median op is a sweep of
# 1000 points whatever variants the seed picks elsewhere
CLI_REPEAT = {"profile-range": 9}


def golden_key(slot: str, variant: int, cmd: int) -> str:
    return f"{slot}/{variant}/{cmd}"


def run_cli(argv: list) -> tuple:
    """hlmax.cli.main in-process; (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = hlmax.cli.main(list(argv))
    return rc, out.getvalue()


def read_outputs(directory: Path, names: list) -> dict:
    files = {}
    for name in names:
        path = directory / name
        files[name] = path.read_bytes() if path.exists() else None
    return files


class Cli(Workload):
    name = "cli"
    tail_cap = 75.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        goldens = load_json("cli.json")
        self.commands = []
        for slot, variants in cli_slots():
            for _ in range(CLI_REPEAT.get(slot, 1)):
                v = rng.randrange(len(variants))
                for c, (argv, outputs) in enumerate(variants[v]):
                    self.commands.append((argv, outputs, goldens[golden_key(slot, v, c)]))
        self.passes = 0
        self.home = os.getcwd()

    def build(self):
        self.passes += 1
        directory = self.workdir / f"pass{self.passes}"
        directory.mkdir(parents=True)
        os.chdir(directory)  # the CLI writes its outputs to relative paths
        return directory

    def ops(self, inputs):
        out = []
        for argv, outputs, want in self.commands:
            def check(result, outputs=outputs, want=want, argv=argv):
                if want["argv"] != argv:
                    return ["command differs from the golden's; refreeze goldens"]
                rc, stdout = result
                return checks.cli_outputs(rc, stdout, read_outputs(inputs, outputs), want)

            out.append(Op(f"cli {argv[0]}", partial(run_cli, argv), check=check,
                          layer=f"cli.{argv[0]}"))
        return out

    def close(self):
        os.chdir(self.home)
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Corpus, Blocks, Powerlaw, Cli)}
