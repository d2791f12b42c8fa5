"""Generators for the counterexample signals, with machine-checked parameters.

Three families:

* build_theorem27: sparse constant blocks I_k with amplitude a_k chosen so
  the maximal function equals the signal on every block (each point has
  minimal maximizing radius 0), making the zero set of the frequency
  function dense at scale N/g(N) for a prescribed slowly growing g.
* build_theorem29_linf: sparse indicator blocks of length about N_k/3 whose
  frequency function at the left anchors N_k equals L_k exactly, with ratio
  r/N near 1/3, at scales up to 2^10000.
* build_theorem29_lp: power-law decorated blocks n^(-alpha) with the claimed
  minimal radius L_k at probe points n_k just right of each block, ratio
  near 1/4.

Every build returns (signal, Certificate); the certificate stores the chosen
scales and a per-inequality verdict list.  Each theorem's inequalities are
stated once, in one generator of (name, holds, note) triples
(_conditions27, _conditions29_linf, _conditions29_lp): the build records
its verdicts, and recheck_certificate runs the same generator on the stored
numbers alone and compares.  The verify_* functions run the event engines
against the construction's claims and return report dicts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .analysis import density_series, dominance_holds
from .config import DEFAULT_LIMITS, Limits
from .errors import (
    GrowthSpecInvalid,
    InfeasibleConstraint,
    ParameterViolation,
    PowerLawRangeTooLarge,
)
from .maxengine import event_centered, event_uncentered, frequency_pieces
from .signal import Block, BlockSignal, PowerLaw, norm_l1
from .continuum import StepFunction, maximal_centered_cont
from .values import (
    Ordering,
    Value,
    compare,
    escalate,
    exact_bounds,
    exp_of_value,
    int_brief,
    int_str,
    iroot,
    json_field,
    json_int,
    json_rational,
    ln_of_value,
    ln_value,
    parse_int,
    parse_rational,
    pow_of_value,
    rational_str,
    value_str,
)

_GROWTH_KINDS = ("log", "loglog", "logpow", "power")
_EXACT_POW_BITS = 8_000_000
_MAX_DOUBLINGS = 20_000
_POINTWISE_CAP = 10_000  # verify_theorem27 samples a longer dominant block
_SAMPLE_PER_BLOCK = 64  # at this many points


@dataclass(frozen=True)
class GrowthSpec:
    """Non-decreasing, unbounded growth function g evaluated at big integers.

    kinds: log (ln N), loglog (ln ln N), logpow ((ln N)^beta, beta in (0,1]),
    power (N^beta, beta in (0,1)).  Each has g(N) < N at every N >= 2."""

    kind: str
    beta: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in _GROWTH_KINDS:
            raise GrowthSpecInvalid(f"unknown growth kind {self.kind!r}")
        if self.kind == "logpow":
            if self.beta is None or not (0 < self.beta <= 1):
                raise GrowthSpecInvalid("logpow needs beta in (0, 1]")
        elif self.kind == "power":
            if self.beta is None or not (0 < self.beta < 1):
                raise GrowthSpecInvalid("power needs beta in (0, 1)")
        elif self.beta is not None:
            raise GrowthSpecInvalid(f"{self.kind} takes no beta")

    def value_at(self, n: int, limits: Limits = DEFAULT_LIMITS) -> Value:
        """g(N) as a certified Value; exact for rational powers."""
        if n < 2:
            raise GrowthSpecInvalid("growth functions are evaluated at N >= 2")
        prec = limits.precision
        if self.kind == "log":
            return ln_value(n, prec)
        if self.kind == "loglog":
            return ln_of_value(ln_value(n, prec), prec)
        if self.kind == "logpow":
            return pow_of_value(ln_value(n, prec), self.beta, prec)
        p, q = self.beta.numerator, self.beta.denominator  # power
        if p * n.bit_length() <= _EXACT_POW_BITS:
            np_ = n**p
            r = iroot(np_, q)
            if r**q == np_:
                return Fraction(r)
        return pow_of_value(Fraction(n), self.beta, prec)

    def cmp_at(self, n: int, c: Fraction, limits: Limits = DEFAULT_LIMITS) -> Ordering:
        """Certified ordering of g(N) against a rational c; exact integer
        cross-powers for the power kind.  Else the working precision times
        1, 2, 4, then doubling up to about 4 * (bitlen(N) + 64) bits: enough
        for g at N_k and N_k - 1 against the target, which certify each N_k
        found from the inverse of g, while a comparison far from its
        threshold stays cheap."""
        if self.kind == "power":
            p, q = self.beta.numerator, self.beta.denominator
            if p * n.bit_length() <= _EXACT_POW_BITS:
                if c <= 0:
                    return Ordering.GREATER
                lhs = n**p * c.denominator**q
                rhs = c.numerator**q
                if lhs > rhs:
                    return Ordering.GREATER
                return Ordering.EQUAL if lhs == rhs else Ordering.LESS

        def attempt(lim: Limits) -> Optional[Ordering]:
            o = compare(self.value_at(n, lim), c)
            return None if o is Ordering.INDETERMINATE else o

        o = escalate(limits, attempt, 4 * (n.bit_length() + 64))
        if o is not None:
            return o
        raise InfeasibleConstraint(
            f"cannot certify g({int_brief(n)}) against {c} at escalated precision"
        )

    def ceil_n_over_g(self, n: int, limits: Limits = DEFAULT_LIMITS) -> int:
        """ceil(N / g(N)) as a certified integer.  Pinning it takes g(N) to
        about bitlen(N) bits, so the ladder starts at bitlen(N) + 64 bits
        when that exceeds the working precision."""
        if self.kind == "power":
            p, q = self.beta.numerator, self.beta.denominator
            if (q - p) * n.bit_length() <= _EXACT_POW_BITS:
                base = n ** (q - p)
                r = iroot(base, q)
                return r if r**q == base else r + 1

        def attempt(lim: Limits) -> Optional[int]:
            glo, ghi = exact_bounds(self.value_at(n, lim))
            if glo <= 0:
                raise InfeasibleConstraint(f"g({int_brief(n)}) is not certifiably positive")
            lo_c = -((-n * ghi.denominator) // ghi.numerator)
            hi_c = -((-n * glo.denominator) // glo.numerator)
            return lo_c if lo_c == hi_c else None

        c = escalate(limits.with_(precision=max(limits.precision, n.bit_length() + 64)), attempt)
        if c is not None:
            return c
        raise InfeasibleConstraint(
            f"cannot pin ceil(N/g(N)) at N = {int_brief(n)} at escalated precision"
        )

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.beta is not None:
            doc["beta"] = rational_str(self.beta)
        return doc

    @staticmethod
    def from_json(doc) -> "GrowthSpec":
        kind = json_field(doc, "kind", str)
        beta = json_rational(doc["beta"]) if "beta" in doc else None
        return GrowthSpec(kind, beta)


@dataclass(frozen=True)
class Condition:
    """One checked inequality: status 'satisfied' or 'relaxed' (with note)."""

    name: str
    status: str
    note: str = ""


@dataclass
class Certificate:
    """Machine-checkable record tying generated scales to the construction's
    inequalities; paper_exact certificates carry only 'satisfied' verdicts."""

    theorem: str
    mode: str
    N: list
    L: list
    conditions: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def all_satisfied(self) -> bool:
        return all(c.status == "satisfied" for c in self.conditions)

    def to_json(self) -> dict:
        doc = {
            "theorem": self.theorem,
            "mode": self.mode,
            "N": [int_str(n) for n in self.N],
            "L": [int_str(x) for x in self.L],
            "conditions": [
                {"name": c.name, "status": c.status, "note": c.note}
                for c in self.conditions
            ],
        }
        doc.update(self.extras)
        return doc

    @staticmethod
    def from_json(doc) -> "Certificate":
        theorem = json_field(doc, "theorem", str)
        mode = json_field(doc, "mode", str)
        ns = [json_int(n) for n in json_field(doc, "N", list)]
        ls = [json_int(x) for x in json_field(doc, "L", list)]
        conditions = []
        for c in json_field(doc, "conditions", list) if "conditions" in doc else []:
            name, status = json_field(c, "name", str), json_field(c, "status", str)
            note = json_field(c, "note", str) if "note" in c else ""
            conditions.append(Condition(name, status, note))
        extras = {
            k: v
            for k, v in doc.items()
            if k not in ("theorem", "mode", "N", "L", "conditions")
        }
        return Certificate(theorem, mode, ns, ls, conditions, extras)


def dirac() -> BlockSignal:
    """The unit point mass at the origin."""
    return BlockSignal([Block(0, 0, Fraction(1))])


def _cond(mode: str, conditions) -> list:
    """Record each (name, holds, note) of a theorem's conditions; paper_exact
    may not carry violated conditions."""
    out = []
    for name, ok, note in conditions:
        if ok:
            out.append(Condition(name, "satisfied", note))
        elif mode == "relaxed":
            out.append(Condition(name, "relaxed", note or "violated in relaxed mode"))
        else:
            raise InfeasibleConstraint(f"paper_exact condition failed: {name} ({note})")
    return out


def _inverse_bits(g: GrowthSpec, c: Fraction) -> float:
    """log2 of the real x with g(x) = c, from floats; inf when one overflows."""
    try:
        if g.kind == "power":
            return (math.log2(c.numerator) - math.log2(c.denominator)) / float(g.beta)
        y = float(c)
        if g.kind == "loglog":
            y = math.exp(y)
        elif g.kind == "logpow":
            y **= float(1 / g.beta)
        return y * math.log2(math.e)
    except OverflowError:
        return math.inf


def _least_reaching(g: GrowthSpec, c: Fraction, bits: float, limits: Limits) -> int:
    """The least integer N with g(N) >= c, about 2^bits.

    power: N^p >= c^q, so N is the ceiling of iroot(ceil(c^q), p), exactly.
    The others invert to N = ceil(e^y) with y = c (log), e^c (loglog) or
    c^(1/beta) (logpow): an outward-rounded enclosure of e^y at bits + 64
    bits, the precision doubling until both ends ceil to one integer."""
    if g.kind == "power":
        p, q = g.beta.numerator, g.beta.denominator
        m = -(-(c.numerator**q) // c.denominator**q)
        r = iroot(m, p)
        return r + (r**p < m)

    def attempt(lim: Limits) -> Optional[int]:
        prec = lim.precision
        y: Value = c
        if g.kind == "loglog":
            y = exp_of_value(c, prec)
        elif g.kind == "logpow":
            y = pow_of_value(c**g.beta.denominator, Fraction(1, g.beta.numerator), prec)
        lo, hi = exp_of_value(y, prec).bounds()
        return math.ceil(lo) if math.ceil(lo) == math.ceil(hi) else None

    n = escalate(limits.with_(precision=int(bits) + 64), attempt)
    if n is None:
        raise InfeasibleConstraint(f"cannot pin the inverse of g at {c} at escalated precision")
    return n


def _smallest_admissible(g: GrowthSpec, k: int, lower: int, limits: Limits) -> int:
    """Smallest N >= lower with g(N) >= max(2, (5/4)*2^k).

    Every kind (log, loglog, logpow, power) is non-decreasing with g(N) < N
    at every N >= 2, so N >= g(N) and L = ceil(N/g(N)) >= 2 hold at each
    N, and the predicate is one comparison of g(N) with the target.  It
    holds from N = max(lower, _least_reaching(target)) on; that N is kept
    only when it holds there and fails at N - 1 (unless N = lower).  A first
    N past lower * 2^20000 is refused from a float estimate, or from the
    predicate there when the estimate is within a few bits."""
    target = max(Fraction(2), Fraction(5, 4) * 2**k)

    def admissible(n: int) -> bool:
        return g.cmp_at(n, target, limits) is not Ordering.LESS

    bits = _inverse_bits(g, target)
    cap = math.log2(lower) + _MAX_DOUBLINGS
    if bits > cap + 4 or (bits > cap - 4 and not admissible(lower << _MAX_DOUBLINGS)):
        raise InfeasibleConstraint(
            f"no admissible N within {_MAX_DOUBLINGS} doublings from {int_brief(lower)}"
        )
    n = max(lower, _least_reaching(g, target, bits, limits))
    if not admissible(n) or (n > lower and admissible(n - 1)):
        raise InfeasibleConstraint(
            f"N = {int_brief(n)} from the inverse of g at {target} fails its certificate"
        )
    return n


def _block_gaps(ns: list, ls: list, discrete: bool) -> list:
    """start_k - end_{k-1} between consecutive theorem27 blocks, whose spans
    are [N_k+1, N_k+L_k-1] (discrete) or (N_k, N_k+L_k) (continuous); a
    block's d_min is the smaller of its two adjacent gaps."""
    inset = 1 if discrete else 0
    return [
        (n + inset) - (n_prev + l_prev - inset)
        for n_prev, l_prev, n in zip(ns, ls, ns[1:])
    ]


def _conditions27(
    g: GrowthSpec, ns: list, ls: list, amps: list, total: Fraction, discrete: bool, limits: Limits
):
    """Theorem 27's inequalities at the scales N, L with amplitudes a and
    mass ||f||_1 = total, as (name, holds, note) in certificate order."""
    yield "N1_geq_4", ns[0] >= 4, f"N_1 = {int_str(ns[0])}"
    for k in range(1, len(ns)):
        yield (
            f"sep_k{k}",
            ns[k] >= 10 * ns[k - 1],
            f"N_{k + 1} = {int_str(ns[k])} vs 10*N_{k} = {int_str(10 * ns[k - 1])}",
        )
    for k, (n, l) in enumerate(zip(ns, ls), start=1):
        target = max(Fraction(2), Fraction(5, 4) * 2**k)
        yield (
            f"g_large_k{k}",
            g.cmp_at(n, target, limits) is not Ordering.LESS,
            f"g(N_{k}) vs max(2, (5/4)*2^{k}) = {target}",
        )
        yield (
            f"n_over_g_k{k}",
            g.cmp_at(n, Fraction(n), limits) is not Ordering.GREATER,
            f"N_{k} >= g(N_{k})",
        )
        if discrete:
            yield f"L_geq_2_k{k}", l >= 2, f"L_{k} = {int_str(l)}"
    # block dominance: windows reaching any other block average at most
    # ||f||_1 over at least 2*d_min+1 points (discrete) or 2*d_min length
    # (continuous), so staying below a_k certifies Mf = a_k on all of I_k
    gaps = _block_gaps(ns, ls, discrete)
    for k, a in enumerate(amps, start=1):
        near = gaps[max(k - 2, 0):k]
        if not near:
            yield f"block_dominance_k{k}", True, "single block: no foreign mass to reach"
            continue
        d = min(near)
        rhs = f"a_{k}*(2*{int_str(d)}+1)" if discrete else f"2*a_{k}*{int_str(d)}"
        yield (
            f"block_dominance_k{k}",
            dominance_holds(total, a, d, discrete),
            f"||f||_1 = {rational_str(total)} vs {rhs}",
        )


def build_theorem27(
    g: GrowthSpec,
    k_max: int,
    mode: str = "paper_exact",
    variant: str = "discrete",
    n1: Optional[int] = None,
    growth_factor: Optional[int] = None,
    limits: Limits = DEFAULT_LIMITS,
):
    """Signal with blocks I_k of amplitude a_k and certificate.

    Discrete: I_k = {N_k < n < N_k + L_k} (the L_k - 1 interior integers),
    a_k = 1 / (2^k (L_k - 1)).  Continuous: I_k = (N_k, N_k + L_k) with
    a_k = 1 / (2^k L_k).  L_k = ceil(N_k / g(N_k)).

    paper_exact picks each N_k as the smallest integer satisfying N_1 >= 4,
    N_{k+1} >= 10 N_k and g(N_k) >= max(2, (5/4) 2^k) (N_k > g(N_k) holds
    for every kind, so each block is non-empty); relaxed takes N_1 = n1
    and N_{k+1} = N_k * growth_factor and records which inequalities the
    caller's scales violate."""
    if k_max < 1:
        raise ParameterViolation("k_max must be >= 1")
    if variant not in ("discrete", "continuous"):
        raise ParameterViolation("variant must be discrete or continuous")
    if mode not in ("paper_exact", "relaxed"):
        raise ParameterViolation("mode must be paper_exact or relaxed")
    discrete = variant == "discrete"
    ns: list = []
    for k in range(1, k_max + 1):
        if mode == "paper_exact":
            lower = max(4, 10 * ns[-1] if ns else 4)
            ns.append(_smallest_admissible(g, k, lower, limits))
        else:
            if k == 1:
                if n1 is None:
                    raise ParameterViolation("relaxed mode needs n1")
                ns.append(int(n1))
            else:
                ns.append(ns[-1] * (10 if growth_factor is None else int(growth_factor)))
    ls = [g.ceil_n_over_g(n, limits) for n in ns]
    if discrete:  # a_k divides by L_k - 1
        for k, l in enumerate(ls, start=1):
            if l < 2:
                raise InfeasibleConstraint(
                    f"L_{k} = {int_brief(l)} leaves the discrete block empty"
                )
        amps = [Fraction(1, 2**k * (ls[k - 1] - 1)) for k in range(1, k_max + 1)]
        blocks = [
            Block(n + 1, n + l - 1, a) for n, l, a in zip(ns, ls, amps)
        ]
        sig = BlockSignal(blocks)
        total = norm_l1(sig)
        counts = [l - 1 for l in ls]
    else:
        amps = [Fraction(1, 2**k * ls[k - 1]) for k in range(1, k_max + 1)]
        bps: list = []
        vals: list = []
        for n, l, a in zip(ns, ls, amps):
            if bps:
                vals.append(Fraction(0))
            bps.append(Fraction(n))
            vals.append(a)
            bps.append(Fraction(n + l))
        sig = StepFunction(bps, vals)
        total = sig.integral()
        counts = list(ls)
    conditions = _cond(mode, _conditions27(g, ns, ls, amps, total, discrete, limits))
    cert = Certificate(
        theorem="theorem27" if discrete else "theorem27-cont",
        mode=mode,
        N=list(ns),
        L=list(ls),
        conditions=conditions,
        extras={
            "g": g.to_json(),
            "k_max": k_max,
            "a": [rational_str(a) for a in amps],
            "block_counts": [int_str(c) for c in counts],
            "norm_l1": rational_str(total),
        },
    )
    return sig, cert


def _scales29(
    k_max: int, mode: str, n1: Optional[int], n1_paper: int, growth_factor: Optional[int]
) -> list:
    """Theorem 29 scales N_1..N_kmax with N_{k+1} = N_k * growth_factor, or
    N_k^10 without a factor; paper_exact forces N_1 = n1_paper and ^10."""
    if mode not in ("paper_exact", "relaxed"):
        raise ParameterViolation("mode must be paper_exact or relaxed")
    if mode == "paper_exact":
        n1, growth_factor = n1_paper, None
    elif n1 is None:
        raise ParameterViolation("relaxed mode needs n1")
    ns = [int(n1)]
    for _ in range(k_max - 1):
        ns.append(ns[-1] ** 10 if growth_factor is None else ns[-1] * int(growth_factor))
    return ns


def _growth_conditions(ns: list):
    """The paper's N_{k+1} = N_k^10 for each consecutive pair."""
    for k in range(1, len(ns)):
        yield f"growth_k{k}", ns[k] == ns[k - 1] ** 10, f"N_{k + 1} = N_{k}^10"


def _first_wide(ls: list) -> Optional[int]:
    """K: the smallest k with L_k/(2L_k+1) > 5/12, i.e. L_k >= 3."""
    return next((k for k, l in enumerate(ls, start=1) if l >= 3), None)


def _conditions29_linf(ns: list, ls: list):
    """Theorem 29's L^inf conditions as (name, holds, note) in certificate order."""
    yield "N1_eq_2", ns[0] == 2, f"N_1 = {int_str(ns[0])}"
    yield from _growth_conditions(ns)
    yield (
        "K_exists",
        _first_wide(ls) is not None,
        "smallest k with L_k/(2L_k+1) > 5/12, i.e. L_k >= 3",
    )


def _n1_paper(alpha: Fraction) -> int:
    """The paper's N_1 = 2^ceil(10/(1-alpha)) for the L^p construction."""
    e = Fraction(10) / (1 - alpha)
    return 2 ** (-((-e.numerator) // e.denominator))


def _check_lp(p: Fraction, alpha: Fraction) -> None:
    """Theorem 29's L^p parameter domain, p > 1 and 0 < alpha < 1, outside
    which its conditions are undefined (N_1 = 2^ceil(10/(1-alpha)) needs
    alpha < 1)."""
    if not p > 1:
        raise ParameterViolation("need p > 1")
    if not (0 < alpha < 1):
        raise ParameterViolation("need alpha in (0, 1)")


def _conditions29_lp(ns: list, p: Fraction, alpha: Fraction):
    """Theorem 29's L^p conditions as (name, holds, note) in certificate order."""
    yield "alpha_p_gt_1", alpha * p > 1, f"alpha*p = {alpha * p}"
    n1_paper = _n1_paper(alpha)
    yield (
        "N1_paper",
        ns[0] == n1_paper,
        f"N_1 = {int_str(ns[0])} vs 2^ceil(10/(1-alpha)) = {int_str(n1_paper)}",
    )
    yield from _growth_conditions(ns)


def build_theorem29_linf(
    k_max: int,
    mode: str = "paper_exact",
    n1: int = 2,
    growth_factor: Optional[int] = None,
    limits: Limits = DEFAULT_LIMITS,
):
    """Indicator blocks [N_k+1, N_k+L_k] for 2 <= k <= k_max, L_k = floor(N_k/3).

    paper_exact: N_1 = 2 and N_{k+1} = N_k^10.  The certificate records
    K = smallest k with L_k/(2L_k+1) > 5/12 (equivalently L_k >= 3); the
    frequency-function claims r_{N_k} = L_k are made for K <= k <= k_max-1,
    the range stable under truncating the infinite block family at k_max."""
    if k_max < 3:
        raise ParameterViolation("k_max must be >= 3")
    ns = _scales29(k_max, mode, n1, 2, growth_factor)
    ls = [n // 3 for n in ns]
    conditions = _cond(mode, _conditions29_linf(ns, ls))
    big_k = _first_wide(ls)
    blocks = [
        Block(n + 1, n + l, Fraction(1))
        for k, (n, l) in enumerate(zip(ns, ls), start=1)
        if k >= 2 and l >= 1
    ]
    if not blocks:
        raise InfeasibleConstraint("no non-empty blocks at these scales")
    sig = BlockSignal(blocks)
    claim_ks = [k for k in range(big_k or k_max + 1, k_max)]
    cert = Certificate(
        theorem="theorem29-linf",
        mode=mode,
        N=list(ns),
        L=list(ls),
        conditions=conditions,
        extras={
            "k_max": k_max,
            "K": big_k,
            "claim_ks": claim_ks,
            "claimed_radius": {str(k): int_str(ls[k - 1]) for k in claim_ks},
        },
    )
    return sig, cert


def build_theorem29_lp(
    p: Fraction,
    alpha: Fraction,
    k_max: int,
    mode: str = "paper_exact",
    n1: Optional[int] = None,
    growth_factor: Optional[int] = None,
    limits: Limits = DEFAULT_LIMITS,
):
    """Blocks [N_k+1, N_k+L_k] carrying f(n) = n^(-alpha), probe points
    n_k = N_k + L_k + 1, claimed minimal radius L_k at each verifiable n_k.

    paper_exact: N_1 = 2^ceil(10/(1-alpha)), N_{k+1} = N_k^10 -- scales at
    which power-law window sums exceed any practical summation cap, so the
    certificate marks each block's verifiability instead of hiding it.
    relaxed: caller-chosen N_1 and growth keep every block under the cap."""
    p = Fraction(p)
    alpha = Fraction(alpha)
    _check_lp(p, alpha)
    if not alpha * p > 1:
        raise ParameterViolation("need alpha * p > 1 for summability")
    if k_max < 1:
        raise ParameterViolation("k_max must be >= 1")
    ns = _scales29(k_max, mode, n1, _n1_paper(alpha), growth_factor)
    ls = [n // 3 for n in ns]
    if any(l < 1 for l in ls):
        raise InfeasibleConstraint("a block is empty at these scales (N_k < 3)")
    nks = [n + l + 1 for n, l in zip(ns, ls)]
    conditions = _cond(mode, _conditions29_lp(ns, p, alpha))
    verifiable = [l <= limits.powerlaw_sum_cap for l in ls]
    sig = BlockSignal(
        [Block(n + 1, n + l, PowerLaw(alpha)) for n, l in zip(ns, ls)]
    )
    cert = Certificate(
        theorem="theorem29-lp",
        mode=mode,
        N=list(ns),
        L=list(ls),
        conditions=conditions,
        extras={
            "k_max": k_max,
            "p": rational_str(p),
            "alpha": rational_str(alpha),
            "n_k": [int_str(n) for n in nks],
            "verifiable_blocks": verifiable,
            "powerlaw_sum_cap": limits.powerlaw_sum_cap,
        },
    )
    return sig, cert


def recheck_certificate(doc: dict, limits: Limits = DEFAULT_LIMITS) -> tuple[bool, list]:
    """Re-derive every certificate condition from the stored numbers alone.

    The theorem's condition generator, the one the build records, runs on
    the stored N, L, a, g, p and alpha, and each verdict is compared by name
    with the stored status; the derived facts that are not conditions (L
    from N, the mass, K, the probe points) are checked beside them.
    Returns (ok, notes): ok is True when all re-derived verdicts match the
    stored ones and no stored 'satisfied' verdict fails re-evaluation."""
    cert = Certificate.from_json(doc)
    notes: list = []
    theorem = cert.theorem
    ns, ls = cert.N, cert.L
    scaled = ("theorem27", "theorem27-cont", "theorem29-linf", "theorem29-lp")
    if theorem in scaled and not (ns and len(ls) == len(ns)):
        raise ParameterViolation("certificate N and L must be non-empty and of one length")
    if theorem in ("theorem27", "theorem27-cont"):
        g = GrowthSpec.from_json(json_field(doc, "g"))
        discrete = theorem == "theorem27"
        amps = [json_rational(s) for s in json_field(doc, "a", list)]
        if len(amps) != len(ns):
            raise ParameterViolation("certificate needs one amplitude per scale")
        total = Fraction(0)
        for k, (n, l, a) in enumerate(zip(ns, ls, amps), start=1):
            if g.ceil_n_over_g(n, limits) != l:
                notes.append(f"L_{k} = {l} does not match ceil(N/g(N))")
            total += a * (l - 1 if discrete else l)
        if json_rational(json_field(doc, "norm_l1")) != total:
            notes.append("stored norm_l1 does not match the recomputed mass")
        derived = _conditions27(g, ns, ls, amps, total, discrete, limits)
    elif theorem in ("theorem29-linf", "theorem29-lp"):
        if ls != [n // 3 for n in ns]:
            notes.append("L list does not match floor(N/3)")
        if theorem == "theorem29-linf":
            big_k = _first_wide(ls)
            if doc.get("K") != big_k:
                notes.append(f"stored K = {doc.get('K')}, re-derived {big_k}")
            derived = _conditions29_linf(ns, ls)
        else:
            p = json_rational(json_field(doc, "p"))
            alpha = json_rational(json_field(doc, "alpha"))
            _check_lp(p, alpha)
            if [json_int(s) for s in json_field(doc, "n_k", list)] != [
                n + l + 1 for n, l in zip(ns, ls)
            ]:
                notes.append("n_k list does not match N_k + L_k + 1")
            derived = _conditions29_lp(ns, p, alpha)
    elif theorem == "delta":
        derived = ()  # no parameter conditions: the point mass is parameter-free
    else:
        return False, [f"unknown certificate theorem {theorem!r}"]
    stored = {c.name: c.status for c in reversed(cert.conditions)}  # first of a name
    for name, holds, _note in derived:
        status = "satisfied" if holds else "relaxed"
        if name not in stored:
            notes.append(f"{name}: missing from certificate")
        elif stored[name] != status:
            notes.append(f"{name}: stored {stored[name]}, re-derived {status}")
        elif cert.mode == "paper_exact" and not holds:
            notes.append(f"{name}: paper_exact certificate with failing condition")
    return not notes, notes


# ---------------------------------------------------------------------------
# verification reports: engines re-run against each construction's claims
# ---------------------------------------------------------------------------


def _claim(claims: list, name: str, status: str, basis: str, note: str = "") -> None:
    claims.append({"name": name, "status": status, "basis": basis, "note": note})


def _report(name: str, cert: Certificate, claims: list, limits: Limits) -> dict:
    """A verify report: the certificate and its re-check, the claims, and
    the verdicts drawn from both."""
    doc = cert.to_json()
    ok, notes = recheck_certificate(doc, limits)
    return {
        "verify": name,
        "mode": cert.mode,
        "certificate": doc,
        "certificate_recheck": {"ok": ok, "notes": notes},
        "claims": claims,
        "resource_capped": any(c["status"] == "unverifiable" for c in claims),
        "ok": ok and all(c["status"] == "pass" for c in claims),
    }


def _zero_run(n_a: int, n_b: int, slope: int, icpt: int) -> tuple[int, int]:
    """The n in [n_a, n_b] with slope * n + icpt = 0, as bounds (u, v),
    empty when v < u: an affine piece is zero everywhere, at one point or
    nowhere."""
    if slope == 0:
        return (n_a, n_b) if icpt == 0 else (n_a, n_a - 1)
    n, rem = divmod(-icpt, slope)
    return (n, n) if rem == 0 and n_a <= n <= n_b else (n_a, n_a - 1)


def _uncertified(gaps: list) -> str:
    """Note tail naming the deciding results left uncertified, if any, and
    the largest gap among them: such a claim is unverifiable, never fail."""
    return f"; {len(gaps)} uncertified, gap {value_str(max(gaps))}" if gaps else ""


def _block_claim(
    sig: BlockSignal, start: int, end: int, a: Fraction, sample: bool, limits: Limits
) -> tuple[int, int, list]:
    """(certified mismatches, points checked, gaps of the uncertified
    results) for the claim that every n in [start, end] has Mf(n) = a with
    minimal centered radius 0.

    Every point is decided on frequency_pieces: on each piece the radius is
    zero everywhere, at one point or nowhere (_zero_run), and where it is
    zero Mf(n) = f(n), so the layout's runs with f != a count the rest,
    without a query per point.  With sample, only the block's edges and an
    even stride of _SAMPLE_PER_BLOCK points are checked, each by
    event_centered."""
    count = end - start + 1
    if sample:
        pts = {start, start + 1, start + 2, end - 2, end - 1, end}
        pts.update(range(start + 3, end - 2, max(1, count // _SAMPLE_PER_BLOCK)))
        results = [event_centered(sig, n, limits) for n in pts]
        bad = sum(r.certified and not (r.radius == 0 and r.max_value == a) for r in results)
        return bad, len(pts), [r.gap for r in results if not r.certified]
    lay = sig.layout
    xs, vals, lo = lay.xs, lay.vals, lay.lo
    bad = 0
    for n_a, n_b, slope, icpt in frequency_pieces(sig, start, end) if count > 0 else ():
        u, v = _zero_run(n_a, n_b, slope, icpt)
        bad += (n_b - n_a + 1) - max(0, v - u + 1)
        # f is vals[i] / dy on the offsets [xs[i - 1], xs[i]), 0 past the ends
        x, x_end = u - lo, v - lo
        i = bisect_right(xs, x)
        while x <= x_end:
            stop = min(x_end, xs[i] - 1) if i < len(xs) else x_end
            if vals[i] * a.denominator != a.numerator * lay.dy:  # f != a
                bad += stop - x + 1
            x, i = stop + 1, i + 1
    return bad, count, []


def verify_delta(limits: Limits = DEFAULT_LIMITS, n_abs_max: int = 1000) -> dict:
    """Point mass: r_n = |n| with Mf(n) = 1/(2|n|+1), minimal uncentered
    diameter |n| with value 1/(|n|+1), for all |n| <= n_abs_max.

    The centered claim is counted on the pieces of frequency_pieces over
    [-n_abs_max, n_abs_max], each split at 0 and compared with the line
    |n| (_zero_run); the uncentered claim is checked point by point."""
    sig = dirac()
    cert = Certificate("delta", "paper_exact", [], [], [])
    claims: list = []
    # r_n = |n| on each side of 0, and there the window holds the point
    # mass, so Mf(n) = 1/(2|n|+1) follows
    bad_c = bad_u = 0
    gaps: list = []
    for n_a, n_b, slope, icpt in frequency_pieces(sig, -n_abs_max, n_abs_max):
        for a, b, side in ((n_a, min(n_b, -1), -1), (max(n_a, 0), n_b, 1)):
            if a <= b:
                u, v = _zero_run(a, b, slope - side, icpt)
                bad_c += (b - a + 1) - max(0, v - u + 1)
    for n in range(-n_abs_max, n_abs_max + 1):
        ures = event_uncentered(sig, n, limits)
        if not ures.certified:
            gaps.append(ures.gap)
        elif not (ures.min_diameter == abs(n) and ures.max_value == Fraction(1, abs(n) + 1)):
            bad_u += 1
    _claim(
        claims,
        "centered_profile_exact",
        "pass" if bad_c == 0 else "fail",
        "exact",
        f"r_n = |n|, Mf = 1/(2|n|+1) at {2 * n_abs_max + 1} points, {bad_c} mismatches",
    )
    _claim(
        claims,
        "uncentered_profile_exact",
        "fail" if bad_u else "unverifiable" if gaps else "pass",
        "exact",
        f"diam = |n|, value 1/(|n|+1) at {2 * n_abs_max + 1} points, {bad_u} mismatches"
        + _uncertified(gaps),
    )
    return _report("delta", cert, claims, limits)


def verify_theorem27(
    g: GrowthSpec,
    k_max: int,
    mode: str = "paper_exact",
    variant: str = "discrete",
    n1: Optional[int] = None,
    growth_factor: Optional[int] = None,
    limits: Limits = DEFAULT_LIMITS,
) -> dict:
    """Check Mf = a_k with minimal radius 0 on every block, plus the density
    row at N = N_kmax + L_kmax.  In the discrete variant a block is decided
    at every point, on its frequency pieces (_block_claim), unless it is
    longer than _POINTWISE_CAP points and its dominance inequality
    (certificate condition) holds: such a block is checked on engine
    samples, and that is a proof, not a heuristic, since dominance alone
    forces the pointwise conclusion."""
    sig, cert = build_theorem27(g, k_max, mode, variant, n1, growth_factor, limits)
    claims: list = []
    ns, ls = cert.N, cert.L
    amps = [parse_rational(s) for s in cert.extras["a"]]
    satisfied = {c.name for c in cert.conditions if c.status == "satisfied"}
    if variant == "discrete":
        for k in range(1, k_max + 1):
            start, count = ns[k - 1] + 1, ls[k - 1] - 1
            sample = count > _POINTWISE_CAP and f"block_dominance_k{k}" in satisfied
            bad, checked, gaps = _block_claim(
                sig, start, start + count - 1, amps[k - 1], sample, limits
            )
            status, note = "pass", (
                f"dominance + {int_str(checked)} sampled points exact"
                if sample
                else f"all {int_str(checked)} points exact"
            )
            if bad:
                status, note = "fail", f"{int_str(bad)} of {int_str(checked)} points mismatched"
            elif gaps:
                status, note = "unverifiable", note + _uncertified(gaps)
            _claim(claims, f"block_k{k}_pointwise", status, "exact", note)
        n_eval = ns[-1] + ls[-1]
        row = density_series(
            sig, [n_eval], C=Fraction(2), epsilon=Fraction(1, 10), g=g, limits=limits
        )[0]
        if row.count_Z is None:
            # past density_eval_cap with some block short of dominance: the
            # row is partial, so the zero set is not counted at this N
            status = "unverifiable"
            note = (
                f"density row at N = {int_str(n_eval)} is partial: past "
                f"density_eval_cap {limits.density_eval_cap} and not every block dominates"
            )
        else:
            lo, _hi = exact_bounds(row.ratio_Z_over_NoverG)
            status = "pass" if lo > Fraction(1, 2) else "fail"
            note = (
                f"count_Z = {int_str(row.count_Z)} at N = {int_str(n_eval)}; "
                f"count_Z/(N/g(N)) = {value_str(row.ratio_Z_over_NoverG)}"
            )
        _claim(claims, "density_zero_set_half", status, "enclosure", note)
    else:
        for k in range(1, k_max + 1):
            a = amps[k - 1]
            n, l = ns[k - 1], ls[k - 1]
            bad = 0
            xs = [Fraction(n) + Fraction(j * l, 8) for j in range(1, 8)]
            for x in xs:
                res = maximal_centered_cont(sig, x)
                if not (res.attained and res.radius == 0 and res.max_value == a):
                    bad += 1
            # samples alone prove nothing between them: the claim rests on
            # the block's dominance condition, as for long discrete blocks
            dom_ok = f"block_dominance_k{k}" in satisfied
            note = f"dominance + {len(xs)} sampled points exact"
            if not dom_ok:
                note = f"block_dominance_k{k} not satisfied; {len(xs)} sampled points exact"
            if bad:
                note = f"{bad} of {len(xs)} points mismatched"
            _claim(
                claims,
                f"block_k{k}_pointwise",
                "pass" if bad == 0 and dom_ok else "fail",
                "exact",
                note,
            )
    return _report(cert.theorem, cert, claims, limits)


def verify_theorem29_linf(
    k_max: int,
    mode: str = "paper_exact",
    n1: int = 2,
    growth_factor: Optional[int] = None,
    limits: Limits = DEFAULT_LIMITS,
) -> dict:
    """Check r_{N_k} = L_k with Mf(N_k) = L_k/(2L_k+1) for K <= k < k_max,
    and the ratio window r/N in [1/4, 3/4] within 1/1000 of 1/3 at the
    largest claimed k.  Exact big-integer arithmetic throughout."""
    sig, cert = build_theorem29_linf(k_max, mode, n1, growth_factor, limits)
    claims: list = []
    ns, ls = cert.N, cert.L
    claim_ks = cert.extras["claim_ks"]
    for k in claim_ks:
        n, l = ns[k - 1], ls[k - 1]
        res = event_centered(sig, n, limits)
        good = res.radius == l and res.max_value == Fraction(l, 2 * l + 1)
        _claim(
            claims,
            f"anchor_k{k}",
            "unverifiable" if not res.certified else "pass" if good else "fail",
            "exact",
            f"r = {int_str(res.radius)} vs claimed {int_str(l)}; value {value_str(res.max_value)}"
            + ("" if res.certified else f"; uncertified, gap {value_str(res.gap)}"),
        )
    if claim_ks:
        k = claim_ks[-1]
        ratio = Fraction(ls[k - 1], ns[k - 1])
        good = (
            Fraction(1, 4) <= ratio <= Fraction(3, 4)
            and abs(ratio - Fraction(1, 3)) <= Fraction(1, 1000)
        )
        _claim(
            claims,
            f"ratio_k{k}",
            "pass" if good else "fail",
            "exact",
            f"r/N = L_{k}/N_{k}, |ratio - 1/3| = {rational_str(abs(ratio - Fraction(1, 3)))}",
        )
    return _report("theorem29-linf", cert, claims, limits)


def verify_theorem29_lp(
    p: Fraction,
    alpha: Fraction,
    k_max: int,
    mode: str = "paper_exact",
    n1: Optional[int] = None,
    growth_factor: Optional[int] = None,
    limits: Limits = DEFAULT_LIMITS,
) -> dict:
    """Check r_{n_k} = L_k at each probe point n_k = N_k + L_k + 1 where the
    power-law block sums stay under the summation cap, and the ratio window
    r/n_k in [1/8, 7/8] within 1/50 of 1/4 at the largest verifiable k.
    Anchors refused by the cap, and anchors whose engine result is
    uncertified at limits.precision, are reported unverifiable with their
    cause, never silently skipped or failed."""
    sig, cert = build_theorem29_lp(p, alpha, k_max, mode, n1, growth_factor, limits)
    claims: list = []
    ns, ls = cert.N, cert.L
    nks = [parse_int(s) for s in cert.extras["n_k"]]
    last_verified: Optional[int] = None
    refused = 0
    for k in range(1, k_max + 1):
        l, nk = ls[k - 1], nks[k - 1]
        try:
            res = event_centered(sig, nk, limits)
        except PowerLawRangeTooLarge as exc:
            refused += 1
            _claim(
                claims,
                f"anchor_k{k}",
                "unverifiable",
                "enclosure",
                f"power-law block sum exceeds cap: {exc}",
            )
            continue
        basis = "exact" if isinstance(res.max_value, Fraction) else "enclosure"
        good = res.certified and res.radius == l
        if good:
            last_verified = k
        _claim(
            claims,
            f"anchor_k{k}",
            "pass" if good else "fail" if res.certified else "unverifiable",
            basis,
            f"r = {int_str(res.radius)} vs claimed {int_str(l)}; value {value_str(res.max_value)}"
            + ("" if res.certified else f"; uncertified, gap {value_str(res.gap)}"),
        )
    if last_verified is not None:
        k = last_verified
        ratio = Fraction(ls[k - 1], nks[k - 1])
        good = (
            Fraction(1, 8) <= ratio <= Fraction(7, 8)
            and abs(ratio - Fraction(1, 4)) <= Fraction(1, 50)
        )
        _claim(
            claims,
            f"ratio_k{k}",
            "pass" if good else "fail",
            "exact",
            f"r/n_k = L_{k}/n_{k}, |ratio - 1/4| = {rational_str(abs(ratio - Fraction(1, 4)))}",
        )
    else:
        _claim(
            claims,
            "ratio",
            "unverifiable",
            "exact",
            "no anchor point verifiable under the summation cap"
            if refused == k_max
            else "no certified anchor at r = L_k",
        )
    return _report("theorem29-lp", cert, claims, limits)
