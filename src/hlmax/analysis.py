"""Set-size statistics and dichotomy classification of frequency profiles.

For a point n != 0 with minimal centered radius r_n (or minimal uncentered
diameter 2*r~_n), the normalized ratio r_n/|n| (resp. r~_n/|n|) falls into
exactly one window: near zero, near one (near one half uncentered), the
middle band, or above; density_series counts, over {n : 0 < |n| <= N}, the
points with ratio <= 1/C (S), with r_n = 0 (Z), and with ratio within
epsilon of 1 (closed band), and reports the normalized ratios
count_S/N, count_Z/(N/g(N)), count_near1/(2N) exactly or as enclosures.

Counting runs up to a horizon beyond which compact support pins every
ratio (far windows must reach the support, so r_n is within the support
radius of |n|), and closed forms finish the tail.  Below the horizon every
row is counted by one function, _piece_counts, from affine pieces of the
radius (or the minimal diameter) in n, on which every condition is linear
in n: rows on constant-amplitude signals from the exact pieces of
frequency_pieces (centered) or uncentered_pieces (uncentered), rows on
power-law signals from one engine query per point, merged as it comes into
the same greedy runs (maxengine._append_run; the contract is in
frequency_pieces' docstring), with no list of points.  A row is exact
(flags "") only when its horizon is within density_eval_cap.  Past the
cap, signals whose every block amplitude dominates all foreign mass (dense
signals through their blocks) get exact zero-set counts structurally (rows
flagged "structural"); other requests yield rows flagged "partial" instead
of raising, so a series never dies half-way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .config import DEFAULT_LIMITS, Limits
from .errors import ParameterViolation, ZeroIndex
from .maxengine import (
    CenteredResult,
    UncenteredResult,
    _append_run,
    event_centered,
    event_uncentered,
    frequency_pieces,
    uncentered_pieces,
)
from .signal import BlockSignal, PowerLaw, as_blocks, norm_l1, support_bounds
from .values import Value, int_str, rational_str, v_mul_frac, value_str


class DichotomyClass(enum.Enum):
    """Window of the normalized minimal radius around its structural values."""

    NEAR_ZERO = "NearZero"
    NEAR_ONE = "NearOne"
    NEAR_HALF = "NearHalf"
    MIDDLE = "Middle"
    ABOVE_ONE_PLUS = "AboveOnePlus"
    ABOVE_HALF_PLUS = "AboveHalfPlus"


Record = Union[CenteredResult, UncenteredResult]


def _ratio_of(record: Record, uncentered: Optional[bool]) -> tuple[Fraction, bool]:
    is_unc = isinstance(record, UncenteredResult)
    if uncentered is not None and uncentered != is_unc:
        raise ParameterViolation(
            "uncentered flag does not match the record type"
        )
    n = record.n
    if n == 0:
        raise ZeroIndex("the normalized ratio r_n/|n| is undefined at n = 0")
    if is_unc:
        return Fraction(record.min_diameter, 2 * abs(n)), True
    return Fraction(record.radius, abs(n)), False


def classify(
    record: Record,
    epsilon: Fraction = Fraction(1, 10),
    uncentered: Optional[bool] = None,
) -> DichotomyClass:
    """Exactly one class per point: centered windows are [0,e), [e,1-e],
    (1-e,1+e), [1+e,oo) and need 0 < e < 1/2; uncentered windows sit around
    1/2 instead of 1 and need 0 < e <= 1/4 so they stay disjoint (at
    e = 1/4 the middle band degenerates to the single ratio 1/4)."""
    epsilon = Fraction(epsilon)
    ratio, is_unc = _ratio_of(record, uncentered)
    center = Fraction(1, 2) if is_unc else Fraction(1)
    ok = (0 < epsilon <= Fraction(1, 4)) if is_unc else (0 < epsilon < Fraction(1, 2))
    if not ok:
        bound = "(0, 1/4]" if is_unc else "(0, 1/2)"
        raise ParameterViolation(f"epsilon must lie in {bound} for disjoint windows")
    if ratio < epsilon:
        return DichotomyClass.NEAR_ZERO
    if ratio <= center - epsilon:
        return DichotomyClass.MIDDLE
    if ratio < center + epsilon:
        return DichotomyClass.NEAR_HALF if is_unc else DichotomyClass.NEAR_ONE
    return DichotomyClass.ABOVE_HALF_PLUS if is_unc else DichotomyClass.ABOVE_ONE_PLUS


def sc_membership(record: Record, C: Fraction) -> bool:
    """Exact test of 1/(2C) <= ratio <= 1/C; any rational C > 0 is accepted
    (the C = 1 boundary is a meaningful case)."""
    C = Fraction(C)
    if C <= 0:
        raise ParameterViolation("C must be positive")
    ratio, _ = _ratio_of(record, None)
    return Fraction(1, 2) / C <= ratio <= 1 / C


@dataclass
class DensityRow:
    """Counts over {n : 0 < |n| <= N} and their normalized ratios.

    count_S: ratio <= 1/C; count_Z: minimal radius 0; count_near1: ratio in
    the closed band [1-epsilon, 1+epsilon].  Fields are None when the row's
    method cannot produce them (structural rows count only Z; partial rows
    count nothing).  flags: "" exact pointwise, "structural", or "partial"."""

    N: int
    count_S: Optional[int]
    count_Z: Optional[int]
    count_near1: Optional[int]
    ratio_S_over_N: Optional[Value]
    ratio_Z_over_NoverG: Optional[Value]
    ratio_near1_over_2N: Optional[Value]
    flags: str = ""


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def dominance_holds(total, amp, gap: int, discrete: bool = True) -> bool:
    """Whether a block of amplitude amp dominates all foreign mass: a window
    centered in the block that reaches another one has at least 2*gap + 1
    points (discrete) or length 2*gap (continuous), so it averages at most
    total over that, which must not exceed amp."""
    return total <= amp * (2 * gap + 1) if discrete else total <= 2 * amp * gap


def _structural_zero_blocks(sig: BlockSignal) -> Optional[list]:
    """Blocks where amplitude dominance forces Mf = f pointwise, hence
    minimal radius 0 on the whole block; None unless every block qualifies.

    A window centered in block k either stays within distance d of the
    block (seeing only amplitude a_k and zeros, so averaging <= a_k) or
    reaches another block (dominance_holds)."""
    for b in sig.blocks:
        if isinstance(b.amp, PowerLaw):
            return None
    total = norm_l1(sig)
    spans = [(b.start, b.end, b.amp) for b in sig.blocks]
    for i, (s, e, a) in enumerate(spans):
        gaps = []
        if i > 0:
            gaps.append(s - spans[i - 1][1])
        if i + 1 < len(spans):
            gaps.append(spans[i + 1][0] - e)
        if gaps and not dominance_holds(total, a, min(gaps)):
            return None
    return [(s, e) for s, e, _ in spans]


def _count_in_range(spans: list, n_cap: int) -> int:
    """Number of integers in the spans with 0 < |n| <= n_cap."""
    total = 0
    for s, e in spans:
        for lo, hi in ((1, n_cap), (-n_cap, -1)):
            a, b = max(s, lo), min(e, hi)
            if a <= b:
                total += b - a + 1
    return total


def _count_where(a: int, b: int, conditions) -> int:
    """Number of integers x in [a, b] with alpha * x <= beta for every
    integer pair (alpha, beta)."""
    for alpha, beta in conditions:
        if alpha > 0:
            b = min(b, beta // alpha)
        elif alpha < 0:
            a = max(a, -(beta // -alpha))
        elif beta < 0:
            return 0
    return max(0, b - a + 1)


def _piece_counts(pieces: list, needs: list, C: Fraction, epsilon: Fraction, w: int) -> list:
    """Cumulative (count_S, count_Z, count_near1) over 0 < |n| <= need for
    each need of the non-decreasing list, from the pieces (n_a, n_b, slope,
    intercept) of r over n, the ratio being r / (w |n|): w = 1 for radii, 2
    for diameters.

    In x = |n| each piece reads r = sigma * x + c, and with C = p/q and
    epsilon = u/v every condition is linear in x: p r <= q w x (S), r = 0
    (Z) and (v - u) w x <= v r <= (v + u) w x (near 1)."""
    p, q = C.numerator, C.denominator
    u, v = epsilon.numerator, epsilon.denominator
    # positive n ascending, then negative n mirrored to ascending |n|
    sides = (
        [(max(a, 1), b, slope, c) for a, b, slope, c in pieces if b >= 1],
        [(-min(b, -1), -a, -slope, c) for a, b, slope, c in reversed(pieces) if a <= -1],
    )
    index = [0, 0]
    cs = cz = cn1 = 0
    done = 0
    out = []
    for need in needs:
        for side, runs in enumerate(sides):
            i = index[side]
            while i < len(runs) and runs[i][0] <= need:
                a, b, sigma, c = runs[i]
                lo, hi = max(a, done + 1), min(b, need)
                cs += _count_where(lo, hi, [(p * sigma - q * w, -p * c)])
                cz += _count_where(lo, hi, [(sigma, -c), (-sigma, c)])
                cn1 += _count_where(
                    lo, hi, [((v - u) * w - v * sigma, v * c), (v * sigma - (v + u) * w, -v * c)]
                )
                if b > need:
                    break
                i += 1
            index[side] = i
        done = max(done, need)
        out.append((cs, cz, cn1))
    return out


def density_series(
    signal,
    n_list: Sequence[int],
    C: Fraction = Fraction(2),
    epsilon: Fraction = Fraction(1, 10),
    g=None,
    uncentered: bool = False,
    limits: Limits = DEFAULT_LIMITS,
) -> list:
    """One DensityRow per N in the increasing n_list.

    C > 1 (so membership decays), epsilon in (0, 1/2).  g, when given, must
    expose value_at(N, limits) -> Value for the N/g(N) normalization.  The
    counted rows of a constant signal come from one sweep of pieces over
    [-N, N], N the largest counted need: frequency_pieces centered,
    uncentered_pieces uncentered.  A signal with a power-law block takes
    one engine query per point instead.  density_eval_cap decides which
    rows are counted either way."""
    C = Fraction(C)
    epsilon = Fraction(epsilon)
    if C <= 1:
        raise ParameterViolation("density series needs C > 1")
    if not 0 < epsilon < Fraction(1, 2):
        raise ParameterViolation("epsilon must lie in (0, 1/2)")
    if not n_list or any(n <= 0 for n in n_list):
        raise ParameterViolation("N values must be positive")
    if any(b >= a for a, b in zip(n_list[1:], n_list)):
        raise ParameterViolation("N values must be strictly increasing")
    signal = as_blocks(signal)
    lo, hi = support_bounds(signal)
    a_rad = max(abs(lo), abs(hi))
    if uncentered:
        horizon = None  # far membership in S straddles 1/C; stay pointwise
    else:
        horizon = max(a_rad, _ceil_frac(a_rad / epsilon), _ceil_frac(a_rad * C / (C - 1)))
    needs = [n if horizon is None else min(n, horizon) for n in n_list]
    counted = [m for m in needs if m <= limits.density_eval_cap]
    pieces: list = []
    if counted and signal.has_powerlaw:  # runs of one-point queries
        sides: tuple = ([], [])  # runs over x = n and x = -n
        for x in range(1, counted[-1] + 1):
            for runs, m in zip(sides, (x, -x)):
                if uncentered:
                    _append_run(runs, x, x, 0, event_uncentered(signal, m, limits).min_diameter)
                else:
                    _append_run(runs, x, x, 0, event_centered(signal, m, limits).radius)
        pieces = [(-b, -a, -s, c) for a, b, s, c in reversed(sides[1])] + sides[0]
    elif counted:
        pieces_of = uncentered_pieces if uncentered else frequency_pieces
        pieces = pieces_of(signal, -counted[-1], counted[-1])
    counts = _piece_counts(pieces, counted, C, epsilon, 2 if uncentered else 1)

    rows: list = []
    structural_spans: Optional[list] = None
    structural_probed = False

    def ratio_z(count: int, n_val: int) -> Optional[Value]:
        if g is None:
            return None
        return v_mul_frac(g.value_at(n_val, limits), Fraction(count, n_val), limits.precision)

    for i, (n_val, need) in enumerate(zip(n_list, needs)):
        if need <= limits.density_eval_cap:
            cs, cz, cn1 = counts[i]
            n1 = cn1 + 2 * (n_val - need)  # beyond the horizon every ratio is near 1
            rows.append(
                DensityRow(
                    n_val,
                    cs,
                    cz,
                    n1,
                    Fraction(cs, n_val),
                    ratio_z(cz, n_val),
                    Fraction(n1, 2 * n_val),
                    "",
                )
            )
            continue
        if not uncentered and not structural_probed:
            structural_probed = True
            structural_spans = _structural_zero_blocks(signal)
        if structural_spans is not None and not uncentered:
            z = _count_in_range(structural_spans, n_val)
            rows.append(
                DensityRow(n_val, None, z, None, None, ratio_z(z, n_val), None, "structural")
            )
        else:
            rows.append(DensityRow(n_val, None, None, None, None, None, None, "partial"))
    return rows


_CSV_HEADER = "N,count_S,count_Z,count_near1,ratio_S,ratio_Z_norm,ratio_near1,flags"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return int_str(v)
    if isinstance(v, Fraction):
        return rational_str(v)
    return value_str(v)


def rows_to_csv(rows: Sequence[DensityRow]) -> str:
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    int_str(r.N),
                    _cell(r.count_S),
                    _cell(r.count_Z),
                    _cell(r.count_near1),
                    _cell(r.ratio_S_over_N),
                    _cell(r.ratio_Z_over_NoverG),
                    _cell(r.ratio_near1_over_2N),
                    r.flags,
                ]
            )
        )
    return "\n".join(lines) + "\n"
