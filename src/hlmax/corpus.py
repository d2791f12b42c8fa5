"""Signal corpora and engine-versus-oracle differs for equivalence runs.

The differ checks, for every integer within one support width of a signal,
that the event engines reproduce the brute-force oracles exactly: same
maximal average, same minimal radius (centered) and minimal diameter
(uncentered), with the engine certifying its answer; it reads the oracles'
integer rows off one prefix table per signal.  Random signals come in a
run-structured flavor (few constant runs, the regime where the event
engines skip the most work) and a fully random one; binary_signals
enumerates every 0/1 signal up to a width with canonical support, first
and last values one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from .config import DEFAULT_LIMITS, Limits
from .maxengine import (
    _centered_rows,
    _dense_prefix,
    _refuse_centered_scan,
    _refuse_uncentered_grid,
    _uncentered_rows,
    event_centered,
    event_uncentered,
)
from .signal import DenseSignal, as_blocks, support_bounds


def random_dense(
    rng,
    max_width: int = 64,
    max_num: int = 16,
    max_den: int = 16,
    run_limited: bool = True,
    max_runs: int = 8,
) -> DenseSignal:
    """Random nonnegative rational signal with values num/den,
    num <= max_num, den <= max_den; never identically zero."""
    while True:
        width = rng.randint(1, max_width)
        vals: list = []
        if run_limited:
            while len(vals) < width:
                run = rng.randint(1, max(1, (width + max_runs - 1) // max_runs))
                amp = Fraction(rng.randint(0, max_num), rng.randint(1, max_den))
                vals.extend([amp] * run)
            del vals[width:]
        else:
            vals = [
                Fraction(rng.randint(0, max_num), rng.randint(1, max_den))
                for _ in range(width)
            ]
        if any(vals):
            return DenseSignal(rng.randint(-2 * max_width, 2 * max_width), vals)


def binary_signals(max_width: int = 12) -> Iterator[DenseSignal]:
    """Every 0/1 signal of width 1..max_width whose first and last values
    are 1 (each support class appears exactly once, at lo = 0)."""
    yield DenseSignal(0, [Fraction(1)])
    for width in range(2, max_width + 1):
        for bits in range(2 ** (width - 2)):
            vals = (
                [Fraction(1)]
                + [Fraction((bits >> i) & 1) for i in range(width - 2)]
                + [Fraction(1)]
            )
            yield DenseSignal(0, vals)


def diff_signal(
    sig: DenseSignal, limits: Limits = DEFAULT_LIMITS, max_report: int = 8
) -> list:
    """Engine-versus-oracle mismatch descriptions over every n within one
    support width of the signal; empty means exact agreement everywhere.
    Refused as the range oracles refuse; an engine value agrees with its
    row (num, den) when it is a Fraction of the value num/den."""
    blocks = as_blocks(sig)
    lo, hi = support_bounds(blocks)
    width = hi - lo + 1
    n_lo, n_hi = lo - width, hi + width
    _refuse_uncentered_grid(blocks, n_lo, n_hi, limits)
    _refuse_centered_scan(blocks, n_lo, n_hi, limits)
    table = _dense_prefix(blocks)
    rows = zip(_centered_rows(table, n_lo, n_hi), _uncentered_rows(table, lo, hi, n_lo, n_hi))
    mismatches: list = []
    for n, ((c_num, c_den, r), (u_num, u_den, diam)) in enumerate(rows, n_lo):
        ev = event_centered(blocks, n, limits)
        if not _agrees(ev, ev.radius, c_num, c_den, r):
            mismatches.append(
                f"centered n={n}: event ({ev.max_value}, r={ev.radius}, "
                f"certified={ev.certified}) vs oracle ({Fraction(c_num, c_den)}, r={r})"
            )
        eu = event_uncentered(blocks, n, limits)
        if not _agrees(eu, eu.min_diameter, u_num, u_den, diam):
            mismatches.append(
                f"uncentered n={n}: event ({eu.max_value}, d={eu.min_diameter}, "
                f"certified={eu.certified}) vs oracle ({Fraction(u_num, u_den)}, d={diam})"
            )
        if len(mismatches) >= max_report:
            break
    return mismatches


def _agrees(res, key: int, num: int, den: int, oracle_key: int) -> bool:
    v = res.max_value
    same = isinstance(v, Fraction) and v.numerator * den == num * v.denominator
    return res.certified and key == oracle_key and same
