"""Signal corpora and engine-versus-oracle differs for equivalence runs.

The differ checks, for every integer within one support width of a signal,
that the event engines reproduce the brute-force oracles exactly: same
maximal average, same minimal radius (centered) and minimal diameter
(uncentered), with the engine certifying its answer.  Random signals come
in a run-structured flavor (few constant runs, the regime where the event
engines skip the most work) and a fully random one; binary_signals
enumerates every 0/1 signal up to a width with canonical support,
first and last values one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from .config import DEFAULT_LIMITS, Limits
from .maxengine import (
    event_centered,
    event_uncentered,
    oracle_centered_range,
    oracle_uncentered_range,
)
from .signal import DenseSignal, support_bounds


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
    Each oracle answers the whole range in one call."""
    lo, hi = support_bounds(sig)
    width = hi - lo + 1
    n_lo, n_hi = lo - width, hi + width
    batch = oracle_uncentered_range(sig, n_lo, n_hi, limits)
    centered = oracle_centered_range(sig, n_lo, n_hi, limits)
    mismatches: list = []
    for n in range(n_lo, n_hi + 1):
        ev = event_centered(sig, n, limits)
        oc = centered[n - n_lo]
        if not ev.certified or ev.max_value != oc.max_value or ev.radius != oc.radius:
            mismatches.append(
                f"centered n={n}: event ({ev.max_value}, r={ev.radius}, "
                f"certified={ev.certified}) vs oracle ({oc.max_value}, r={oc.radius})"
            )
        eu = event_uncentered(sig, n, limits)
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
