"""The dense form of a constant block signal, for tests that compare the
two representations."""

from fractions import Fraction

from hlmax.signal import BlockSignal, DenseSignal, support_bounds


def to_dense(sig: BlockSignal) -> DenseSignal:
    """The values of an all-constant block signal over its support."""
    lo, hi = support_bounds(sig)
    vals = [Fraction(0)] * (hi - lo + 1)
    for b in sig.blocks:
        vals[b.start - lo:b.end - lo + 1] = [b.amp] * (b.end - b.start + 1)
    return DenseSignal(lo, vals)
