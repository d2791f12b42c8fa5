"""Exception taxonomy.

Input and parameter problems derive from ParameterViolation; refusals driven
by resource caps derive from ResourceCapExceeded so callers (and the CLI exit
code map) can tell "you asked for something malformed" apart from "this is
well formed but larger than the configured budget".
"""

from __future__ import annotations


class HlmaxError(Exception):
    """Base class for all package errors."""


class ParameterViolation(HlmaxError):
    """Malformed input: bad block layout, invalid exponent, negative length."""


class ZeroSignal(ParameterViolation):
    """The identically-zero signal is rejected: maximal averages would all be
    zero and every radius would tie, so frequency functions are undefined."""


class NonpositiveRadius(ParameterViolation):
    """Radius outside the operation's domain (negative discrete radius, or a
    continuous ball radius that is not strictly positive)."""


class ZeroIndex(ParameterViolation):
    """n = 0 has no radius-to-position ratio; density statistics exclude it."""


class GrowthSpecInvalid(ParameterViolation):
    """Growth function violates its contract (not positive, not non-decreasing,
    or evaluated below its domain)."""


class InfeasibleConstraint(HlmaxError):
    """Scale selection cannot satisfy the construction inequalities."""


class ResourceCapExceeded(HlmaxError):
    """A configured budget refused the computation; partial work is reported
    by the caller where the contract asks for it."""


class PowerLawRangeTooLarge(ResourceCapExceeded):
    """A power-law window intersection exceeds the summation cap."""


class BudgetExceeded(ResourceCapExceeded):
    """Point-count or radius-count budget exceeded (profiles, scans, density)."""
