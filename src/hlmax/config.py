"""Resource limits shared across engines.

Every potentially unbounded loop in the package is guarded by one of these
caps.  Operations accept a Limits instance and default to DEFAULT_LIMITS, so
a caller can tighten or relax budgets per call without global state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    # working precision (bits) for enclosure arithmetic, and the scale of
    # the power-law engines' exact integer bounds (signal.window_bounds)
    precision: int = 256
    # refuse direct power-law summation over intersections longer than this
    powerlaw_sum_cap: int = 10**7
    # build O(1)-query prefix tables only for power-law blocks up to this length
    prefix_cache_cap: int = 200_000
    # refuse profiles over more evaluation points than this
    profile_point_cap: int = 2_000_000
    # density rows whose counting horizon min(N, horizon) exceeds this are
    # not counted (centered rows by piece sweep, others point by point):
    # they carry the structural zero count or are flagged partial
    density_eval_cap: int = 100_000
    # refuse exhaustive radius scans longer than this
    scan_radius_cap: int = 2_000_000

    def with_(self, **kw) -> "Limits":
        return replace(self, **kw)


DEFAULT_LIMITS = Limits()
