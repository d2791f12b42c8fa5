"""Comparisons of program outputs against independent references.

Every function returns a list of failure messages; an empty list means the
output matched.  References come from outside the engine under test: the
brute-force oracles, a result's translated twin, the construction's own
scale formulas recomputed here, frozen goldens, and byte digests of CLI
output files.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def value_interval(v) -> tuple:
    """Exact (lo, hi) of an hlmax Value: a Fraction is its own interval."""
    if isinstance(v, Fraction):
        return v, v
    from hlmax.values import exact_bounds

    return exact_bounds(v)


def same_result(got, want, radius_attr: str, label: str = "") -> list:
    """Exact agreement of value, radius (or diameter) and certified flag."""
    msgs = []
    if got.max_value != want.max_value:
        msgs.append(f"{label}value {got.max_value} != {want.max_value}")
    if getattr(got, radius_attr) != getattr(want, radius_attr):
        msgs.append(
            f"{label}{radius_attr} {getattr(got, radius_attr)} != {getattr(want, radius_attr)}"
        )
    if got.certified != want.certified:
        msgs.append(f"{label}certified {got.certified} != {want.certified}")
    return msgs


def same_continuous(got, want, label: str = "") -> list:
    msgs = []
    if got.max_value != want.max_value:
        msgs.append(f"{label}value {got.max_value} != {want.max_value}")
    if got.radius != want.radius:
        msgs.append(f"{label}radius {got.radius} != {want.radius}")
    if got.attained != want.attained:
        msgs.append(f"{label}attained {got.attained} != {want.attained}")
    return msgs


def claimed_radius(res, radius: int, label: str = "") -> list:
    """A certified centered result whose minimal radius is the claimed one."""
    msgs = []
    if res.radius != radius:
        msgs.append(f"{label}radius {res.radius} != claimed {radius}")
    if not res.certified:
        msgs.append(f"{label}not certified")
    return msgs


def enclosure_matches(value, lo: Fraction, hi: Fraction, label: str = "", rel_width_bits: int = 100) -> list:
    """The value's interval meets the golden [lo, hi] and is narrow.

    Two certified enclosures of one real number always intersect; an
    interval wider than 2^-rel_width_bits of its magnitude is not an answer."""
    vlo, vhi = value_interval(value)
    msgs = []
    if vhi < lo or vlo > hi:
        msgs.append(f"{label}value [{float(vlo)}, {float(vhi)}] misses golden [{float(lo)}, {float(hi)}]")
    if (vhi - vlo) * 2**rel_width_bits > abs(vhi):
        msgs.append(f"{label}enclosure too wide: {float(vhi - vlo)}")
    return msgs


def at_least(value, lo: Fraction, label: str = "") -> list:
    """The value's interval reaches up to lo: a maximum over a superset of
    windows is never below the maximum over the subset."""
    _, vhi = value_interval(value)
    if vhi < lo:
        return [f"{label}value below the bound {float(lo)}: {float(vhi)}"]
    return []


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_outputs(rc: int, stdout: str, files: dict, want: dict, label: str = "") -> list:
    """Exit code, stdout and every output file byte-identical to the golden.

    files maps each output name to its bytes (None when missing); want is
    the golden entry {"rc": .., "stdout": sha256, "files": {name: sha256}}."""
    msgs = []
    if rc != want["rc"]:
        msgs.append(f"{label}exit code {rc} != {want['rc']}")
    if digest(stdout.encode()) != want["stdout"]:
        msgs.append(f"{label}stdout differs from golden")
    for name, sha in want["files"].items():
        data = files.get(name)
        if data is None:
            msgs.append(f"{label}{name} missing")
        elif digest(data) != sha:
            msgs.append(f"{label}{name} differs from golden")
    return msgs
