"""Exact frequency-function values at scales up to 2^10000.

The bounded-amplitude block family puts an indicator block of length
L_k = floor(N_k / 3) just past each scale N_k = 2^(10^(k-1)).  The event
sweep works over block boundaries, not points, so evaluating the engines
at N_4 = 2^1000 — a 302-digit integer — costs a handful of big-rational
comparisons.  The minimal maximizing radius there is exactly L_4 and the
ratio r/N_4 misses 1/3 by exactly 1/(3*2^1000).

Far outside the support the minimal radius reaches one end of a stretch of
blocks, so r_n/|n| -> 1 (the paper's asymptotics for compactly supported
f).  The demo queries 2^10000, 2^10100 and 2^20000 left of the support and
right of it, where each centered query is one bisect over the tangent
switch points that the signal compiles: left of it the window reaches the
support end hi, r = hi - n; right of it r = n - s, with s the start of the
last block until the whole support wins (s = lo).  The uncentered window
[n, hi] or [s, n] has diameter r.  The demo prints the exact switch point
where the whole support starts to win on the right, about 2^19000 past lo,
and the pieces of r_n over 1001 points 2^10000 left of the support, read
off the switch points as well.

Certificates serialize integers as decimal strings (the interpreter's
int<->str digit guard would reject direct conversion at 2^10000) and can
be re-checked from the JSON alone.

Run:  python3 demos/astronomical_scales.py
"""

import json
import math
from fractions import Fraction as F

from hlmax import (
    build_theorem29_linf,
    event_centered,
    event_uncentered,
    frequency_pieces,
    int_str,
    recheck_certificate,
    support_bounds,
)


def main() -> None:
    sig, cert = build_theorem29_linf(k_max=5)

    print("== Scales (digit counts) ==")
    for k, (n_k, l_k) in enumerate(zip(cert.N, cert.L), start=1):
        print(
            f"  k = {k}:  N_k has {len(int_str(n_k))} digits, "
            f"L_k has {len(int_str(l_k))} digits"
        )

    print()
    print("== Exact engine evaluations at the anchors ==")
    for k in (2, 3, 4):
        n_k, l_k = cert.N[k - 1], cert.L[k - 1]
        res = event_centered(sig, n_k)
        ratio = F(res.radius, n_k)
        exact_dev = abs(ratio - F(1, 3)) == F(1, 3 * n_k)
        print(
            f"  k = {k}:  r at N_k equals L_k: {res.radius == l_k}   "
            f"|r/N_k - 1/3| = 1/(3*N_k) exactly: {exact_dev}"
        )

    print()
    print("== Far outside the support: r_n / |n| -> 1 ==")
    lo, hi = support_bounds(sig)
    last = sig.blocks[-1].start  # the block at N_5 = 2^10000
    for e in (10000, 10100, 20000):
        for side, n in (("left ", lo - 2**e), ("right", hi + 2**e)):
            r = event_centered(sig, n).radius
            # only the reaches from n's own side are positive, so no two keys collide
            reach = {hi - n: "hi - n", n - lo: "n - lo", n - last: "n - N_5 block start"}.get(r, "?")
            diam = event_uncentered(sig, n).min_diameter
            # |r / |n| - 1| = |r - |n|| / |n| < 2^exp
            exp = (r - abs(n)).bit_length() - abs(n).bit_length() + 1
            print(
                f"  2^{e} {side}: r = {reach}, uncentered diameter = r: {diam == r}, "
                f"|r/|n| - 1| < 2^{exp}"
            )

    print()
    print("== Read off the compiled switch points ==")
    # right of the support the tangent vertex steps inward to the support
    # start at the last switch point, z beyond the support end hi + 1 (a
    # centered query at n sits at n + 1/2): from n0 on the window is [lo, n + r]
    _, num, den = sig.layout.right_tangents[1][-1]
    z = F(num, den)
    n0 = hi + 1 + math.floor(z - F(1, 2)) + 1
    print(f"  the whole support wins past hi + 1 + z, z = p/q exactly with p of "
          f"{z.numerator.bit_length()} bits and q of {z.denominator.bit_length()}: "
          f"2^18999 < z < 2^19000 is {2**18999 < z < 2**19000}")
    print(f"  r = n - N_5 block start at n0 - 1: {event_centered(sig, n0 - 1).radius == n0 - 1 - last}, "
          f"r = n - lo at n0: {event_centered(sig, n0).radius == n0 - lo}")
    far = lo - 2**10000
    pieces = frequency_pieces(sig, far - 1000, far)
    print(f"  pieces over the 1001 points ending 2^10000 left of lo: {len(pieces)}, "
          f"r = hi - n on all of them: {pieces == [(far - 1000, far, -1, hi)]}")

    print()
    print("== Certificate round trip at full scale ==")
    doc = cert.to_json()
    blob = json.dumps(doc)
    print(f"  JSON size with N_5 = 2^10000 embedded: {len(blob)} bytes")
    ok, _ = recheck_certificate(json.loads(blob))
    print(f"  re-check after round trip: ok = {ok}")


if __name__ == "__main__":
    main()
