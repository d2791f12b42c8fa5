"""Build the log-growth block family and verify its certificate.

The builder places a block I_k = (N_k, N_k + L_k) of amplitude a_k at
scales N_k chosen so that L_k = ceil(N_k / log N_k) blocks the maximal
average from ever beating the block's own height: the total mass outside
is too small for any window reaching it to win.  Every point of every
block then has maximal value a_k at radius 0, so the zero set of the
frequency function up to N = N_4 + L_4 is huge relative to N / log N.
The same family is then built and verified to k = 13, where N_13 has
14774 bits.

Run:  python3 demos/log_growth_construction.py
"""

from fractions import Fraction as F

from hlmax import (
    GrowthSpec,
    build_theorem27,
    density_series,
    event_centered,
    parse_int,
    recheck_certificate,
    value_str,
    verify_theorem27,
)


def main() -> None:
    g = GrowthSpec("log")
    sig, cert = build_theorem27(g, k_max=4, mode="paper_exact")

    print("== Scales selected by the growth predicate ==")
    for k, (n_k, l_k, a_s) in enumerate(zip(cert.N, cert.L, cert.extras["a"]), start=1):
        print(f"  k = {k}:  N = {n_k:>10}  L = {l_k:>9}  amplitude a = {a_s}")
    print(f"  total mass ||f||_1 = {cert.extras['norm_l1']}")

    print()
    print("== Certificate conditions ==")
    for cond in cert.conditions:
        print(f"  {cond.name:<22} {cond.status:<10} {cond.note}")
    ok, notes = recheck_certificate(cert.to_json())
    print(f"  independent re-check from the stored scales alone: ok = {ok}")

    print()
    print("== Spot check: (a_k, radius 0) inside each block ==")
    for k in (1, 2, 3, 4):
        n = cert.N[k - 1] + max(1, cert.L[k - 1] // 2)
        res = event_centered(sig, n)
        print(
            f"  n = {n:>10} (inside I_{k}):  Mf = {value_str(res.max_value)}  "
            f"r_n = {res.radius}  certified = {res.certified}"
        )

    print()
    print("== Zero-set density at N = N_4 + L_4 ==")
    n_top = cert.N[-1] + cert.L[-1]
    row = density_series(sig, [n_top], C=F(2), g=g)[0]
    print(f"  N = {row.N}")
    print(f"  count of r_n = 0 points (structural certificate): {row.count_Z}")
    print(f"  enclosure of count_Z / (N / log N): {row.ratio_Z_over_NoverG}")
    print("  The lower bound exceeds 1/2: the zero set already fills more")
    print("  than half of N / log N at the fourth scale.")

    print()
    print("== The same family to k = 13, past 2^10000 ==")
    report = verify_theorem27(g, 13)
    big_n = [parse_int(n) for n in report["certificate"]["N"]]
    print("  each N_k is ceil(e^c) for c = max(2, (5/4) 2^k), certified by the")
    print("  growth predicate holding at N_k and failing at N_k - 1")
    for k, n_k in enumerate(big_n, start=1):
        print(f"  k = {k:>2}:  N_k has {n_k.bit_length():>5} bits")
    verdict = "PASS" if report["ok"] else "FAIL"
    if report["resource_capped"]:
        verdict = "RESOURCE-CAPPED"
    print(f"  verify theorem27 --k 13: {verdict}")


if __name__ == "__main__":
    main()
