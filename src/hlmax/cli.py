"""Command-line front end: construct signals, profile them, emit density
tables, and run verification suites with machine-readable verdicts.

Exit codes: 0 pass, 1 verification failure, 2 usage or input error,
3 resource cap exceeded.  All mathematically meaningful quantities cross
the boundary as exact "p/q" strings (enclosures as "lo..hi"); outputs are
deterministic for a fixed command line, so a fixed seed gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from itertools import chain, islice
from typing import Optional

from .analysis import density_series, rows_to_csv
from .constructions import (
    Certificate,
    GrowthSpec,
    build_theorem27,
    build_theorem29_linf,
    build_theorem29_lp,
    dirac,
    verify_delta,
    verify_theorem27,
    verify_theorem29_linf,
    verify_theorem29_lp,
)
from .corpus import diff_signal, random_dense
from .errors import HlmaxError, ParameterViolation, ResourceCapExceeded
from .maxengine import cell_columns, profile, profile_sweep
from .signal import signal_from_json, signal_to_json
from .continuum import StepFunction, step_to_json
from .values import int_str, parse_int, parse_rational, rational_str, repr_brief, value_str

_THEOREMS = ("delta", "theorem27", "theorem29-linf", "theorem29-lp")


def _parse_growth(tokens: Optional[list]) -> GrowthSpec:
    if not tokens:
        return GrowthSpec("log")
    kind = tokens[0]
    if kind in ("log", "loglog"):
        if len(tokens) != 1:
            raise ParameterViolation(f"--g {kind} takes no parameter")
        return GrowthSpec(kind)
    if kind in ("logpow", "power"):
        if len(tokens) != 2:
            raise ParameterViolation(f"--g {kind} needs a rational exponent")
        return GrowthSpec(kind, parse_rational(tokens[1]))
    raise ParameterViolation(f"unknown growth kind {repr_brief(kind)}")


def _read_json(path: str):
    """The JSON document in a file.  Bytes that are not text, or a number past
    the interpreter's integer digit limit, raise ParameterViolation."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise ParameterViolation(f"{path}: {exc}") from None


def _read_signal(path: str, command: str):
    """The integer signal in a JSON file; step functions are refused."""
    doc = _read_json(path)
    if isinstance(doc, dict) and doc.get("type") == "step":
        raise ParameterViolation(f"{command} runs on integer signals (dense/blocks)")
    return signal_from_json(doc)


def _parse_points(spec: str) -> list:
    """Comma-separated integers; an empty entry (so an empty list) is refused."""
    return [parse_int(tok) for tok in spec.split(",")]


def _parse_range(spec: str) -> range:
    a, sep, b = spec.partition("..")
    if not sep:
        raise ParameterViolation("--range expects A..B")
    lo, hi = parse_int(a), parse_int(b)
    if hi < lo:
        raise ParameterViolation("--range expects A <= B")
    return range(lo, hi + 1)


def _int_arg(s: str) -> int:
    """argparse type for integers of any size (argparse's int refuses
    more than 4300 digits)."""
    try:
        return parse_int(s)
    except ParameterViolation as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count_arg(s: str) -> int:
    """argparse type for counts, which must be integers >= 1."""
    value = _int_arg(s)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_construction_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--g", nargs="+", metavar="GROWTH",
                     help="growth function: log | loglog | logpow B | power B")
    sub.add_argument("--k", type=_int_arg, default=None, help="number of scales k_max")
    sub.add_argument("--mode", choices=("paper", "relaxed"), default="paper")
    sub.add_argument("--p", help="exponent p as p/q (theorem29-lp)")
    sub.add_argument("--alpha", help="decay alpha as p/q (theorem29-lp)")
    sub.add_argument("--n1", type=_int_arg, default=None, help="first scale (relaxed mode)")
    sub.add_argument("--growth-factor", type=_int_arg, default=None,
                     help="multiplicative scale growth (relaxed mode)")
    sub.add_argument("--variant", choices=("discrete", "continuous"),
                     default="discrete", help="theorem27 signal model")


def _construction(args, verify: bool):
    """Shared construct/verify dispatch: (signal, certificate) for
    args.theorem, or with verify its verification report."""
    mode = "paper_exact" if args.mode == "paper" else "relaxed"
    if args.theorem == "delta":
        if verify:
            return verify_delta()
        return dirac(), Certificate("delta", "paper_exact", [], [], [])
    if args.theorem == "theorem27":
        fn = verify_theorem27 if verify else build_theorem27
        k = args.k if args.k is not None else 4
        return fn(_parse_growth(args.g), k, mode, args.variant, args.n1, args.growth_factor)
    if args.theorem == "theorem29-linf":
        fn = verify_theorem29_linf if verify else build_theorem29_linf
        k = args.k if args.k is not None else 5
        n1 = 2 if args.n1 is None else args.n1
        return fn(k, mode, n1=n1, growth_factor=args.growth_factor)
    if args.p is None or args.alpha is None:
        raise ParameterViolation("theorem29-lp needs --p and --alpha")
    fn = verify_theorem29_lp if verify else build_theorem29_lp
    k = args.k if args.k is not None else 4
    return fn(
        parse_rational(args.p), parse_rational(args.alpha), k, mode,
        n1=args.n1, growth_factor=args.growth_factor,
    )


def _cmd_construct(args) -> int:
    sig, cert = _construction(args, verify=False)
    doc = step_to_json(sig) if isinstance(sig, StepFunction) else signal_to_json(sig)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    if args.cert:
        with open(args.cert, "w") as fh:
            json.dump(cert.to_json(), fh, indent=2)
            fh.write("\n")
    print(f"wrote {args.out}" + (f" and {args.cert}" if args.cert else ""))
    return 0


_ROW = "%s,%s/%s,%s,true,\n"
_LOW = 10**6


def _n_column(n_lo: int, n_hi: int):
    """int_str(n) for n_lo <= n <= n_hi, lazily: the digits above the low
    six are rendered once per 10^6 values, through int_str, and the low six
    appended zero-padded, so a string costs about the same at any n."""
    return chain.from_iterable(_n_blocks(n_lo, n_hi))


def _n_blocks(n_lo: int, n_hi: int):
    if n_lo < 0:  # |n| counts down toward 0
        top, bottom = -n_lo, -min(n_hi, -1)
        for high in range(top // _LOW, bottom // _LOW - 1, -1):
            base, fmt = high * _LOW, f"-{int_str(high)}%06d" if high else "-%d"
            yield map(fmt.__mod__, range(min(top - base, _LOW - 1), max(bottom - base, 0) - 1, -1))
    if n_hi >= 0:
        first = max(n_lo, 0)
        for high in range(first // _LOW, n_hi // _LOW + 1):
            base, fmt = high * _LOW, f"{int_str(high)}%06d" if high else "%d"
            yield map(fmt.__mod__, range(max(first - base, 0), min(n_hi - base, _LOW - 1) + 1))


def _cell_lines(cell: tuple, ns, bits: Optional[int]):
    """The CSV lines of one profile_sweep cell, taking its n column from
    ns.  A cell whose integers may pass the int/str digit guard (more than
    bits bits) renders them through int_str."""
    n_a, n_b, num, dnum, den, dden, r, dr = cell
    k = n_b - n_a
    cols = cell_columns(cell)
    if bits is not None and max(num + k * dnum, num, den + k * dden, r + k * dr, r).bit_length() > bits:
        cols = [map(int_str, col) for col in cols]
    return map(_ROW.__mod__, zip(islice(ns, k + 1), *cols))


def _profile_rows(sig, points, uncentered: bool):
    """The CSV rows of a profile as (count, lines) chunks, in order, each
    chunk to be written before the next is drawn.  A centered range on a
    constant signal gives one chunk per cell of profile_sweep, its lines
    built by C-level maps over the cell's progressions; the rest is one
    chunk of rows from profile's result objects.  Every refusal is raised
    before this returns, so a refused command leaves no file."""
    cells = None if uncentered else profile_sweep(sig, points)
    if cells is None:
        lines = [
            f"{int_str(res.n)},{value_str(res.max_value)},"
            f"{int_str(res.min_diameter if uncentered else res.radius)},"
            f"{str(res.certified).lower()},{rational_str(res.gap) if res.gap is not None else ''}\n"
            for res in profile(sig, points, uncentered=uncentered)
        ]
        return [(len(lines), lines)]
    ns = _n_column(points.start, points.stop - 1)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = 3 * (digits - 1) if digits else None  # 3 bits a digit stay under the guard
    return ((cell[1] - cell[0] + 1, _cell_lines(cell, ns, bits)) for cell in cells)


def _cmd_profile(args) -> int:
    sig = _read_signal(args.signal, "profile")
    if (args.range is None) == (args.points is None):
        raise ParameterViolation("profile needs one of --range and --points")
    points = _parse_range(args.range) if args.range is not None else _parse_points(args.points)
    radius_col = "min_diameter" if args.uncentered else "radius"
    chunks = _profile_rows(sig, points, args.uncentered)
    count = 0
    with open(args.out, "w") as fh:
        fh.write(f"n,max_value,{radius_col},certified,gap\n")
        for size, lines in chunks:
            fh.writelines(lines)
            count += size
    print(f"wrote {args.out} ({count} points)")
    return 0


def _cmd_density(args) -> int:
    sig = _read_signal(args.signal, "density")
    g = _parse_growth(args.g) if args.g else None
    rows = density_series(
        sig,
        _parse_points(args.N_list),
        C=parse_rational(args.C),
        epsilon=parse_rational(args.epsilon),
        g=g,
        uncentered=args.uncentered,
    )
    with open(args.out, "w") as fh:
        fh.write(rows_to_csv(rows))
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_verify(args) -> int:
    report = _construction(args, verify=True)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    for claim in report["claims"]:
        print(f"{claim['status']:>12}  {claim['name']}  [{claim['basis']}]")
    recheck = report["certificate_recheck"]
    print(f"{'pass' if recheck['ok'] else 'fail':>12}  certificate_recheck")
    if report["resource_capped"]:
        print("verdict: RESOURCE-CAPPED (some claims unverifiable at these scales)")
        return 3
    if not report["ok"]:
        print("verdict: FAIL")
        return 1
    print("verdict: PASS")
    return 0


def _cmd_oracle_diff(args) -> int:
    rng = random.Random(args.seed)
    mismatches: list = []
    for trial in range(args.trials):
        sig = random_dense(rng, max_width=args.max_width,
                           run_limited=trial % 5 != 4)
        for msg in diff_signal(sig):
            mismatches.append(f"trial {trial}: {msg}")
        if mismatches:
            break
    print(
        f"oracle-diff: trials={args.trials} max_width={args.max_width} "
        f"seed={args.seed} mismatches={len(mismatches)}"
    )
    for msg in mismatches:
        print("  " + msg)
    return 0 if not mismatches else 1


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state in it, so every main call in one process can share it."""
    parser = argparse.ArgumentParser(
        prog="hlmax",
        description="Exact maximal-function and frequency-function toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("construct", help="generate a counterexample signal")
    sub.add_argument("theorem", choices=_THEOREMS)
    _add_construction_flags(sub)
    sub.add_argument("--out", required=True, help="signal JSON path")
    sub.add_argument("--cert", default=None, help="certificate JSON path")
    sub.set_defaults(func=_cmd_construct)

    sub = subs.add_parser("profile", help="frequency profile at chosen points")
    sub.add_argument("--signal", required=True)
    sub.add_argument("--range", default=None, help="A..B inclusive")
    sub.add_argument("--points", default=None, help="comma-separated integers")
    sub.add_argument("--uncentered", action="store_true")
    sub.add_argument("--out", required=True, help="profile CSV path")
    sub.set_defaults(func=_cmd_profile)

    sub = subs.add_parser("density", help="set-size series over 0 < |n| <= N")
    sub.add_argument("--signal", required=True)
    sub.add_argument("--N-list", required=True, dest="N_list",
                     help="comma-separated increasing N values")
    sub.add_argument("--C", default="2", help="band constant as p/q")
    sub.add_argument("--epsilon", default="1/10", help="window as p/q")
    sub.add_argument("--g", nargs="+", default=None,
                     help="growth for the N/g(N) normalization")
    sub.add_argument("--uncentered", action="store_true")
    sub.add_argument("--out", required=True, help="density CSV path")
    sub.set_defaults(func=_cmd_density)

    sub = subs.add_parser("verify", help="re-derive and check a construction's claims")
    sub.add_argument("theorem", choices=_THEOREMS)
    _add_construction_flags(sub)
    sub.add_argument("--report", default=None, help="report JSON path")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("oracle-diff", help="randomized engine-vs-oracle check")
    sub.add_argument("--trials", type=_count_arg, default=100)
    sub.add_argument("--max-width", type=_count_arg, default=64)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_oracle_diff)
    return parser


def _normalize_argv(argv: list) -> list:
    """Join '--range -3..3' / '--points -5,0,5' into '--flag=value' so
    argparse does not mistake a leading minus for an option."""
    out: list = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--range", "--points") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _make_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceCapExceeded as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return 3
    except (HlmaxError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
