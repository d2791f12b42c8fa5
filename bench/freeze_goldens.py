"""Freeze the references that cannot be recomputed during a run.

    python3 bench/freeze_goldens.py

Writes bench/goldens/powerlaw.json (brute-force oracle_centered results at
the smallest anchor and at fixed query points of every pool instance) and
bench/goldens/cli.json (exit code and SHA-256 digests of stdout and of every
output file, for every variant of every CLI command).  Run it only on a
commit whose outputs are trusted: the benchmark fails any later commit
whose answers or CLI bytes differ from these.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import hlmax  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def oracle_entry(sig, n: int) -> dict:
    res = hlmax.oracle_centered(sig, n)
    lo, hi = checks.value_interval(res.max_value)
    return {
        "n": hlmax.int_str(n),
        "radius": res.radius,
        "lo": hlmax.rational_str(lo),
        "hi": hlmax.rational_str(hi),
        "certified": res.certified,
    }


def freeze_powerlaw() -> dict:
    out = {}
    for spec in wl.LP_POOL:
        if wl.lp_key(spec) in out:
            continue
        p, alpha, n1, g = spec
        sig, _ = hlmax.build_theorem29_lp(
            hlmax.parse_rational(p), hlmax.parse_rational(alpha), wl.LP_K, "relaxed",
            n1=n1, growth_factor=g,
        )
        ns, ls, nks = wl.lp_scales(n1, g, wl.LP_K)
        inside, right = wl.lp_candidate_points(spec)
        entry = {
            "anchor": oracle_entry(sig, nks[0]),
            "inside": [oracle_entry(sig, n) for n in inside],
            "right": [oracle_entry(sig, n) for n in right],
        }
        if entry["anchor"]["radius"] != ls[0]:
            raise SystemExit(f"{wl.lp_key(spec)}: oracle radius at n_1 is not L_1")
        out[wl.lp_key(spec)] = entry
        print(wl.lp_key(spec), "anchor radius", entry["anchor"]["radius"], flush=True)
    return out


def freeze_cli() -> dict:
    work = ROOT / ".bench_work" / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    home = Path.cwd()
    out = {}
    try:
        os.chdir(work)
        for slot, variants in wl.cli_slots():
            for v, commands in enumerate(variants):
                for c, (argv, outputs) in enumerate(commands):
                    for name in outputs:
                        (work / name).unlink(missing_ok=True)
                    rc, stdout = wl.run_cli(argv)
                    files = wl.read_outputs(work, outputs)
                    missing = [name for name, data in files.items() if data is None]
                    if missing:
                        raise SystemExit(f"{slot}/{v}/{c}: no output {missing}")
                    out[wl.golden_key(slot, v, c)] = {
                        "argv": argv,
                        "rc": rc,
                        "stdout": checks.digest(stdout.encode()),
                        "files": {name: checks.digest(data) for name, data in files.items()},
                    }
                    print(wl.golden_key(slot, v, c), "rc", rc, flush=True)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    return out


def write(name: str, doc: dict) -> None:
    with open(wl.GOLDEN_DIR / name, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    write("cli.json", freeze_cli())
    write("powerlaw.json", freeze_powerlaw())
    return 0


if __name__ == "__main__":
    sys.exit(main())
