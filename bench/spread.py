"""Median, quartiles and spread of the end-to-end metrics over many seeds.

    python3 bench/spread.py --workloads blocks,cli --seeds 1-10 --seconds 20 \
        [--out .bench_out/spread.json]

Runs bench/run.py once per (workload, seed), one run at a time, and reports
for every metric the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median.
The JSON it writes also records the environment; bench/baseline.json is
such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        a, _, b = part.partition("-")
        out.extend(range(int(a), int(b or a) + 1))
    return out


def environment() -> dict:
    """What the numbers depend on besides the code: gmpy2, for one, would
    switch mpmath to another arithmetic backend and shift every figure."""
    import importlib.util
    import os
    import platform

    import hostspeed
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "hostspeed_ref_ns": hostspeed.REF_NS,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2_installed": importlib.util.find_spec("gmpy2") is not None,
        "machine": platform.machine(),
    }


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="corpus,blocks,powerlaw,cli")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", default=str(ROOT / ".bench_out" / "spread.json"))
    args = ap.parse_args(argv)

    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            runs.append(json.loads(lines[-1])["metrics"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1].items()), flush=True)
        if len(runs) < 2:
            continue
        summary[workload] = {
            name: dict(summarize([r[name]["value"] for r in runs]), unit=runs[0][name]["unit"])
            for name in runs[0]
        }
        for name, s in summary[workload].items():
            print(f"  {workload:<9} {name:<12} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    doc = {
        "environment": environment(),
        "run_seconds": args.seconds,
        "seeds": parse_seeds(args.seeds),
        "workloads": summary,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
