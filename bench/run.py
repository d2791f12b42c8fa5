"""hlmax benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload corpus|blocks|powerlaw|cli|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; hlmax is imported from its src/.  Every
workload runs in fresh worker processes (bench/worker.py), one process and
one thread, ops in a closed loop.  With --trace 0 the last line of stdout is
a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  The exit code is 0 only when every
output matched its reference.

setup_s is the median, over SETUP_SAMPLES fresh processes plus the measuring
one, of the time from process spawn to the first op: interpreter start,
`import hlmax` and building the inputs from the seed.  Like every
end-to-end timing it is divided by the host factor (bench/hostspeed.py),
here the mean of the factors this process measures right before the spawn
and right after READY.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
PREFIX = "@@bench "
WORKLOADS = ("corpus", "blocks", "powerlaw", "cli")
SETUP_SAMPLES = 6
PROCESS_TIMEOUT_S = 170.0
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def worker(workload: str, seed: int, mode: str, seconds: float = 0, trace: int = 0) -> tuple:
    """Run one worker process; (seconds from spawn to READY divided by the
    host factor around them, result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if mode == "run":
        cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    before = hostspeed.factor()
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    ready = None
    factor = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                continue
            msg = json.loads(line[len(PREFIX):])
            if msg["event"] == "ready":
                ready = time.perf_counter() - t0
                factor = (before + hostspeed.factor()) / 2
            elif msg["event"] == "result":
                result = msg
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None or (mode == "run" and result is None):
        raise BenchError(f"worker {workload} ({mode}) exited with code {rc}")
    return ready / factor, result


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(worker(workload, seed, "setup")[0])
    ready, res = worker(workload, seed, "run", seconds, trace)
    setups.append(ready)
    res["setup_samples"] = setups
    res["correct"] = res["failed"] == 0
    if trace:
        res["metrics"] = res.pop("layers")
    else:
        res["metrics"] = {
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_tail_ms": res["op_tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
    return res


def report(workload: str, seed: int, res: dict, trace: int) -> None:
    print(f"== {workload} seed={seed} passes={res['passes']} ops={res['attempted']} "
          f"({res['ops_per_pass']} per pass), closed loop, 1 process, 1 thread")
    m = res["metrics"]
    units = layers.metric_units() if trace else dict(END_TO_END)
    for name, unit in units.items():
        note = ""
        if name == "ops_per_s" and not trace:
            note = (f"  (measured {res['measured_ops_per_s']:.6g} at median host "
                    f"factor {res['host_factor']:.3f})")
        elif name == "op_tail_ms":
            note = (f"  (p{res['tail_percentile']:g} of {res['samples']} samples, "
                    f"{res['tail_beyond']} beyond)")
        elif name == "setup_s":
            note = f"  (median of {len(res['setup_samples'])} processes)"
        elif name == "ok_frac":
            note = (f"  (fail_frac {res['failed'] / res['attempted']:.6g}: "
                    f"{res['failed']} of {res['attempted']} ops failed)")
        print(f"  {name:<48} {m[name]:>14.6g} {unit}{note}")
    if trace:
        print(f"  spans written to {res['trace_file']}")
    for msg in res["failures"]:
        print(f"  FAIL {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hlmax" / "__init__.py").is_file():
        print(f"error: no hlmax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
            report(name, args.seed, results[name], args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    units = layers.metric_units() if args.trace else dict(END_TO_END)
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": units[k.split(".", 1)[1] if args.workload == "all" else k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
