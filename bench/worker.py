"""One workload in its own fresh process.

    python3 bench/worker.py --workload NAME --seed N --mode setup
    python3 bench/worker.py --workload NAME --seed N --mode run --seconds S --trace 0|1

Imports hlmax from the checkout's src/, builds the workload's inputs from
the seed and announces READY.  In run mode it then runs whole passes over
the op list in a closed loop (one op at a time, each starting when the
previous ends) until S seconds of passes have elapsed, checks every result,
and prints one result line.  With --trace 1 the first pass runs untraced and
the later ones under the tracer.  Untraced end-to-end passes time the host
speed kernel (hostspeed.py) between ops.  Protocol lines start with PREFIX;
run.py reads them.  Everything else the program prints is captured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

PREFIX = "@@bench "
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def emit(**msg) -> None:
    sys.stdout.write(PREFIX + json.dumps(msg) + "\n")
    sys.stdout.flush()


def import_program():
    """hlmax from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import hlmax

    if SRC.resolve() not in Path(hlmax.__file__).resolve().parents:
        raise ImportError(f"hlmax imported from {hlmax.__file__}, not from {SRC}")
    return hlmax


def tail(lat_ms: list, cap: float) -> tuple:
    """(percentile, value): the highest ladder percentile up to cap with at
    least ten samples beyond it, by nearest rank; the median if none has."""
    xs = sorted(lat_ms)
    n = len(xs)
    for p in sorted((q for q in TAIL_LADDER if q <= cap), reverse=True):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50.0, statistics.median(xs)


def run_pass(wl, workloads, inputs, tracer=None, host=False) -> list:
    """One pass over the op list.  With host, the host speed kernel runs
    before the first op, after every op and every INTERVAL_S inside one
    (hostspeed.py); each record gets the host factor of its op and its
    latency without the kernel runs inside it."""
    recs = []
    with hostspeed.OpSampler() if host else contextlib.nullcontext() as sampler:
        before = hostspeed.sample() if host else 0
        for i, op in enumerate(wl.ops(inputs)):
            exc = result = None
            if host:
                sampler.start()
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    result = op.fn()
                else:
                    result = tracer.run_op(i, op.layer, op.fn, op.tags)
            except Exception as e:  # an op's failure is a measured outcome
                exc = e
            finally:
                if host:
                    inside, spent = sampler.stop()
                ns = time.perf_counter_ns() - t0
            rec = workloads.Rec(op, result, ns, workloads.outcome(op, result, exc))
            if host:
                after = hostspeed.sample()
                kernel = [before, *inside, after]
                rec.ns -= spent
                rec.host = sum(kernel) / len(kernel) / hostspeed.REF_NS
                before = after
            recs.append(rec)
    for i, msg in wl.pass_checks(inputs, recs):
        recs[i].msgs.append(msg)
    return recs


def end_to_end(passes: list, cap: float) -> dict:
    """Every latency is divided by its host factor first (hostspeed.py).
    ops_per_s and op_p50_ms use each op's median latency across passes; the
    tail pools the latencies of every pass.  The measured rate, before the
    host factors, is reported beside them."""
    lat_ms = [r.ns / r.host / 1e6 for recs in passes for r in recs]
    p, v = tail(lat_ms, cap)
    beyond = sum(1 for x in lat_ms if x > v)
    ops = range(len(passes[0]))
    per_op_ms = [statistics.median(recs[i].ns / recs[i].host for recs in passes) / 1e6 for i in ops]
    raw_ms = [statistics.median(recs[i].ns for recs in passes) / 1e6 for i in ops]
    return {
        "ops_per_s": len(per_op_ms) / (sum(per_op_ms) / 1e3),
        "op_p50_ms": statistics.median(per_op_ms),
        "op_tail_ms": v,
        "tail_percentile": p,
        "tail_beyond": beyond,
        "samples": len(lat_ms),
        "measured_ops_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
        "host_factor": statistics.median(r.host for recs in passes for r in recs),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    hlmax = import_program()
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        inputs = wl.build()
        emit(event="ready")
        if args.mode == "setup":
            return 0
        return measure(args, wl, workloads, inputs, hlmax)
    finally:
        wl.close()


def measure(args, wl, workloads, inputs, hlmax) -> int:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(hlmax.DEFAULT_LIMITS.precision)
    first_inputs = inputs
    passes: list = []  # untraced passes
    traced: list = []
    start = time.perf_counter()
    while True:
        if tracer is not None and passes:
            with tracer.installed():
                traced.append(run_pass(wl, workloads, inputs, tracer))
        else:
            passes.append(run_pass(wl, workloads, inputs, host=tracer is None))
        if len(passes) + len(traced) > 1:
            # only the first pass is checked again later: let go of the
            # other passes' results and inputs so memory does not grow
            for rec in (traced or passes)[-1]:
                rec.result = None
                rec.op = None
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
            break
        inputs = wl.build()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for i, msg in wl.post_checks(first_inputs, passes[0]):
        passes[0][i].msgs.append(msg)

    every = passes + traced
    attempted = sum(len(recs) for recs in every)
    failures = [m for recs in every for r in recs for m in r.msgs]
    failed = sum(1 for recs in every for r in recs if r.msgs)
    out = {
        "event": "result",
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "passes": len(every),
        "ops_per_pass": len(passes[0]),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is None:
        out.update(end_to_end(passes, wl.tail_cap))
    else:
        import layers

        out["layers"] = layers.per_layer(passes[0], traced, tracer)
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        out["trace_file"] = str(path.relative_to(ROOT))
    emit(**out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
