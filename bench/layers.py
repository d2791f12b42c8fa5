"""Per-layer metrics of a traced run.

Counts and self times are per pass of the workload's op list, averaged
over the traced passes, so they do not grow with run length.  Latencies
per block count come from the run's untraced pass; candidate counts come
from the traced ones.  Every metric is reported for every workload; a
metric whose layer the workload never reaches reads 0.
"""

from __future__ import annotations

import statistics

import tracing

SELF_LAYERS = tuple(tracing.LAYERS) + ("cli", "bench.op")
CALL_LAYERS = (
    "signal.to_blocks",
    "signal.window_sum_scaled",
    "signal.window_sum",
    "signal.eval_at",
    "maxengine.event_centered",
    "maxengine.event_uncentered",
    "maxengine.average_centered",
    "maxengine.average_uncentered",
    "maxengine.oracle_centered",
    "maxengine.oracle_uncentered_range",
    "values.power_term",
    "values.compare",
    "values.ln_value",
    "continuum.maximal_centered_cont",
    "continuum.maximal_uncentered_cont",
    "analysis.density_series",
    "corpus.diff_signal",
)
CLI_COMMANDS = ("construct", "profile", "density", "verify", "oracle-diff")
# (op kind, metric prefix, sizes) of the blocks workload's per-size curves
CURVES = (
    ("event_centered", "maxengine.event_centered", "B", (50, 200, 800)),
    ("event_uncentered", "maxengine.event_uncentered", "B", (50, 200)),
    ("maximal_centered_cont", "continuum.maximal_centered_cont", "P", (50, 200)),
    ("maximal_uncentered_cont", "continuum.maximal_uncentered_cont", "P", (50, 200)),
)
OFFSET_SUFFIX = {"o0": "", "at2p10000": "_at2p10000"}


def metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in SELF_LAYERS:
        units[f"{layer}.self_s"] = "s"
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
    units["signal.to_blocks.calls_per_query"] = "ratio"
    units["maxengine.candidates_per_query"] = "count"
    units["maxengine.certified_ratio"] = "ratio"
    units["values.power_term.escalated_calls"] = "count"
    units["values.compare.indeterminate"] = "count"
    units["analysis.points_evaluated"] = "count"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.s"] = "s"
    for kind, prefix, letter, sizes in CURVES:
        for size in sizes:
            for suffix in OFFSET_SUFFIX.values():
                units[f"{prefix}.ms_{letter}{size}{suffix}"] = "ms"
                if kind.startswith("event"):
                    units[f"{prefix}.cands_{letter}{size}{suffix}"] = "count"
    units["trace.ops_per_s_untraced"] = "1/s"
    units["trace.ops_per_s_traced"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.self_sum_error_s"] = "s"
    units["trace.passes"] = "count"
    return units


def _ops_per_s(ns: list) -> float:
    return len(ns) / (sum(ns) / 1e9)


def per_layer(untraced: list, traced: list, tracer) -> dict:
    """Metric name -> value from one untraced pass and the traced passes."""
    records = tracer.op_records
    passes = len(traced)
    self_ns: dict = {}
    calls: dict = {}
    counts: dict = {}
    worst = 0
    for rec in records:
        for layer, ns in rec["self_ns"].items():
            key = "cli" if layer.startswith("cli.") else layer
            self_ns[key] = self_ns.get(key, 0) + ns
        for layer, c in rec["calls"].items():
            calls[layer] = calls.get(layer, 0) + c
        for name, c in rec["counts"].items():
            counts[name] = counts.get(name, 0) + c
        worst = max(worst, abs(sum(rec["self_ns"].values()) - rec["dur_ns"]))

    out = {}
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9 / passes
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0) / passes
    queries = calls.get("maxengine.event_centered", 0) + calls.get("maxengine.event_uncentered", 0)
    out["signal.to_blocks.calls_per_query"] = calls.get("signal.to_blocks", 0) / queries if queries else 0.0
    out["maxengine.candidates_per_query"] = counts.get(tracing.CANDIDATES, 0) / queries if queries else 0.0
    answered = counts.get(tracing.ANSWERED, 0)
    out["maxengine.certified_ratio"] = counts.get(tracing.CERTIFIED, 0) / answered if answered else 0.0
    out["values.power_term.escalated_calls"] = counts.get(tracing.ESCALATED, 0) / passes
    out["values.compare.indeterminate"] = counts.get(tracing.INDETERMINATE, 0) / passes
    out["analysis.points_evaluated"] = counts.get(tracing.POINTS_EVALUATED, 0) / passes
    for cmd in CLI_COMMANDS:
        layer = f"cli.{cmd}"
        out[f"{layer}.s"] = sum(r["dur_ns"] for r in records if r["layer"] == layer) / 1e9 / passes

    # per-size curves: op tags are (kind, size, offset tag, point index)
    latency: dict = {}
    for rec in untraced:
        if len(rec.op.tags) == 4:
            kind, size, tag, _ = rec.op.tags
            latency.setdefault((kind, size, tag), []).append(rec.ns / 1e6)
    cands: dict = {}
    for rec in records:
        if len(rec["tags"]) == 4:
            kind, size, tag, _ = rec["tags"]
            cands.setdefault((kind, size, tag), []).append(rec["counts"].get(tracing.CANDIDATES, 0))
    for kind, prefix, letter, sizes in CURVES:
        for size in sizes:
            for tag, suffix in OFFSET_SUFFIX.items():
                lat = latency.get((kind, size, tag))
                out[f"{prefix}.ms_{letter}{size}{suffix}"] = statistics.median(lat) if lat else 0.0
                if kind.startswith("event"):
                    c = cands.get((kind, size, tag))
                    out[f"{prefix}.cands_{letter}{size}{suffix}"] = statistics.median(c) if c else 0.0

    untraced_rate = _ops_per_s([r.ns for r in untraced])
    traced_rate = _ops_per_s([r.ns for recs in traced for r in recs])
    out["trace.ops_per_s_untraced"] = untraced_rate
    out["trace.ops_per_s_traced"] = traced_rate
    out["trace.overhead_ratio"] = traced_rate / untraced_rate
    out["trace.self_sum_error_s"] = worst / 1e9
    out["trace.passes"] = passes
    return out
