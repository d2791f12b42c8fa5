"""Span tracing of hlmax layers from outside the package.

A Tracer replaces public hlmax functions, in every hlmax module that
imported them, with thin wrappers that time each call and pass arguments
and results through untouched.  `installed()` puts the wrappers in place
and restores every original on exit, so an untraced run never sees one.

Each benchmark op is a root span.  A wrapper call made while an op runs
becomes a child span of the innermost open span; its self time is its
duration minus the durations of its direct children, so the self times of
all layers inside one op add up to the op's duration exactly.  Calls made
outside an op are not traced.

Spans are kept in memory as (id, name, start_ns, end_ns, parent_id, op_id)
and written out by `write()`.  Functions called millions of times per run
(window sums, power terms, comparisons, integer rendering) are folded into
one aggregate record per (op, parent span, layer) holding a call count and
a total duration instead of one record per call.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

PERF_NS = time.perf_counter_ns

# layer name -> (module defining the functions, function names)
LAYERS = {
    "signal.to_blocks": ("hlmax.signal", ("to_blocks",)),
    "signal.window_sum_scaled": ("hlmax.signal", ("window_sum_scaled",)),
    "signal.window_sum": ("hlmax.signal", ("window_sum",)),
    "signal.eval_at": ("hlmax.signal", ("eval_at",)),
    "signal.signal_from_json": ("hlmax.signal", ("signal_from_json",)),
    "signal.signal_to_json": ("hlmax.signal", ("signal_to_json",)),
    "maxengine.event_centered": ("hlmax.maxengine", ("event_centered",)),
    "maxengine.event_uncentered": ("hlmax.maxengine", ("event_uncentered",)),
    "maxengine.average_centered": ("hlmax.maxengine", ("average_centered",)),
    "maxengine.average_uncentered": ("hlmax.maxengine", ("average_uncentered",)),
    "maxengine.oracle_centered": ("hlmax.maxengine", ("oracle_centered",)),
    "maxengine.oracle_uncentered": ("hlmax.maxengine", ("oracle_uncentered",)),
    "maxengine.oracle_uncentered_range": ("hlmax.maxengine", ("oracle_uncentered_range",)),
    "maxengine.profile": ("hlmax.maxengine", ("profile",)),
    "values.power_term": ("hlmax.values", ("power_term",)),
    "values.compare": ("hlmax.values", ("compare",)),
    "values.ln_value": ("hlmax.values", ("ln_value",)),
    "values.int_str": ("hlmax.values", ("int_str",)),
    "values.parse_int": ("hlmax.values", ("parse_int",)),
    "continuum.maximal_centered_cont": ("hlmax.continuum", ("maximal_centered_cont",)),
    "continuum.maximal_uncentered_cont": ("hlmax.continuum", ("maximal_uncentered_cont",)),
    "constructions.build": (
        "hlmax.constructions",
        ("build_theorem27", "build_theorem29_linf", "build_theorem29_lp"),
    ),
    "constructions.recheck_certificate": ("hlmax.constructions", ("recheck_certificate",)),
    "constructions.verify": (
        "hlmax.constructions",
        ("verify_delta", "verify_theorem27", "verify_theorem29_linf", "verify_theorem29_lp"),
    ),
    "analysis.density_series": ("hlmax.analysis", ("density_series",)),
    "corpus.diff_signal": ("hlmax.corpus", ("diff_signal",)),
}

# modules whose namespace may hold an imported reference to a layer function
SITES = (
    "hlmax",
    "hlmax.values",
    "hlmax.signal",
    "hlmax.maxengine",
    "hlmax.continuum",
    "hlmax.constructions",
    "hlmax.analysis",
    "hlmax.corpus",
    "hlmax.cli",
)

AGGREGATED = frozenset(
    {
        "signal.window_sum_scaled",
        "signal.window_sum",
        "signal.eval_at",
        "maxengine.average_centered",
        "maxengine.average_uncentered",
        "values.power_term",
        "values.compare",
        "values.int_str",
        "values.parse_int",
    }
)

EVENT_LAYERS = frozenset({"maxengine.event_centered", "maxengine.event_uncentered"})
# a candidate window is one of these calls made by an event engine itself
CANDIDATE_LAYERS = frozenset(
    {"signal.window_sum_scaled", "maxengine.average_centered", "maxengine.average_uncentered"}
)

# per-op counters besides calls and self time
CANDIDATES = "candidates"
INDETERMINATE = "compare_indeterminate"
ESCALATED = "power_term_escalated"
CERTIFIED = "event_certified"
ANSWERED = "event_answered"  # event queries that returned instead of raising
POINTS_EVALUATED = "density_points"
# beyond this many individual span records, every further span is aggregated
MAX_RECORDED_SPANS = 400_000


class Tracer:
    """Collects spans, self times, call counts and counters per op."""

    def __init__(self, default_precision: int):
        self.default_precision = default_precision
        self.stack: list = []  # open frames: [layer, child_ns, record id]
        self.spans: list = []
        self.agg: dict = defaultdict(lambda: [0, 0])
        self.op_records: list = []
        self.self_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.op_id = None
        self._next_id = 0
        self._patched: list = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer: str, site: str):
        tracer = self
        stack = self.stack
        self_ns = self.self_ns
        calls = self.calls
        counts = self.counts
        spans = self.spans
        agg = self.agg
        aggregated = layer in AGGREGATED
        candidate = site == "hlmax.maxengine" and layer in CANDIDATE_LAYERS
        event = layer in EVENT_LAYERS
        power = layer == "values.power_term"
        compare = layer == "values.compare"

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if candidate and parent[0] in EVENT_LAYERS:
                counts[CANDIDATES] += 1
            if event and parent[0] == "analysis.density_series":
                counts[POINTS_EVALUATED] += 1
            if power:
                prec = args[2] if len(args) > 2 else kwargs.get("prec", tracer.default_precision)
                if prec > tracer.default_precision:
                    counts[ESCALATED] += 1
            record = not aggregated and len(spans) < MAX_RECORDED_SPANS
            frame = [layer, 0, tracer._new_id() if record else parent[2]]
            stack.append(frame)
            t0 = PERF_NS()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = PERF_NS()
                stack.pop()
                dur = t1 - t0
                self_ns[layer] += dur - frame[1]
                parent[1] += dur
                calls[layer] += 1
                if record:
                    spans.append((frame[2], layer, t0, t1, parent[2], tracer.op_id))
                else:
                    cell = agg[(tracer.op_id, parent[2], layer)]
                    cell[0] += 1
                    cell[1] += dur
            if event:
                counts[ANSWERED] += 1
                if result.certified:
                    counts[CERTIFIED] += 1
            if compare and result.name == "INDETERMINATE":
                counts[INDETERMINATE] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        sites = [importlib.import_module(name) for name in SITES]
        for layer, (home, names) in LAYERS.items():
            home_mod = importlib.import_module(home)
            for name in names:
                orig = getattr(home_mod, name, None)
                if orig is None:
                    continue  # the function was removed or renamed: no span
                for mod in sites:
                    if mod.__dict__.get(name) is orig:
                        setattr(mod, name, self._wrap(orig, layer, mod.__name__))
                        self._patched.append((mod, name, orig))

    def uninstall(self) -> None:
        while self._patched:
            mod, name, orig = self._patched.pop()
            setattr(mod, name, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- ops ----------------------------------------------------------------

    def run_op(self, index: int, layer: str, fn, tags=()):
        """Run one op as a root span and store its per-layer breakdown."""
        if self.stack:
            raise RuntimeError("ops do not nest")
        op_id = self._new_id()
        frame = [layer, 0, op_id]
        self.op_id = op_id
        self.stack.append(frame)
        t0 = PERF_NS()
        try:
            return fn()
        finally:
            t1 = PERF_NS()
            self.stack.pop()
            dur = t1 - t0
            self.self_ns[layer] += dur - frame[1]
            self.calls[layer] += 1
            self.spans.append((op_id, layer, t0, t1, None, op_id))
            self.op_records.append(
                {
                    "op": op_id,
                    "index": index,
                    "layer": layer,
                    "tags": tags,
                    "dur_ns": dur,
                    "self_ns": dict(self.self_ns),
                    "calls": dict(self.calls),
                    "counts": dict(self.counts),
                }
            )
            self.self_ns.clear()
            self.calls.clear()
            self.counts.clear()
            self.op_id = None

    def write(self, path) -> None:
        """Write every span and aggregate as one JSON object per line."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
            for (op, parent, name), (count, dur) in self.agg.items():
                fh.write(
                    json.dumps(
                        {"name": name, "parent": parent, "op": op,
                         "count": count, "total_ns": dur}
                    )
                    + "\n"
                )
