"""Tests of the benchmark itself: its reference checks reject wrong
expected values, its tracer changes no result and leaves nothing behind,
its timings are scaled by the host factor, and its metric lists match
BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import hlmax  # noqa: E402
import hlmax.maxengine  # noqa: E402
import hlmax.signal  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SIG = hlmax.DenseSignal(0, [F(1), F(0), F(3, 2), F(1, 4)])


def test_same_result_rejects_wrong_expected_values():
    got = hlmax.event_centered(SIG, 1)
    assert checks.same_result(got, hlmax.oracle_centered(SIG, 1), "radius") == []
    assert checks.same_result(got, replace(got, radius=got.radius + 1), "radius")
    assert checks.same_result(got, replace(got, max_value=got.max_value + F(1, 7)), "radius")
    assert checks.same_result(got, replace(got, certified=False), "radius")
    unc = hlmax.event_uncentered(SIG, 1)
    assert checks.same_result(unc, replace(unc, min_diameter=unc.min_diameter + 1), "min_diameter")


def test_claimed_radius_and_enclosure_goldens_reject_wrong_values():
    sig, cert = hlmax.build_theorem29_lp(F(2), F(3, 5), 1, "relaxed", n1=30)
    n1 = hlmax.parse_int(cert.extras["n_k"][0])
    res = hlmax.event_centered(sig, n1)
    assert checks.claimed_radius(res, cert.L[0]) == []
    assert checks.claimed_radius(res, cert.L[0] + 1)
    lo, hi = checks.value_interval(res.max_value)
    golden = {"radius": res.radius, "certified": True,
              "lo": hlmax.rational_str(lo), "hi": hlmax.rational_str(hi)}
    assert workloads.check_golden_centered(res, golden) == []
    shifted = dict(golden, lo=hlmax.rational_str(hi + F(1, 10**9)),
                   hi=hlmax.rational_str(hi + F(2, 10**9)))
    assert workloads.check_golden_centered(res, shifted)
    assert workloads.check_golden_centered(res, dict(golden, radius=res.radius - 1))
    assert checks.at_least(res.max_value, hi + 1)


def test_cli_outputs_reject_wrong_digests_and_codes():
    want = {"rc": 0, "stdout": checks.digest(b"ok\n"), "files": {"a.csv": checks.digest(b"1,2\n")}}
    assert checks.cli_outputs(0, "ok\n", {"a.csv": b"1,2\n"}, want) == []
    assert checks.cli_outputs(0, "ok\n", {"a.csv": b"1,3\n"}, want)
    assert checks.cli_outputs(0, "ok\n", {"a.csv": None}, want)
    assert checks.cli_outputs(3, "ok\n", {"a.csv": b"1,2\n"}, want)
    assert checks.cli_outputs(0, "ok!\n", {"a.csv": b"1,2\n"}, want)


def test_continuous_grid_oracles_agree_with_engines():
    f = hlmax.StepFunction([0, 2, 3, 7, 8], [F(1), F(0), F(1, 3), F(2)])
    for x in (F(1, 2), F(2), F(5, 2), F(7), F(15, 2)):
        assert checks.same_continuous(hlmax.maximal_centered_cont(f, x), workloads.grid_centered(f, x)) == []
        assert checks.same_continuous(hlmax.maximal_uncentered_cont(f, x), workloads.grid_uncentered(f, x)) == []
    wrong = replace(workloads.grid_centered(f, F(2)), radius=F(9))
    assert checks.same_continuous(hlmax.maximal_centered_cont(f, F(2)), wrong)


def test_outcome_counts_expected_refusals_as_success():
    op = workloads.Op("x", lambda: None, expect=hlmax.PowerLawRangeTooLarge)
    assert workloads.outcome(op, None, hlmax.PowerLawRangeTooLarge("cap")) == []
    assert workloads.outcome(op, 1, None)
    assert workloads.outcome(op, None, ValueError("other"))
    plain = workloads.Op("y", lambda: None, check=lambda r: [] if r == 2 else ["wrong"])
    assert workloads.outcome(plain, 2, None) == []
    assert workloads.outcome(plain, 3, None)
    assert workloads.outcome(plain, None, ValueError("boom"))


def _site_functions() -> dict:
    import importlib

    return {
        (site, name): importlib.import_module(site).__dict__.get(name)
        for site in tracing.SITES
        for _, names in tracing.LAYERS.values()
        for name in names
    }


def test_tracer_passes_results_through_and_restores_every_function():
    before = _site_functions()
    plain = [hlmax.event_centered(SIG, n) for n in range(-3, 8)]
    plain_u = [hlmax.event_uncentered(SIG, n) for n in range(-3, 8)]
    tracer = tracing.Tracer(hlmax.DEFAULT_LIMITS.precision)
    with tracer.installed():
        assert hlmax.maxengine.window_sum_scaled is not before[("hlmax.maxengine", "window_sum_scaled")]
        traced = tracer.run_op(0, "bench.op", lambda: [hlmax.event_centered(SIG, n) for n in range(-3, 8)])
        traced_u = tracer.run_op(1, "bench.op", lambda: [hlmax.event_uncentered(SIG, n) for n in range(-3, 8)])
        diffs = tracer.run_op(2, "bench.op", lambda: hlmax.diff_signal(SIG))
    assert traced == plain and traced_u == plain_u and diffs == []
    assert _site_functions() == before
    for rec in tracer.op_records:
        assert sum(rec["self_ns"].values()) == rec["dur_ns"]
    first = tracer.op_records[0]
    assert first["calls"]["maxengine.event_centered"] == 11
    assert first["calls"]["signal.to_blocks"] == 11
    assert first["counts"][tracing.CERTIFIED] == 11
    assert first["counts"][tracing.CANDIDATES] > 0


def test_untraced_pass_installs_no_wrapper():
    before = _site_functions()
    wl = workloads.Corpus(3, ROOT / ".bench_work" / "test")
    inputs = wl.build()[:5]
    recs = worker.run_pass(wl, workloads, inputs)
    assert _site_functions() == before
    assert all(r.msgs == [] for r in recs)


def test_end_to_end_divides_latencies_by_the_host_factor():
    op = workloads.Op("x", lambda: None)
    fast = [workloads.Rec(op, None, ns, host=1.0) for ns in (1_000_000, 3_000_000)]
    slow = [workloads.Rec(op, None, 2 * r.ns, host=2.0) for r in fast]
    got = worker.end_to_end([fast, slow, fast], 99.0)
    assert got["ops_per_s"] == 500.0 and got["op_p50_ms"] == 2.0
    assert got["measured_ops_per_s"] == 500.0
    assert worker.end_to_end([slow, slow, fast], 99.0)["measured_ops_per_s"] == 250.0


def test_host_factor_is_timed_around_every_op():
    wl = workloads.Corpus(3, ROOT / ".bench_work" / "test")
    recs = worker.run_pass(wl, workloads, wl.build()[:3], host=True)
    assert all(r.host > 0 and r.msgs == [] for r in recs)
    assert all(r.host == 1.0 for r in worker.run_pass(wl, workloads, wl.build()[:3]))


def test_tail_percentile_needs_ten_samples_beyond():
    lat = [float(i) for i in range(1, 101)]
    assert worker.tail(lat, 99.0) == (90.0, 90.0)
    assert worker.tail(lat, 75.0) == (75.0, 75.0)
    assert worker.tail(lat[:15], 99.0)[0] == 50.0


def test_metric_lists_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
