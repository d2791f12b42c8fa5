"""Command-line interface: exit codes (0 pass, 1 verification failure,
2 usage/input error, 3 resource cap), determinism of outputs, file formats,
and flag handling including negative-number arguments."""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlmax.signal
from hlmax.cli import _make_parser, _n_column, main
from hlmax.config import DEFAULT_LIMITS
from hlmax.maxengine import event_centered
from hlmax.signal import Block, BlockSignal, signal_to_json, support_bounds
from hlmax.values import int_str, value_str


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def t27_signal(tmp_path):
    path = tmp_path / "t27.json"
    assert run("construct", "theorem27", "--g", "log", "--k", "4", "--out", str(path)) == 0
    return path


class TestConstruct:
    def test_delta(self, tmp_path):
        out = tmp_path / "delta.json"
        assert run("construct", "delta", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["type"] == "blocks"
        assert doc["blocks"][0] == {"start": "0", "end": "0", "amp": {"const": "1/1"}}

    def test_theorem27_with_certificate(self, tmp_path):
        out, cert = tmp_path / "sig.json", tmp_path / "cert.json"
        code = run(
            "construct", "theorem27", "--g", "log", "--k", "4",
            "--out", str(out), "--cert", str(cert),
        )
        assert code == 0
        cdoc = json.loads(cert.read_text())
        assert cdoc["theorem"] == "theorem27"
        assert cdoc["N"] == ["13", "149", "22027", "485165196"]
        assert all(c["status"] == "satisfied" for c in cdoc["conditions"])

    def test_theorem27_past_the_doubling_cap_refused_fast(self, tmp_path, capsys):
        # ln ln N >= 10 needs N >= e^(e^10), about 2^31777, past N_2 * 10 *
        # 2^20000: refused from a float estimate, with no high-precision log
        t0 = time.perf_counter()
        code = run(
            "construct", "theorem27", "--g", "loglog", "--k", "3",
            "--out", str(tmp_path / "x.json"),
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert capsys.readouterr().err == (
            "error: InfeasibleConstraint: no admissible N within 20000 doublings from "
            "285112356794615106055810386579828059838536488179394449534171288370\n"
        )

    @pytest.mark.parametrize("variant", ["discrete", "continuous"])
    @pytest.mark.parametrize("g", [["power", "1/2"], ["log"]], ids=["power", "log"])
    @pytest.mark.parametrize("n1", ["0", "1"])
    def test_relaxed_n1_below_two_refused(self, tmp_path, capsys, variant, g, n1):
        # g is evaluated at N >= 2 only, by every kind and every method
        out = tmp_path / "x.json"
        code = run(
            "construct", "theorem27", "--g", *g, "--mode", "relaxed", "--n1", n1,
            "--k", "1", "--variant", variant, "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: GrowthSpecInvalid: growth functions are evaluated at N >= 2\n"
        )
        assert not out.exists()

    def test_theorem27_continuous_writes_step_json(self, tmp_path):
        out = tmp_path / "step.json"
        code = run(
            "construct", "theorem27", "--g", "log", "--k", "3",
            "--variant", "continuous", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["type"] == "step"

    def test_linf_huge_scales_serialize(self, tmp_path):
        out, cert = tmp_path / "linf.json", tmp_path / "linf-cert.json"
        code = run(
            "construct", "theorem29-linf", "--k", "5",
            "--out", str(out), "--cert", str(cert),
        )
        assert code == 0
        cdoc = json.loads(cert.read_text())
        assert len(cdoc["N"][-1]) == 3011  # 2^10000 has 3011 decimal digits

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(
                "construct", "theorem29-lp", "--p", "2", "--alpha", "3/5",
                "--mode", "relaxed", "--n1", "100", "--growth-factor", "10",
                "--k", "4", "--out", str(path),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lp_requires_p_and_alpha(self, tmp_path):
        assert run("construct", "theorem29-lp", "--out", str(tmp_path / "x.json")) == 2

    def test_unknown_theorem_usage_error(self, tmp_path):
        assert run("construct", "theorem99", "--out", str(tmp_path / "x.json")) == 2

    def test_integer_flags_take_any_size(self):
        # argparse's int refuses more than 4300 digits; only parsing is
        # checked here, no construction runs at this scale
        n1 = 10**5000
        args = _make_parser().parse_args([
            "construct", "theorem29-lp", "--p", "2", "--alpha", "3/5",
            "--mode", "relaxed", "--n1", "1" + "0" * 5000,
            "--growth-factor", "1" + "0" * 5000, "--k", "3", "--out", "x.json",
        ])
        assert (args.n1, args.growth_factor, args.k) == (n1, n1, 3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["theorem29-linf", "--mode", "relaxed", "--n1", "0", "--k", "3"],
            ["theorem27", "--mode", "relaxed", "--n1", "100", "--growth-factor", "0", "--k", "2"],
        ],
        ids=["linf-n1", "theorem27-growth-factor"],
    )
    def test_zero_flag_is_not_the_default(self, tmp_path, argv):
        out = tmp_path / "x.json"
        assert run("construct", *argv, "--out", str(out)) == 2
        assert not out.exists()

    def test_non_integer_flag_usage_error(self, tmp_path):
        assert run("construct", "theorem27", "--k", "4.5", "--out", str(tmp_path / "x.json")) == 2

    def test_omitted_growth_defaults_to_log(self, tmp_path):
        out = tmp_path / "x.json"
        cert = tmp_path / "x.cert.json"
        assert run("construct", "theorem27", "--out", str(out), "--cert", str(cert)) == 0
        doc = json.loads(cert.read_text())
        assert doc["g"] == {"kind": "log"}


class TestProfile:
    def test_range_with_negatives(self, tmp_path):
        sig = tmp_path / "d.json"
        run("construct", "delta", "--out", str(sig))
        out = tmp_path / "prof.csv"
        assert run("profile", "--signal", str(sig), "--range", "-3..3", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,max_value,radius,certified,gap"
        assert lines[1] == "-3,1/7,3,true,"
        assert lines[4] == "0,1/1,0,true,"
        assert len(lines) == 8

    def test_range_over_point_cap_is_resource_capped(self, tmp_path, capsys):
        # the cap is checked on the range's length, before any point exists
        sig = tmp_path / "d.json"
        run("construct", "delta", "--out", str(sig))
        out = tmp_path / "prof.csv"
        code = run("profile", "--signal", str(sig), "--range", f"0..{10**30}", "--out", str(out))
        assert code == 3
        assert "exceeds cap" in capsys.readouterr().err
        assert not out.exists()

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 12), st.integers(1, 9), st.integers(1, 4)),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([0, 2**10000, -(2**10000), 2**20000, -(2**20000)]),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_range_rows_equal_pointwise_rows(self, spec, offset, data):
        # past the int/str digit guard at 2^20000 the n column renders its
        # high digits through int_str
        blocks, pos = [], offset
        for gap, length, num, den in spec:
            pos += gap
            blocks.append(Block(pos, pos + length - 1, Fraction(num, den)))
            pos += length
        sig = BlockSignal(blocks)
        lo, hi = support_bounds(sig)
        a = data.draw(st.integers(lo - 15, lo + 2))
        b = data.draw(st.integers(max(a, hi - 2), hi + 15))  # across both support ends
        want = ["n,max_value,radius,certified,gap"]
        for n in range(a, b + 1):
            res = event_centered(sig, n)
            want.append(f"{int_str(n)},{value_str(res.max_value)},{int_str(res.radius)},true,")
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "s.json", Path(tmp) / "p.csv"
            path.write_text(json.dumps(signal_to_json(sig)))
            rng = f"{int_str(a)}..{int_str(b)}"
            assert run("profile", "--signal", str(path), "--range", rng, "--out", str(out)) == 0
            assert out.read_bytes() == ("\n".join(want) + "\n").encode()

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (10**6 - 3, 10**6 + 3),  # the first carry
            (0, 12),  # a high part of 0
            (-12, 12),  # a negative run through 0
            (-(10**6) - 3, -(10**6) + 3),  # a negative run counting toward 0
            (-(2 * 10**6) - 2, -(10**6) + 2),  # two negative carries
            (999_999_999_997, 1_000_000_000_003),  # a carry of the high part
            (2**10000 // 10**6 * 10**6 - 3, 2**10000 // 10**6 * 10**6 + 3),  # at 2^10000
            (10**5000 - 3, 10**5000 + 3),  # a carry past the digit guard
            (-(10**5000) - 3, -(10**5000) + 3),  # its negative twin
        ],
        ids=["carry", "zero-high", "through-0", "negative", "negative-carries",
             "high-carry", "at-2^10000", "past-guard", "past-guard-negative"],
    )
    def test_n_column_equals_int_str(self, lo, hi):
        assert list(_n_column(lo, hi)) == [int_str(n) for n in range(lo, hi + 1)]

    def test_range_keeps_no_row_list(self, tmp_path, t27_signal):
        # the rows are written cell by cell as they are made
        out = tmp_path / "p.csv"
        tracemalloc.start()
        try:
            code = run("profile", "--signal", str(t27_signal), "--range", "-50000..49999", "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**20
        lines = out.read_text().split("\n")
        assert len(lines) == 100002 and lines[-1] == ""
        assert lines[1].startswith("-50000,") and lines[-2].startswith("49999,")

    @pytest.mark.parametrize("offset", [2**20000, -(2**20000)], ids=["right", "left"])
    def test_range_far_outside_the_support(self, tmp_path, offset):
        # every radius and denominator passes the digit guard: int_str
        sig = BlockSignal([Block(0, 4, Fraction(1, 3)), Block(9, 9, Fraction(2))])
        path, out = tmp_path / "s.json", tmp_path / "p.csv"
        path.write_text(json.dumps(signal_to_json(sig)))
        a, b = offset - 3, offset + 3
        assert run("profile", "--signal", str(path), "--range", f"{int_str(a)}..{int_str(b)}",
                   "--out", str(out)) == 0
        want = ["n,max_value,radius,certified,gap"]
        for n in range(a, b + 1):
            res = event_centered(sig, n)
            want.append(f"{int_str(n)},{value_str(res.max_value)},{int_str(res.radius)},true,")
        assert out.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_range_one_past_point_cap(self, tmp_path, capsys):
        sig = tmp_path / "d.json"
        run("construct", "delta", "--out", str(sig))
        out = tmp_path / "prof.csv"
        cap = DEFAULT_LIMITS.profile_point_cap
        code = run("profile", "--signal", str(sig), "--range", f"1..{cap + 1}", "--out", str(out))
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: resource cap: profile over {cap + 1} points exceeds cap {cap}\n"
        )
        assert not out.exists()

    def test_points_uncentered(self, tmp_path):
        sig = tmp_path / "d.json"
        run("construct", "delta", "--out", str(sig))
        out = tmp_path / "prof.csv"
        code = run(
            "profile", "--signal", str(sig), "--points", "-5,1,4",
            "--uncentered", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,max_value,min_diameter,certified,gap"
        assert lines[1] == "-5,1/6,5,true,"

    def test_step_signal_rejected(self, tmp_path):
        sig = tmp_path / "step.json"
        run(
            "construct", "theorem27", "--g", "log", "--k", "3",
            "--variant", "continuous", "--out", str(sig),
        )
        assert run(
            "profile", "--signal", str(sig), "--range", "0..3",
            "--out", str(tmp_path / "p.csv"),
        ) == 2

    def test_needs_range_or_points(self, tmp_path, t27_signal):
        assert run(
            "profile", "--signal", str(t27_signal), "--out", str(tmp_path / "p.csv")
        ) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--points", ",", "--uncentered"],
            ["--points", "1,,2"],
            ["--points", "3,"],
            ["--points", ""],
            ["--range", "1..3", "--points", "2"],
        ],
        ids=["empty-list", "empty-entry", "trailing-comma", "empty-string", "range-and-points"],
    )
    def test_malformed_points_refused(self, tmp_path, capsys, args):
        sig = tmp_path / "d.json"
        run("construct", "delta", "--out", str(sig))
        out = tmp_path / "p.csv"
        assert run("profile", "--signal", str(sig), *args, "--out", str(out)) == 2
        assert "ParameterViolation" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_signal_file(self, tmp_path):
        assert run(
            "profile", "--signal", str(tmp_path / "absent.json"),
            "--range", "0..2", "--out", str(tmp_path / "p.csv"),
        ) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(
            "profile", "--signal", str(bad), "--range", "0..2",
            "--out", str(tmp_path / "p.csv"),
        ) == 2


    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",  # not UTF-8 text
            b'{"type": "dense", "lo": ' + b"7" * 5000 + b', "values": ["1"]}',  # over int digit limit
        ],
    )
    def test_undecodable_signal_file(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for cmd in (["profile", "--points", "0"], ["density", "--N-list", "5"]):
            assert run(
                *cmd, "--signal", str(bad), "--out", str(tmp_path / "o.csv")
            ) == 2

    def test_engine_value_error_is_not_an_input_error(self, tmp_path):
        # only bad input exits 2; a ValueError from inside the engines is
        # a fault, so it ends as a traceback with exit status 1
        sig = tmp_path / "d.json"
        assert run("construct", "delta", "--out", str(sig)) == 0
        script = (
            "import sys, hlmax.cli as cli\n"
            "def boom(*a, **k):\n"
            "    raise ValueError('engine fault')\n"
            "cli.profile = boom\n"
            f"sys.exit(cli.main(['profile', '--signal', {str(sig)!r}, "
            f"'--points', '0', '--out', {str(tmp_path / 'p.csv')!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1
        assert "ValueError: engine fault" in proc.stderr

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "blocks", "blocks": [{"start": "1", "end": "3"}]},  # no "amp"
            [1, 2],  # not a JSON object
        ],
    )
    def test_malformed_signal_document(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(
            "profile", "--signal", str(bad), "--points", "0",
            "--out", str(tmp_path / "p.csv"),
        ) == 2


class TestShortMessages:
    """An error that echoes an input abbreviates it: one stderr line under
    300 bytes, however long the input."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "dense", "lo": "a" * 100000, "values": ["1"]},
            {"type": "dense", "lo": "0", "values": ["1/" + "0" * 100000]},
            {"type": "dense", "lo": ["z" * 100000], "values": ["1"]},
            {"type": "x" * 100000},
            {"type": "blocks", "blocks": [{"start": "0", "end": "0", "amp": {"const": 7 * 10**4000}}]},
        ],
        ids=["lo-string", "zero-denominator", "lo-list", "type", "amp-number"],
    )
    def test_malformed_signal(self, tmp_path, capsys, doc):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code = run("profile", "--signal", str(path), "--points", "1", "--out", str(tmp_path / "p.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParameterViolation: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_growth_kind(self, tmp_path, capsys):
        code = run("construct", "theorem27", "--g", "q" * 100000, "--out", str(tmp_path / "x.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 300

    def test_power_law_cap_names_a_brief_length(self):
        msg = str(hlmax.signal._past_cap(10**5000, DEFAULT_LIMITS))
        assert "(5001 digits)" in msg and len(msg) < 300


class TestDensity:
    def test_series_with_growth(self, tmp_path, t27_signal):
        out = tmp_path / "dens.csv"
        code = run(
            "density", "--signal", str(t27_signal), "--N-list", "100,1000",
            "--g", "log", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("N,count_S,count_Z")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "100"

    def test_bad_constant(self, tmp_path, t27_signal):
        assert run(
            "density", "--signal", str(t27_signal), "--N-list", "10",
            "--C", "1", "--out", str(tmp_path / "d.csv"),
        ) == 2

    @pytest.mark.parametrize("n_list", ["5,,", ",", "5,,50"])
    def test_empty_n_entry_refused(self, tmp_path, capsys, t27_signal, n_list):
        out = tmp_path / "d.csv"
        assert run("density", "--signal", str(t27_signal), "--N-list", n_list, "--out", str(out)) == 2
        assert "ParameterViolation" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path, t27_signal):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run(
                "density", "--signal", str(t27_signal), "--N-list", "50,200",
                "--g", "log", "--out", str(path),
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_theorem27_k15_refusal_is_one_short_line(self, capsys):
        # the doubling cap is counted from an integer of 8896 digits, which
        # the message abbreviates
        assert run("verify", "theorem27", "--k", "15") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InfeasibleConstraint: no admissible N within 20000 doublings")
        assert err.endswith(" (8896 digits)\n") and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_delta_passes(self, capsys):
        assert run("verify", "delta") == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "certificate_recheck" in out

    def test_theorem27_passes_with_report(self, tmp_path, capsys):
        rep = tmp_path / "report.json"
        assert run(
            "verify", "theorem27", "--g", "log", "--k", "4", "--report", str(rep)
        ) == 0
        doc = json.loads(rep.read_text())
        assert doc["ok"] is True
        out = capsys.readouterr().out
        assert "block_k4_pointwise" in out
        assert "density_zero_set_half" in out
        assert "[enclosure]" in out and "[exact]" in out

    def test_linf_passes(self, capsys):
        assert run("verify", "theorem29-linf", "--k", "5") == 0
        assert "anchor_k4" in capsys.readouterr().out

    def test_linf_relaxed_anchors_start_at_a_block(self, tmp_path):
        # L_1 = 3 >= 3, but block 1 is never built: K is counted from k = 2
        rep = tmp_path / "report.json"
        assert run(
            "verify", "theorem29-linf", "--mode", "relaxed", "--n1", "9",
            "--growth-factor", "10", "--k", "4", "--report", str(rep),
        ) == 0
        doc = json.loads(rep.read_text())
        assert doc["ok"] is True
        assert doc["certificate"]["claim_ks"] == [2, 3]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n1", "-9", "--k", "3"], "--n1 must be >= 2, got -9"),
            (["--n1", "1", "--k", "3"], "--n1 must be >= 2, got 1"),
            (["--n1", "9", "--growth-factor", "-2", "--k", "4"], "--growth-factor must be >= 2, got -2"),
            (["--n1", "9", "--growth-factor", "1", "--k", "4"], "--growth-factor must be >= 2, got 1"),
        ],
    )
    @pytest.mark.parametrize("theorem", [["theorem29-linf"], ["theorem29-lp", "--p", "2", "--alpha", "3/5"]])
    def test_theorem29_relaxed_scales_must_grow(self, capsys, theorem, flags, message):
        assert run("verify", *theorem, "--mode", "relaxed", *flags) == 2
        assert capsys.readouterr().err == f"error: ParameterViolation: {message}\n"

    def test_lp_relaxed_passes(self):
        assert run(
            "verify", "theorem29-lp", "--p", "2", "--alpha", "3/5",
            "--mode", "relaxed", "--n1", "100", "--growth-factor", "10", "--k", "4",
        ) == 0

    def test_lp_paper_resource_capped(self, capsys):
        assert run("verify", "theorem29-lp", "--p", "2", "--alpha", "3/5", "--k", "2") == 3
        out = capsys.readouterr().out
        assert "RESOURCE-CAPPED" in out
        assert "unverifiable" in out

    def test_theorem27_partial_density_row_is_resource_capped(self, capsys):
        # the last block fails dominance and N_k + L_k is past the density
        # cap, so the density row is partial: unverifiable, not a traceback
        assert run(
            "verify", "theorem27", "--mode", "relaxed", "--n1", "100000", "--growth-factor", "2"
        ) == 3
        out, err = capsys.readouterr()
        assert "unverifiable  density_zero_set_half" in out
        assert "RESOURCE-CAPPED" in out
        assert "Traceback" not in out + err

    def test_infeasible_is_usage_error(self):
        assert run("verify", "theorem27", "--g", "log", "--k", "0") == 2


class TestOracleDiff:
    def test_small_run_passes(self, capsys):
        assert run("oracle-diff", "--trials", "6", "--max-width", "10", "--seed", "7") == 0
        assert "mismatches=0" in capsys.readouterr().out

    def test_deterministic_output(self, capsys):
        run("oracle-diff", "--trials", "4", "--max-width", "8", "--seed", "3")
        first = capsys.readouterr().out
        run("oracle-diff", "--trials", "4", "--max-width", "8", "--seed", "3")
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--trials", "-3"),
            ("--trials", "0"),
            ("--trials", "2.5"),
            ("--max-width", "0"),
            ("--max-width", "-1"),
            ("--max-width", "ten"),
        ],
    )
    def test_counts_below_one_usage_error(self, capsys, flag, value):
        assert run("oracle-diff", flag, value, "--seed", "1") == 2
        captured = capsys.readouterr()
        assert "mismatches" not in captured.out
        assert flag in captured.err

    def test_width_over_scan_cap_is_resource_capped(self, capsys):
        # seed 0 draws a first signal 47045 wide; the uncentered oracle
        # grid near its middle holds about 5.5e8 windows, over 16 times the
        # default scan cap, so the run is refused before any scan
        assert run("oracle-diff", "--trials", "3", "--max-width", "100000", "--seed", "0") == 3
        assert "scan cap" in capsys.readouterr().err


def declared_script(name):
    """The (module, function) pair that `[project.scripts]` in
    pyproject.toml declares for the console script `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, func = target.partition(":")
    return module.strip(), func.strip()


class TestSharedParser:
    """main builds its argparse parser once per process; what one call
    parses must not reach the next."""

    def test_parser_is_built_once(self):
        assert _make_parser() is _make_parser()

    def test_consecutive_calls_share_no_state(self, tmp_path, t27_signal):
        sig = str(t27_signal)

        def profile(name, *flags) -> bytes:
            out = tmp_path / name
            assert run("profile", "--signal", sig, *flags, "--out", str(out)) == 0
            return out.read_bytes()

        centered = profile("a.csv", "--points", "-3,0,13")
        uncentered = profile("b.csv", "--points", "-3,0,13", "--uncentered")
        assert uncentered != centered
        # every optional construct flag set, then none: the defaults return
        assert run(
            "construct", "theorem27", "--g", "loglog", "--k", "3", "--mode", "relaxed",
            "--n1", "100", "--growth-factor", "10", "--out", str(tmp_path / "x.json"),
        ) == 0
        assert run("construct", "theorem27", "--out", str(tmp_path / "y.json")) == 0
        assert (tmp_path / "y.json").read_bytes() == t27_signal.read_bytes()
        # neither --range nor --points: none is left over from the calls above
        assert run("profile", "--signal", sig, "--out", str(tmp_path / "c.csv")) == 2
        assert run("oracle-diff", "--trials", "2", "--max-width", "6", "--seed", "3") == 0
        assert profile("d.csv", "--points", "-3,0,13") == centered
        assert profile("e.csv", "--points", "-3,0,13", "--uncentered") == uncentered


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        # Run the declared target the way the wrapper that pip installs
        # does, so the check holds on a checkout that is not installed.
        module, func = declared_script("hlmax")
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        out = tmp_path / "d.json"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper],
            input="",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2  # no subcommand is a usage error
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "construct", "delta", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    @pytest.mark.skipif(
        shutil.which("hlmax") is None, reason="hlmax console script not installed"
    )
    def test_installed_console_script(self, tmp_path):
        out = tmp_path / "d.json"
        proc = subprocess.run(
            ["hlmax", "construct", "delta", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
