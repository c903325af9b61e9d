"""Parser, serialization, and CLI tests."""

import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import frobw.frontend as frontend
import frobw.splitting as splitting
from frobw.errors import ParseError
from frobw.ffkernel import PolynomialFp, PrimeField
from frobw.frontend import Report, parse_fan, parse_polynomial, run_cli
from frobw.splitting import diagonal_hypersurface, fano_report, profile

CUBIC = "x0^3+x1^3+x2^3+x3^3"
DATA = Path(__file__).parent / "data"


def format_polynomial(poly: PolynomialFp, names) -> str:
    """poly in the input grammar, for a poly without a constant term."""
    parts = []
    for exps, c in poly.terms.items():
        factors = [f"{names[i]}^{a}" if a > 1 else names[i]
                   for i, a in enumerate(exps) if a > 0]
        if c != 1:
            factors.insert(0, str(c))
        parts.append("*".join(factors))
    return " + ".join(parts)


class TestParsePolynomial:
    def test_diagonal_cubic(self):
        src = parse_polynomial(CUBIC, 5)
        assert src.names == ("x0", "x1", "x2", "x3")
        assert len(src.poly.terms) == 4
        assert src.poly.homogeneous_degree == 3

    def test_negative_coefficient_mod_p(self):
        src = parse_polynomial("x^2 - y^2", 7)
        assert src.poly.terms == {(2, 0): 1, (0, 2): 6}

    def test_explicit_star_and_coefficients(self):
        src = parse_polynomial("2*x*y + 3x^2", 5)
        assert src.poly.terms == {(1, 1): 2, (2, 0): 3}

    def test_repeated_variable_multiplies(self):
        src = parse_polynomial("x*x*x", 5)
        assert src.poly.terms == {(3,): 1}

    def test_parentheses_rejected(self):
        with pytest.raises(ParseError,
                           match="implicit product parentheses unsupported"):
            parse_polynomial("x^2(z^3-w^3)", 11)

    def test_unknown_character(self):
        with pytest.raises(ParseError, match="unknown character"):
            parse_polynomial("x? + y", 5)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_polynomial("   ", 5)

    def test_zero_polynomial(self):
        with pytest.raises(ParseError, match="zero polynomial"):
            parse_polynomial("x - x", 5)
        with pytest.raises(ParseError, match="zero polynomial"):
            parse_polynomial("5*x", 5)

    def test_vanishing_coefficient_warns(self):
        src = parse_polynomial("5*x + y", 5)
        assert src.poly.terms == {(0, 1): 1}
        assert any("vanishes" in w for w in src.warnings)

    def test_exponent_zero_warns_but_parses(self):
        src = parse_polynomial("x^0*y + y", 5)
        assert src.poly.terms == {(0, 2): 2} or src.poly.terms == {(0, 1): 2}
        assert any("exponent 0" in w for w in src.warnings)

    def test_explicit_vars_order(self):
        src = parse_polynomial("y^2 + x^2", 5, ["x", "y"])
        assert src.names == ("x", "y")
        assert src.poly.terms == {(2, 0): 1, (0, 2): 1}

    def test_unknown_variable_with_explicit_vars(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_polynomial("x + z", 5, ["x", "y"])

    def test_constant_term_rejected(self):
        with pytest.raises(ParseError, match="without variables"):
            parse_polynomial("3 + x", 5)

    @pytest.mark.parametrize("text, message", [
        ("x* + y", "dangling '*' at end of term"),
        ("x*", "dangling '*' at end of term"),
        ("x^ + y", "missing exponent after '^' on x"),
        ("x^*y", "missing exponent after '^' on x"),
        ("2*3*x", "unexpected '3' in term (expected a variable)"),
        ("x^2^3", "unexpected '^' in term (expected a variable)"),
        ("x*2", "unexpected '2' in term (expected a variable)"),
    ])
    def test_malformed_term_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, 5)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, terms", [
        ("--x", {(1,): 1}),
        ("x + -y", {(1, 0): 1, (0, 1): 4}),
        ("x - -y", {(1, 0): 1, (0, 1): 1}),
        ("- + -x", {(1,): 1}),
    ])
    def test_consecutive_signs_multiply(self, text, terms):
        assert parse_polynomial(text, 5).poly.terms == terms

    @pytest.mark.parametrize("text, sign", [("x -", "-"), ("x +", "+"),
                                            ("x + y --", "-")])
    def test_trailing_sign_rejected(self, text, sign):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, 5)
        assert str(info.value) == f"trailing {sign!r} after the last term"

    @pytest.mark.parametrize("text", ["-", "+ -"])
    def test_no_term_is_empty_input(self, text):
        with pytest.raises(ParseError, match="empty input"):
            parse_polynomial(text, 5)

    @pytest.mark.parametrize("names", [["x", "x", "y"], ["x", "", "y"],
                                       ["x", "2y"], ["x", " y"], [""]])
    def test_vars_must_be_distinct_identifiers(self, names):
        with pytest.raises(ParseError, match="distinct identifiers"):
            parse_polynomial("x^2 + y^2", 5, names)

    def test_implicit_product(self):
        src = parse_polynomial("3x y^2", 5)
        assert src.names == ("x", "y")
        assert src.poly.terms == {(1, 2): 3}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_roundtrip_random(self, p):
        rng = random.Random(p * 1000 + 17)
        names = ["x", "y", "zz", "w1"]
        for _ in range(1000):
            nterms = rng.randint(1, 5)
            terms = {}
            for _ in range(nterms):
                exps = tuple(rng.randint(0, 4) for _ in names)
                if all(a == 0 for a in exps):
                    continue
                terms[exps] = rng.randint(1, p - 1)
            if not terms:
                continue
            poly = PolynomialFp(PrimeField(p), len(names), terms)
            if poly.is_zero():
                continue
            text = format_polynomial(poly, names)
            reparsed = parse_polynomial(text, p, names)
            assert reparsed.poly.terms == poly.terms, text


class TestParseFan:
    def test_valid(self):
        fan = parse_fan(json.dumps({
            "dim": 2,
            "rays": [[1, 0], [0, 1], [-1, -1]],
            "cones": [[0, 1], [1, 2], [0, 2]],
        }))
        assert fan.d == 2 and len(fan.rays) == 3

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_fan("{not json")

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing key"):
            parse_fan(json.dumps({"dim": 2, "rays": []}))

    def test_non_integer_entries(self):
        with pytest.raises(ParseError, match="integer"):
            parse_fan(json.dumps({"dim": 2, "rays": [[0.5, 1]],
                                  "cones": [[0]]}))

    @pytest.mark.parametrize("fan", [
        {"dim": True, "rays": [[1], [-1]], "cones": [[0], [1]]},
        {"dim": 1, "rays": [[True], [-1]], "cones": [[0], [1]]},
        {"dim": 1, "rays": [[1], [-1]], "cones": [[0], [True]]},
    ])
    def test_booleans_are_not_integers(self, fan):
        with pytest.raises(ParseError, match="integer"):
            parse_fan(json.dumps(fan))


class TestReports:
    def run(self, argv):
        buf = io.StringIO()
        code = run_cli(argv, buf)
        return code, buf.getvalue()

    def test_split_json(self):
        code, out = self.run(["split", "--p", "5", "--poly", CUBIC,
                              "--e", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "split"
        assert rep["results"][0]["m_e"] == 1
        assert rep["results"][0]["alpha_e"] == "1/5"
        assert set(rep) == {"kind", "input", "p", "results", "checks",
                            "version", "elapsed_ms"}

    def test_json_deterministic_modulo_elapsed(self):
        _, out1 = self.run(["split", "--p", "5", "--poly", CUBIC,
                            "--e", "1"])
        _, out2 = self.run(["split", "--p", "5", "--poly", CUBIC,
                            "--e", "1"])
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2,
                                                            sort_keys=True)

    def test_csv_matches_json_numbers(self):
        code, js = self.run(["split", "--p", "3",
                             "--poly", "x0^2+x1^2+x2^2+x3^2", "--e", "1"])
        assert code == 0
        code, csv_text = self.run(["split", "--p", "3",
                                   "--poly", "x0^2+x1^2+x2^2+x3^2",
                                   "--e", "1", "--format", "csv"])
        assert code == 0
        rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
        jrows = json.loads(js)["results"][0]["rows"]
        assert len(rows) == len(jrows)
        for got, want in zip(rows, jrows):
            assert [int(x) for x in got] == [want["e"], want["m"],
                                             want["dimRm"], want["b"],
                                             want["dimIe"]]

    def test_level_range(self):
        code, out = self.run(["split", "--p", "3",
                              "--poly", "x0^2+x1^2+x2^2+x3^2",
                              "--e", "1..2"])
        assert code == 0
        rep = json.loads(out)
        assert [r["e"] for r in rep["results"]] == [1, 2]
        assert rep["results"][1]["monotone_ok"] is True

    def test_toric_alpha_cli(self, tmp_path):
        fan = tmp_path / "p1xp1.json"
        fan.write_text(json.dumps({
            "dim": 2,
            "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
            "cones": [[0, 2], [2, 1], [1, 3], [3, 0]],
        }))
        code, out = self.run(["toric-alpha", "--fan", str(fan)])
        assert code == 0
        rep = json.loads(out)
        assert rep["results"][0]["alpha"] == "1/2"
        assert rep["results"][0]["alpha_approx"] == 0.5

    def test_membership_cli(self):
        code, out = self.run(["membership", "--p", "5", "--e", "1",
                              "--poly", CUBIC, "--element", "x0^2"])
        assert code == 0
        assert json.loads(out)["results"][0]["member"] is True

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = self.run(["split", "--p", "5", "--poly", CUBIC,
                              "--e", "1", "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["kind"] == "split"


class TestExitCodes:
    def run(self, argv):
        return run_cli(argv, io.StringIO())

    def test_usage_errors(self):
        assert self.run(["split", "--p", "5"]) == 1
        assert self.run(["bogus"]) == 1
        assert self.run(["split", "--p", "5", "--poly", "x^2+y^2",
                         "--e", "0..2"]) == 1

    def test_fano_levels_start_at_one(self, capsys):
        # fano reports every level from 1 to b, so a range starting past 1
        # is refused before any work; 1..b means the same as b
        assert self.run(["fano", "--p", "5", "--poly", CUBIC,
                         "--e", "2..3"]) == 1
        assert "every level from 1 to b" in capsys.readouterr().err
        assert _report(["fano", "--p", "5", "--poly", CUBIC, "--e", "1..2"]) \
            == _report(["fano", "--p", "5", "--poly", CUBIC, "--e", "2"])

    @pytest.mark.parametrize("command", ["split", "fano"])
    def test_duality_check_cannot_be_switched_off(self, command):
        assert self.run([command, "--p", "5", "--poly", CUBIC,
                         "--no-duality-check"]) == 1

    def test_parse_errors(self):
        assert self.run(["split", "--p", "11",
                         "--poly", "x^2(z^3-w^3)", "--e", "1"]) == 2
        assert self.run(["split", "--p", "5", "--poly", "x - x",
                         "--e", "1"]) == 2

    @pytest.mark.parametrize("poly", ["x^2 + y^2 -", "x^2 + y^2 +"])
    def test_trailing_sign(self, poly, capsys):
        assert self.run(["split", "--p", "5", "--poly", poly]) == 2
        assert "after the last term" in capsys.readouterr().err

    @pytest.mark.parametrize("names", ["x,x,y,z", "x,,y,z", "x,y,z,",
                                       "x,y,3z", ""])
    def test_bad_vars(self, names, capsys):
        poly = ["--p", "5", "--poly", "x^2+y^2+z^2", "--vars", names]
        assert self.run(["split"] + poly) == 2
        assert self.run(["membership", "--element", "x"] + poly) == 2
        assert capsys.readouterr().err.count("distinct identifiers") == 2

    def test_fan_booleans_exit_code(self, tmp_path):
        fan = tmp_path / "bool.json"
        fan.write_text(json.dumps({"dim": True, "rays": [[True], [-1]],
                                   "cones": [[0], [True]]}))
        assert self.run(["toric-alpha", "--fan", str(fan)]) == 2

    def test_validation_errors(self):
        # Calabi-Yau quartic: non-Fano
        assert self.run(["fano", "--p", "5",
                         "--poly", "x0^4+x1^4+x2^4+x3^4", "--e", "1"]) == 3
        # composite modulus
        assert self.run(["split", "--p", "4", "--poly", "x^2+y^2",
                         "--e", "1"]) == 3
        # not F-split at the requested level
        assert self.run(["split", "--p", "5",
                         "--poly", "x^3+y^3+z^3", "--e", "1"]) == 3

    def test_fan_validation_exit_code(self, tmp_path):
        fan = tmp_path / "bad.json"
        fan.write_text(json.dumps({"dim": 2, "rays": [[2, 0], [0, 1]],
                                   "cones": [[0, 1]]}))
        assert self.run(["toric-alpha", "--fan", str(fan)]) == 3
        fan.write_text(json.dumps({
            "dim": 2, "rays": [[1, 0], [0, 1], [-1, -1], [1, 0]],
            "cones": [[0, 1], [1, 2], [2, 3]]}))
        assert self.run(["toric-alpha", "--fan", str(fan)]) == 3

    def test_oversized_power_refused_fast(self):
        t0 = time.monotonic()
        assert self.run(["split", "--p", "1000003",
                         "--poly", "x0^2+x1^2+x2^2"]) == 3
        assert time.monotonic() - t0 < 5

    def test_conic_past_the_old_ladder_cap_answered(self):
        # x^2 + xy + y^2 has more multi-indices than G^(p-1) has terms, so
        # its base is the exact division G(x^p) / G; the squaring ladder
        # refused it over F_100003 (about 1.5e10 outer-sum cells)
        buf = io.StringIO()
        t0 = time.monotonic()
        assert run_cli(["membership", "--p", "100003", "--poly",
                        "x^2+x*y+y^2", "--element", "x*y",
                        "--vars", "x,y"], buf) == 0
        assert time.monotonic() - t0 < 5
        res = json.loads(buf.getvalue())["results"][0]
        assert res == {"member": True, "in_principal_ideal": False}

    @pytest.mark.parametrize("argv", [
        ["membership", "--element", "x", "--e", "100000"],
        ["membership", "--element", "x", "--e", "99999999999999999999"],
        ["split", "--e", "1..99999999999999999999"],
        ["fano", "--e", "99999999999999999999"]],
        ids=["membership-e1e5", "membership-e1e20", "split-e1..1e20",
             "fano-e1e20"])
    def test_level_past_int64_refused_first(self, argv, capsys):
        # q = 5^e past int64 is refused before any big integer is formed,
        # and a top level before level 1 is ranked (levels 1-4 of the conic
        # take about a minute)
        t0 = time.monotonic()
        assert self.run(argv[:1] + ["--p", "5", "--poly", "x^2+y^2+z^2"]
                        + argv[1:]) == 3
        assert time.monotonic() - t0 < 5
        err = capsys.readouterr().err
        assert err.startswith("validation error: level too large: q = 5^")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["split", "--e", "5"], ["split", "--e", "4..5"], ["fano", "--e", "5"]],
        ids=["split-e5", "split-e4..5", "fano-e5"])
    def test_top_level_over_count_caps_refused_first(self, argv, monkeypatch,
                                                     capsys):
        # Phi_{5,0} of the conic is 4884375 x 1, over the side cap, so the
        # top level is refused before any G^(q-1) is powered (levels 1-4
        # would take about a minute)
        def unpowered(*args):
            raise AssertionError("G^(q-1) was powered")
        monkeypatch.setattr(splitting, "digit_power", unpowered)
        t0 = time.monotonic()
        assert self.run(argv[:1] + ["--p", "5", "--poly", "x^2+y^2+z^2"]
                        + argv[1:]) == 3
        assert time.monotonic() - t0 < 5
        err = capsys.readouterr().err
        assert err.startswith("validation error: instance too large at m=0: "
                              "matrix is 4884375 x 1, side cap")
        assert len(err.strip().splitlines()) == 1

    def test_exponent_past_int64_refused(self, capsys):
        assert self.run(["split", "--p", "5", "--poly",
                         "x^99999999999999999999+y^99999999999999999999"]) \
            == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: exponent too large")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("p", [32771, 40009])
    def test_exponents_past_int16_refused(self, p, capsys):
        # G^(p-1) has exponents p - 1 >= 2^15; the whole Phi is refused by
        # its side cap, not by an overflow
        assert self.run(["split", "--p", str(p), "--poly", "x0*x1",
                         "--vars", "x0,x1,x2"]) == 3
        assert "side cap" in capsys.readouterr().err

    def test_unexpected_exception_exit_code(self, monkeypatch, capsys):
        def broken(args, stream):
            raise RuntimeError("boom")
        monkeypatch.setattr(frontend, "_cmd_split", broken)
        assert self.run(["split", "--p", "5", "--poly", CUBIC]) == 4
        err = capsys.readouterr().err
        assert "unexpected error (this is a bug)" in err and "boom" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_must_be_positive(self, threads, capsys):
        assert self.run(["split", "--p", "5", "--poly", CUBIC,
                         "--threads", threads]) == 1
        assert "positive integer" in capsys.readouterr().err

    def test_toric_csv_refused(self, capsys):
        # a toric report has no b-profile table to write as CSV
        argv = ["toric-alpha", "--fan", str(DATA / "P2.fan.json")]
        assert self.run(argv + ["--format", "csv"]) == 1
        assert "invalid choice: 'csv'" in capsys.readouterr().err
        assert self.run(argv + ["--format", "json"]) == 0

    def test_threads_leave_the_report_unchanged(self):
        argv = ["split", "--p", "5", "--poly", CUBIC, "--e", "1..2"]
        assert (_report(argv + ["--threads", "1"])
                == _report(argv + ["--threads", "4"]))


@pytest.mark.parametrize("spaced,joined", [
    (["split", "--p", "5", "--poly", "-x^2-y^2-z^2", "--e", "1..2"],
     ["split", "--p", "5", "--poly=-x^2-y^2-z^2", "--e", "1..2"]),
    (["membership", "--p", "5", "--poly", "-x0^3-x1^3-x2^3-x3^3",
      "--element", "-x0^2"],
     ["membership", "--p", "5", "--poly=-x0^3-x1^3-x2^3-x3^3",
      "--element=-x0^2"]),
])
def test_leading_sign_as_separate_word(spaced, joined):
    assert _report(spaced) == _report(joined)


def _report(argv) -> dict:
    """The JSON report of a CLI request, without its elapsed_ms."""
    buf = io.StringIO()
    assert run_cli(argv, buf) == 0
    rep = json.loads(buf.getvalue())
    del rep["elapsed_ms"]
    return rep


def test_ranks_start_no_thread(monkeypatch):
    """threads=4 certifies every rank on the calling thread, with the
    values of threads=1."""
    def run(threads):  # fresh rings, so no rank comes from a cache
        return (profile(diagonal_hypersurface(3, 4, 2), 2, threads=threads),
                fano_report(diagonal_hypersurface(5, 4, 3), 2,
                            threads=threads),
                _report(["split", "--p", "3", "--poly",
                         "x0^2+x1^2+x2^2+x3^2", "--e", "1..2",
                         "--threads", str(threads)]))

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    serial = run(1)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run(4) == serial


# golden reports, written by the CLI before its parser and report builders
# were rewritten; elapsed_ms is left out and fan paths are relative to DATA
GOLDEN = {
    "split_cubic_p5_e1-2.json": ["split", "--p", "5", "--poly", CUBIC,
                                 "--e", "1..2"],
    "split_cubic_p5_e1-2.csv": ["split", "--p", "5", "--poly", CUBIC,
                                "--e", "1..2", "--format", "csv"],
    "fano_cubic_p5_e2.json": ["fano", "--p", "5", "--poly", CUBIC,
                              "--e", "2"],
    "toric_P2.json": ["toric-alpha", "--fan", "P2.fan.json"],
    "toric_P1xP1xP1.json": ["toric-alpha", "--fan", "P1xP1xP1.fan.json"],
    "membership_cubic_p11.json": ["membership", "--p", "11", "--e", "1",
                                  "--poly", CUBIC,
                                  "--element", "x0^2*x2^3 - x0^2*x3^3"],
}


def _golden_text(argv) -> str:
    """The CLI's output for argv, without the line of its elapsed_ms."""
    buf = io.StringIO()
    assert run_cli(argv, buf) == 0
    text, n = re.subn(r'^  "elapsed_ms": \d+,\n', "", buf.getvalue(),
                      flags=re.M)
    assert n == (0 if "csv" in argv else 1)
    return text


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name, monkeypatch):
    monkeypatch.chdir(DATA)
    assert _golden_text(GOLDEN[name]).encode() == (DATA / name).read_bytes()


@pytest.mark.parametrize("first,second", itertools.permutations(
    ["split_cubic_p5_e1-2.csv", "toric_P2.json", "membership_cubic_p11.json"],
    2))
def test_parser_kept_between_requests(first, second, monkeypatch):
    # run_cli builds its parser once per process; a second request with
    # another subcommand answers as it does with a freshly built parser
    monkeypatch.chdir(DATA)
    fresh = []
    for name in (first, second):
        frontend.build_parser.cache_clear()
        fresh.append(_golden_text(GOLDEN[name]))
    assert [_golden_text(GOLDEN[name]) for name in (first, second)] == fresh
    assert frontend.build_parser() is frontend.build_parser()


class TestReportObject:
    def test_rationals_never_floats(self):
        buf = io.StringIO()
        run_cli(["split", "--p", "5", "--poly", CUBIC, "--e", "1"], buf)
        rep = json.loads(buf.getvalue())
        res = rep["results"][0]
        assert "/" in res["alpha_e"] and "/" in res["s_raw"]
        assert isinstance(res["alpha_e_approx"], float)

    def test_csv_shape(self):
        rep = Report(kind="split", input={}, p=5, results=[
            {"rows": [{"e": 1, "m": 0, "dimRm": 1, "b": 1, "dimIe": 0}]}],
            checks={}, version="0", elapsed_ms=0)
        assert rep.to_csv() == "e,m,dimRm,b,dimIe\n1,0,1,1,0\n"


# a split request whose certification verifies sketch kernels, run with
# every import of scipy failing
_WITHOUT_SCIPY = """
import io, json, sys
sys.modules["scipy"] = None
import frobw.frontend as frontend
import frobw.splitting as splitting
checks = []
verify = splitting._kernel_verifies

def counted(*args):
    checks.append(1)
    return verify(*args)

splitting._kernel_verifies = counted
rc = frontend.run_cli(["split", "--p", "3", "--poly",
                       "x0^2+x1^2+x2^2+x3^2+x4^2", "--e", "2",
                       "--threads", "1"], io.StringIO())
del sys.modules["scipy"]
print(json.dumps({"rc": rc, "checks": len(checks),
                  "scipy": [n for n in sys.modules
                            if n.partition(".")[0] == "scipy"]}))
"""


def test_cli_needs_no_scipy():
    src = Path(frontend.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["rc"] == 0 and out["checks"] >= 1
    assert out["scipy"] == []
