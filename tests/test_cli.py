"""Polynomial grammar, report schema, exit codes, batch and env handling."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpmath.libmp import NoConvergence

import nppreserve.halfline
from nppreserve import ParseError, Polynomial, UnsupportedCoefficient, parse_polynomial
from nppreserve.cli import run
from conftest import QUARTIC, QUINTIC
import parser_reference

# The over-long and over-limit tokens TestParse rejects, in context.
LONG = "1" * 5000
OVERSIZED = [f"x + {LONG}/3", f"x + 3/{LONG}", "x^1000", "x^0001000 - 1", "1 + x^1001",
             f"1 + x^{'9' * 5000}", "1e4300", "x + 1e4301", "x + 2.5e-4301", "x + 1e100000"]
# Strings over the grammar's characters, with a few whole tokens at and past the limits.
grammar_text = st.lists(
    st.sampled_from(list("0123456789xX^+-*/.eE \t\ny") + ["1" * 4400, "x^1001", "9e4301"]),
    max_size=24,
).map("".join)


def _outcome(parse, text):
    try:
        p = parse(text)
    except ParseError as exc:
        return type(exc), exc.position, str(exc)
    return p.vector, p.den


class TestParse:
    def test_quintic(self):
        assert parse_polynomial("x^5 - 2x^3 + 2x").coefficient_strings() == [
            "0", "2", "0", "-2", "0", "1",
        ]

    def test_neg_x(self):
        assert parse_polynomial("-x") == Polynomial((0, -1))

    def test_constant_fraction(self):
        assert parse_polynomial("3/4") == Polynomial((Fraction(3, 4),))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x^-1")
        assert err.value.position == 2

    def test_decimals_convert_exactly(self):
        assert parse_polynomial("0.5x^2") == Polynomial((0, 0, Fraction(1, 2)))
        assert parse_polynomial(".5") == Polynomial((Fraction(1, 2),))
        assert parse_polynomial("2.5e-2") == Polynomial((Fraction(1, 40),))

    def test_explicit_star(self):
        assert parse_polynomial("3/4*x^2 - 2*x") == Polynomial((0, -2, Fraction(3, 4)))

    def test_like_terms_combine(self):
        assert parse_polynomial("x + x") == Polynomial((0, 2))
        assert parse_polynomial("x^2 - x^2").is_zero

    def test_plain_x_power(self):
        assert parse_polynomial("x^4 - x^2 + x + 1") == QUARTIC

    def test_unsupported_symbols(self):
        with pytest.raises(UnsupportedCoefficient):
            parse_polynomial("2i")
        with pytest.raises(UnsupportedCoefficient):
            parse_polynomial("x + y")

    def test_zero_denominator(self):
        with pytest.raises(UnsupportedCoefficient):
            parse_polynomial("1/0")

    def test_malformed(self):
        for bad in ("", "2*", "x^", "+ +", "1 2"):
            with pytest.raises(ParseError):
                parse_polynomial(bad)

    def test_long_integers_rejected_at_their_position(self):
        digits = "1" * 5000  # beyond Python's int conversion
        with pytest.raises(UnsupportedCoefficient) as err:
            parse_polynomial(f"x + {digits}/3")
        assert err.value.position == 4
        message = str(err.value)
        assert len(message) < 100
        assert "'11111111111111111111'... (5000 digits)" in message
        assert message.endswith("(at position 4)")
        with pytest.raises(UnsupportedCoefficient) as err:
            parse_polynomial(f"x + 3/{digits}")
        assert err.value.position == 6
        assert len(str(err.value)) < 100 and "(5000 digits)" in str(err.value)

    def test_degree_limit(self):
        assert parse_polynomial("x^1000").degree == 1000
        assert parse_polynomial("x^0001000 - 1").degree == 1000
        for exponent in ("1001", "9" * 5000):
            with pytest.raises(ParseError) as err:
                parse_polynomial(f"1 + x^{exponent}")
            assert err.value.position == 6
        assert parse_polynomial(["1"] * 1001).degree == 1000
        with pytest.raises(ParseError) as err:
            parse_polynomial(["1"] * 1002)
        assert err.value.position == 1001

    def test_decimal_exponent_limit(self):
        assert parse_polynomial("1e4300") == Polynomial((10**4300,))
        for text in ("1e4301", "2.5e-4301", "1e100000"):
            with pytest.raises(UnsupportedCoefficient) as err:
                parse_polynomial(f"x + {text}")
            assert err.value.position == 4

    def test_coefficient_list(self):
        assert parse_polynomial(["0", "2", "0", "-2", "0", "1"]) == QUINTIC
        assert parse_polynomial(["1/2", "0.25"]) == Polynomial(
            (Fraction(1, 2), Fraction(1, 4))
        )

    def test_round_trip_on_corpus(self, corpus200):
        for p in corpus200:
            assert parse_polynomial(str(p)) == p

    @given(grammar_text)
    @settings(max_examples=500, deadline=None)
    def test_matches_scanner_reference(self, text):
        assert _outcome(parse_polynomial, text) == _outcome(parser_reference.parse_polynomial, text)

    def test_matches_scanner_reference_on_named_inputs(self):
        # coefficient lists: the tokens that int() and Decimal() read alike
        lists = [["1", "-2", "1/2", " 5 ", "0.25", "1e3"],
                 [Fraction(3, 5), 7, True], [], ["inf"], ["1/0"], [""], ["2.5/1"], ["1"] * 1002]
        for src in ["x^-1", "", "2*", "x^", "+ +", "1 2", "x + y", "1/0", "1/2.5"] + OVERSIZED + lists:
            assert _outcome(parse_polynomial, src) == _outcome(
                parser_reference.parse_polynomial, src), src[:40]

    def test_list_tokens_are_the_grammar_numbers(self, capsys):
        # int() and Decimal() also read Unicode digits, '_' and a signed
        # denominator; a list token is an ASCII number of the grammar
        for token in ("\u0661", "1_0", "3/-4"):
            with pytest.raises(UnsupportedCoefficient) as err:
                parse_polynomial(["1", "-2", token])
            assert err.value.position == 2 and repr(token) in str(err.value)
            assert run(["check-p2", "--coeffs", f"1,-2,{token}"]) == 64
        assert "Traceback" not in capsys.readouterr().err

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    @example("x^\u00b2")
    def test_any_text_parses_or_is_a_parse_error(self, text):
        try:
            assert isinstance(parse_polynomial(text), Polynomial)
        except ParseError:
            pass

    def test_non_ascii_digits_are_parse_errors(self, capsys):
        # str.isdigit accepts these, but the grammar's digits are ASCII 0-9
        for text in ("x^\u00b2", "\u0661x", "x^\u0661", "\u00b2"):
            with pytest.raises(ParseError):
                parse_polynomial(text)
            assert run(["check-p2", text]) == 64
        assert "Traceback" not in capsys.readouterr().err


class TestReports:
    def test_check_p2_json_schema(self, capsys):
        code = run(["check-p2", "x^5 - 2x^3 + 2x", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["input"] == ["0", "2", "0", "-2", "0", "1"]
        assert report["class"] == "P2"
        assert report["status"] == "not_member"
        assert report["witness_point"] == ["1", "1/2"]
        assert report["witness_matrix"] == [["0", "1"], ["1/2", "1/2"]]
        assert report["image_negative_entry"] == {"i": 1, "j": 1, "value": "-3/16"}
        names = [e["name"] for e in report["trail"]]
        assert names == ["p_prime_in_P1", "p_even_in_P1", "p_odd_in_P1", "ratio_condition"]
        assert report["budget_spent"] == {"grid_levels": 1, "grid_exact_checks": 1,
                                          "critical_points": 0, "critical_pairs": 0,
                                          "bisections": 0, "ties": 0}

    def test_cone_effort_counters(self, capsys):
        code = run(["check-p2", "x^4 + x^3 - x^2 + x + 1", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["status"]) == (0, "member")
        assert report["trail"][-1]["detail"] == "critical-points:2"
        assert report["budget_spent"] == {"grid_levels": 2, "grid_exact_checks": 12,
                                          "critical_points": 2, "critical_pairs": 0,
                                          "bisections": 4, "ties": 0}
        code = run(["check-p2", "x^5 - 1/100x^3 + x", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["status"]) == (1, "not_member")
        assert report["witness_point"] == ["1/14", "1/28"]
        assert report["budget_spent"] == {"grid_levels": 2, "grid_exact_checks": 12,
                                          "critical_points": 2, "critical_pairs": 1,
                                          "bisections": 10, "ties": 0}

    def test_budget_flags_removed(self, capsys):
        # the grid depth is fixed and there is no box budget: both flags are
        # usage errors, whatever their value
        member = "x^4 + x^3 - x^2 + x + 1"
        for flags in (["--budget-grid", "1"], ["--budget-grid", "14"], ["--budget-boxes", "1"]):
            assert run(["check-p2", member] + flags) == 64, flags
        capsys.readouterr()
        code = run(["check-p2", member, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["status"]) == (0, "member")
        assert report["budget_spent"] == {"grid_levels": 2, "grid_exact_checks": 12,
                                          "critical_points": 2, "critical_pairs": 0,
                                          "bisections": 4, "ties": 0}

    def test_member_exit_zero(self, capsys):
        code = run(["check-p2", "x^4 - x^2 + x + 1", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["status"] == "member"

    def test_circulant_neg_x(self, capsys):
        code = run(["check-circulant", "--format", "json", "--", "-x"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["status"] == "not_member"
        assert report["witness_matrix"] == [["0", "1"], ["1", "0"]]

    def test_p3_screen(self, capsys):
        code = run(["p3-screen", "x^4 - x^2 + x + 1", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["status"] == "fail"
        assert report["failing_coefficient"] == {"index": 2, "value": "-1"}
        code = run(["p3-screen", "1 + x + x^2", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"

    def test_rationals_never_serialized_as_floats(self, capsys):
        run(["check-p2", "x^5 - 2x^3 + 2x", "--format", "json"])
        report = json.loads(capsys.readouterr().out)

        def no_floats(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    no_floats(v)
            elif isinstance(node, list):
                for v in node:
                    no_floats(v)

        no_floats(report)

    def test_certificate_dump(self, capsys):
        code = run(["certificate", "5x^4 - 6x^2 + 2", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        cert = report["certificate"]
        assert set(cert) >= {"f1", "f2", "g1", "g2", "residual", "precision_bits"}
        num, _, den = cert["residual"].partition("/")
        residual = Fraction(int(num), int(den or "1"))
        assert residual <= Fraction(2) ** (8 - 128) * 6

    def test_certificate_root_finding_failure_is_unknown(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise NoConvergence("no convergence")

        monkeypatch.setattr(nppreserve.halfline, "polyroots", no_convergence)
        code = run(["certificate", "5x^4 - 6x^2 + 2", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["status"] == "unknown"
        assert "did not converge" in report["error"]

    def test_certificate_of_non_member(self, capsys):
        code = run(["certificate", "--format", "json", "--", "-x"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["status"] == "not_member"

    def test_falsify_unknown_when_nothing_found(self, capsys):
        code = run(["falsify", "x^2", "--trials", "200", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["status"] == "unknown"

    def test_falsify_finds_violation(self, capsys):
        code = run(["falsify", "x^5 - 2x^3 + 2x", "--trials", "10000",
                    "--seed", "42", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["status"] == "not_member"
        assert "witness_matrix" in report and "image_negative_entry" in report

    def test_witness_command_removed(self, capsys):
        # the former witness subcommand ran check-p2's path; it is gone
        assert run(["witness", "x^5 - 2x^3 + 2x", "--format", "json"]) == 64
        capsys.readouterr()
        code = run(["check-p2", "x^5 - 2x^3 + 2x", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["witness_matrix"] == [["0", "1"], ["1/2", "1/2"]]

    def test_unknown_exit_code(self, capsys):
        # check-p2 never exits 2: the cone decision is exact, and the grid
        # only picks a canonical witness
        cases = [
            ("x^5 - 2x^3 + 2x", 1),  # level 1 refutes
            ("x^5 - 3x^3 + 9/4*x", 1),  # spectral failure
            ("x^5 - 1/100x^3 + x", 1),  # decided on the critical pair, below the grid
            ("3/2x^4 + 3/2x^3 - 9/4x^2 + 3x + 27/32", 0),  # touches zero on the diagonal
            ("x^8 + 2x^7 - 6x^6 - 18x^5 + 5x^4 + 36x^3 + 20x^2 + 125x", 0),  # interior touch
        ]
        for expression, expected in cases:
            code = run(["check-p2", expression, "--format", "json"])
            report = json.loads(capsys.readouterr().out)
            assert code == expected, expression
            if code == 1:
                entry = report["image_negative_entry"]
                assert Fraction(entry["value"]) < 0
        # falsify still reports unknown when it finds nothing
        assert run(["falsify", "x^2", "--trials", "10", "--format", "json"]) == 2
        capsys.readouterr()


class TestBatchAndConfig:
    def test_module_entry_point(self):
        src = str(Path(nppreserve.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-m", "nppreserve", "check-p2", "x", "--format", "json"],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0 and out.stderr == ""
        assert json.loads(out.stdout)["status"] == "member"

    def test_batch_ndjson(self, tmp_path, capsys):
        batch = tmp_path / "polys.txt"
        batch.write_text("x^5 - 2x^3 + 2x\nx^4 - x^2 + x + 1\n\nx\n")
        code = run(["check-p2", "--batch", str(batch), "--format", "json"])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1  # worst status across the batch
        assert [r["status"] for r in lines] == ["not_member", "member", "member"]

    def test_batch_parse_error_keeps_other_lines(self, tmp_path, capsys):
        batch = tmp_path / "polys.txt"
        batch.write_text("x\nx^^2\n")
        code = run(["check-p2", "--batch", str(batch), "--format", "json"])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 64  # a parse error outranks every status
        assert lines[0]["status"] == "member"
        assert lines[1]["line"] == 2 and lines[1]["status"] == "parse_error"
        assert "position 2" in lines[1]["error"]
        assert run(["check-p2", "--batch", str(batch)]) == 64
        blocks = capsys.readouterr().out.split("\n\n")
        assert blocks[0].startswith("class: P2\nstatus: member")
        assert blocks[1].startswith("line: 2\nstatus: parse_error\nerror: ")

    def test_oversized_input_is_a_parse_error(self, tmp_path, capsys):
        digits = "1" * 5000
        assert run(["check-p2", f"{digits}/3x"]) == 64
        assert run(["check-p2", f"x^{digits}"]) == 64
        assert run(["check-p2", "--coeffs", ",".join(["1"] * 1002)]) == 64
        err = capsys.readouterr().err
        assert err.count("parse error") == 3 and "Traceback" not in err
        assert "(5000 digits)" in err and len(err) < 400
        batch = tmp_path / "polys.txt"
        batch.write_text(f"x\n3/{digits}x^2\nx^1001\n-x\n")
        code = run(["check-p2", "--batch", str(batch), "--format", "json"])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 64
        assert [r["status"] for r in lines] == ["member", "parse_error", "parse_error", "not_member"]
        assert "position 2" in lines[1]["error"] and "position 2" in lines[2]["error"]
        assert len(lines[1]["error"]) < 100 and "(5000 digits)" in lines[1]["error"]

    def test_env_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("NP_PRESERVE_SEED", "42")
        monkeypatch.setenv("NP_PRESERVE_TRIALS", "500")
        monkeypatch.setenv("NP_PRESERVE_FORMAT", "json")
        code = run(["falsify", "x^5 - 2x^3 + 2x"])
        report = json.loads(capsys.readouterr().out)
        assert report["budget_spent"] == {"trials": 9, "seed": 42}  # hit at the 9th
        assert code == 1
        code = run(["falsify", "x^2"])
        report = json.loads(capsys.readouterr().out)
        assert report["budget_spent"] == {"trials": 500, "seed": 42}
        assert code == 2

    def test_flags_beat_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NP_PRESERVE_TRIALS", "77")
        run(["falsify", "x^2", "--trials", "10", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["budget_spent"]["trials"] == 10

    def test_help_shows_env_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("NP_PRESERVE_TRIALS", "5")
        monkeypatch.setenv("NP_PRESERVE_PRECISION", "96")
        with pytest.raises(SystemExit) as exit_info:
            run(["falsify", "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "falsification trials (default 5)" in text
        assert "oracle seed (default 0)" in text
        assert "certificate precision bits (default 96)" in text

    def test_usage_errors(self, capsys, monkeypatch, tmp_path):
        assert run(["check-p2"]) == 64  # no input
        assert run(["check-p2", "x", "--coeffs", "0,1"]) == 64  # two inputs
        assert run(["check-p2", "x", "--budget-grid", "0"]) == 64  # no such flag
        assert run(["check-p2", "x^-1"]) == 64  # parse error
        assert run(["check-p2", "--batch", "/nonexistent/file"]) == 64
        capsys.readouterr()
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"x\n\xff\n")
        assert run(["check-p2", "--batch", str(latin1)]) == 64  # not UTF-8
        assert capsys.readouterr().err.startswith("nppreserve: cannot read batch file: ")
        monkeypatch.setenv("NP_PRESERVE_TRIALS", "abc")
        assert run(["check-p2", "x"]) == 64
        assert capsys.readouterr().err == "nppreserve: NP_PRESERVE_TRIALS must be an integer, got 'abc'\n"
        monkeypatch.delenv("NP_PRESERVE_TRIALS")
        monkeypatch.setenv("NP_PRESERVE_FORMAT", "xml")
        assert run(["check-p2", "x"]) == 64
        assert capsys.readouterr().err == "nppreserve: format must be 'text' or 'json'\n"

    def test_exit_codes_match_status(self, capsys):
        cases = [
            (["check-p2", "x^4 - x^2 + x + 1"], 0),
            (["check-p2", "x^5 - 2x^3 + 2x"], 1),
            (["p3-screen", "x^4 - x^2 + x + 1"], 1),
            (["p3-screen", "x^2"], 0),
            (["check-p1", "x"], 0),
        ]
        for argv, expected in cases:
            assert run(argv + ["--format", "json"]) == expected
        capsys.readouterr()
