"""Polynomial grammar, report schema, exit codes, batch and env handling."""

import json
from fractions import Fraction

import pytest

from nppreserve import ParseError, Polynomial, UnsupportedCoefficient, parse_polynomial
from nppreserve.cli import run
from conftest import QUARTIC, QUINTIC


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

    def test_coefficient_list(self):
        assert parse_polynomial(["0", "2", "0", "-2", "0", "1"]) == QUINTIC
        assert parse_polynomial(["1/2", "0.25"]) == Polynomial(
            (Fraction(1, 2), Fraction(1, 4))
        )

    def test_round_trip_on_corpus(self, corpus200):
        for p in corpus200:
            assert parse_polynomial(str(p)) == p


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

    def test_witness_command(self, capsys):
        code = run(["witness", "x^5 - 2x^3 + 2x", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["witness_matrix"] == [["0", "1"], ["1/2", "1/2"]]

    def test_unknown_exit_code(self, capsys):
        # quintic edges pass but the inside is genuinely negative: with a
        # tiny refutation grid the verdict stays unknown
        code = run(["check-p2", "x^5 - 2x^3 + 2x", "--budget-grid", "1",
                    "--budget-boxes", "4", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["status"]) == (1, "not_member")  # level 1 already refutes
        code = run(["check-p2", "x^5 - 3x^3 + 9/4*x", "--budget-grid", "1",
                    "--budget-boxes", "2", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code in (1, 2)


class TestBatchAndConfig:
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

    def test_usage_errors(self, capsys):
        assert run(["check-p2"]) == 64  # no input
        assert run(["check-p2", "x", "--coeffs", "0,1"]) == 64  # two inputs
        assert run(["check-p2", "x", "--budget-grid", "0"]) == 64
        assert run(["check-p2", "x^-1"]) == 64  # parse error
        assert run(["check-p2", "--batch", "/nonexistent/file"]) == 64
        capsys.readouterr()

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
