"""Command-line front end: polynomial grammar, subcommands, exact JSON output.

Every rational in a report is serialized as a 'num/den' string; the only
floats ever printed are the readability copies in the certificate dump,
which always travel with the exact residual.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .halfline import CertificateNotFound, polya_szego_certificate
from .matrices import Matrix2, _falsify, horner_matrix_eval
from .polynomial import Polynomial
from .preserver import (
    MembershipStatus,
    MembershipVerdict,
    PreserverClass,
    check_circulant2,
    check_p1,
    check_p2,
    p3_necessary_screen,
)

PolySource = Union[str, Sequence[Union[str, int, Fraction]]]


class ParseError(ValueError):
    """Malformed polynomial input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedCoefficient(ParseError):
    """Token that is not an exact rational (complex units, symbols, ...)."""


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise _UsageError(message)


# -- polynomial grammar --------------------------------------------------------

#: The largest degree the grammar accepts.  A larger exponent, or a longer
#: coefficient list, is rejected before any coefficient is allocated.
MAX_DEGREE = 1000
#: The largest power of ten a decimal token may carry, the digit limit of
#: Python's int conversion: 1e99999999999 would allocate all its digits.
MAX_DIGITS = 4300
#: Characters of a token that an error message quotes.
_QUOTE_HEAD = 20

#: One term: an optional sign, an optional number with an optional /den and
#: '*', and an optional x^k, then the blanks before the next term.  Every
#: part is optional, so the match never fails; _expression_terms turns a
#: missing or malformed part into the error of its position.  Digits are
#: ASCII only: str.isdigit also accepts '²', which int() cannot read.
_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_TERM = re.compile(
    rf"\s*(?P<term>(?P<sign>[+-]?)\s*"
    rf"(?:(?P<num>{_NUMBER})(?:(?P<slash>/)(?P<den>{_NUMBER})?)?\s*(?P<star>\*\s*)?)?"
    rf"(?P<x>[xX](?:(?P<caret>\^)(?P<exp>[0-9]*))?)?)\s*"
)
_DECIMAL = re.compile("[.eE]")
#: One --coeffs token: a signed number of the grammar, or a signed a/b.
_COEFFICIENT = re.compile(rf"[+-]?(?:{_NUMBER}|[0-9]+/[0-9]+)")

#: (power, numerator, denominator) of one term or coefficient.
_Term = tuple[int, int, int]


def _rational_pair(text: str, position: int) -> tuple[int, int]:
    """Exact (numerator, denominator) of a token that _COEFFICIENT matches."""
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            if int(den) == 0:
                raise UnsupportedCoefficient("zero denominator", position)
            return int(num), int(den)
        if _DECIMAL.search(text):
            value = Decimal(text)
            if abs(value.as_tuple().exponent) > MAX_DIGITS:
                raise UnsupportedCoefficient(f"decimal exponent beyond {MAX_DIGITS}", position)
            return value.as_integer_ratio()
        return int(text), 1
    except UnsupportedCoefficient:
        raise
    except (ValueError, InvalidOperation):
        # a matching token fails only by size: int()'s digit limit or
        # Decimal's exponent range
        raise UnsupportedCoefficient(f"cannot read {_quote(text)} as a rational", position)


def _quote(token: str) -> str:
    """The token quoted for an error message; a long one only by its head."""
    if len(token) <= _QUOTE_HEAD:
        return repr(token)
    return f"{token[:_QUOTE_HEAD]!r}... ({sum(ch.isdigit() for ch in token)} digits)"


def _coefficient_terms(items: Iterable) -> list[_Term]:
    terms = []
    for index, item in enumerate(items):
        if index > MAX_DEGREE:
            raise ParseError(f"more than {MAX_DEGREE + 1} coefficients", index)
        if isinstance(item, (Fraction, int)):
            pair = item.as_integer_ratio()
        else:
            token = str(item).strip()
            if not token:
                raise ParseError("empty coefficient", index)
            if not _COEFFICIENT.fullmatch(token):
                raise UnsupportedCoefficient(f"cannot read {_quote(token)} as a rational", index)
            pair = _rational_pair(token, index)
        terms.append((index, *pair))
    return terms


def _expression_terms(text: str) -> list[_Term]:
    terms: list[_Term] = []
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        at, end = m.span("term")
        if at == len(text):
            if not terms:
                raise ParseError("empty polynomial expression", at)
            return terms
        if terms and not m["sign"]:
            raise ParseError("expected '+' or '-' between terms", at)
        n = d = 1
        if m["slash"]:
            den_at = m.end("slash")
            if m["den"] is None or _DECIMAL.search(m["num"] + m["den"]):
                raise ParseError("a/b form needs integers", den_at)
            n = _rational_pair(m["num"], m.start("num"))[0]
            d = _rational_pair(m["den"], den_at)[0]
            if d == 0:
                raise UnsupportedCoefficient("zero denominator", den_at)
        elif m["num"]:
            n, d = _rational_pair(m["num"], m.start("num"))
        power = 1 if m["x"] else 0
        if m["caret"]:
            if not m["exp"]:
                missing = m.end("caret")
                raise ParseError("negative exponent" if text.startswith("-", missing)
                                 else "missing exponent after '^'", missing)
            digits = m["exp"].lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ParseError(f"exponent above the degree limit {MAX_DEGREE}", m.start("exp"))
            power = int(digits)
        if m["star"] and not m["x"]:
            raise ParseError("expected 'x' after '*'", end)
        if end < len(text) and text[end].isalpha():
            raise UnsupportedCoefficient(f"unsupported symbol {text[end]!r}", end)
        if not (m["num"] or m["x"]):
            raise ParseError("expected a term", end)
        terms.append((power, -n if m["sign"] == "-" else n, d))
        pos = m.end()


def parse_polynomial(src: PolySource) -> Polynomial:
    """Parse an expression like 'x^5 - 2x^3 + 2x' (or a coefficient list).

    Terms are c, c*x^k or x^k with rational c given as a/b, an integer, or
    a finite decimal (converted exactly), in ASCII digits.  Like terms
    combine; negative exponents, exponents above MAX_DEGREE, numbers of more
    than MAX_DIGITS digits and non-rational symbols are rejected.
    """
    terms = _expression_terms(src) if isinstance(src, str) else _coefficient_terms(src)
    den = lcm(*(d for _, _, d in terms))
    vector = [0] * (max((k for k, _, _ in terms), default=-1) + 1)
    for k, n, d in terms:
        vector[k] += n * (den // d)
    return Polynomial.from_vector(vector, den)


# -- configuration ---------------------------------------------------------------


def _env_int(key: str, fallback: int) -> int:
    """The integer an environment variable sets as a flag's default."""
    raw = os.environ.get(key)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{key} must be an integer, got {raw!r}")


def _check_settings(args: argparse.Namespace) -> None:
    if args.format not in ("text", "json"):
        raise _UsageError("format must be 'text' or 'json'")
    if args.trials < 1:
        raise _UsageError("trials must be positive")
    if args.seed < 0:
        raise _UsageError("seed must be nonnegative")
    if args.precision < 16:
        raise _UsageError("precision must be at least 16 bits")


# -- report assembly --------------------------------------------------------------


def _matrix_strings(m: Matrix2) -> list[list[str]]:
    return [[str(c) for c in row] for row in m.rows()]


def _add_witness_matrix(report: dict, p: Polynomial, m: Matrix2) -> None:
    """The witness matrix and the first negative entry of its image under p."""
    report["witness_matrix"] = _matrix_strings(m)
    image = horner_matrix_eval(p, m)
    for (i, j), value in zip(((1, 1), (1, 2), (2, 1), (2, 2)), image.entries):
        if value < 0:
            report["image_negative_entry"] = {"i": i, "j": j, "value": str(value)}
            return


def _membership_report(p: Polynomial, verdict: MembershipVerdict) -> dict:
    report = {
        "input": p.coefficient_strings(),
        "class": verdict.class_checked.value,
        "status": verdict.status.value,
        "trail": [
            {"name": e.name, "status": e.status}
            | ({"detail": e.detail} if e.detail else {})
            for e in verdict.certificate_trail
        ],
    }
    if verdict.witness_point is not None:
        report["witness_point"] = [str(x) for x in verdict.witness_point]
    if verdict.witness_matrix is not None:
        _add_witness_matrix(report, p, verdict.witness_matrix)
    if verdict.budget_spent:
        report["budget_spent"] = dict(verdict.budget_spent)
    return report


def _run_command(command: str, p: Polynomial, args: argparse.Namespace) -> dict:
    if command == "check-p1":
        return _membership_report(p, check_p1(p))
    if command == "check-p2":
        return _membership_report(p, check_p2(p))
    if command == "check-circulant":
        return _membership_report(p, check_circulant2(p))
    if command == "p3-screen":
        screen = p3_necessary_screen(p)
        report = {
            "input": p.coefficient_strings(),
            "class": PreserverClass.P3_SCREEN.value,
            "status": "pass" if screen.passed else "fail",
            "trail": [],
        }
        if not screen.passed:
            report["failing_coefficient"] = {
                "index": screen.failing_index,
                "value": str(screen.failing_coefficient),
            }
        return report
    if command == "falsify":
        found, trials_run = _falsify(p, args.trials, args.seed)
        report = {
            "input": p.coefficient_strings(),
            "class": PreserverClass.P2.value,
            "status": MembershipStatus.NOT_MEMBER.value
            if found is not None
            else MembershipStatus.UNKNOWN.value,
            "trail": [{"name": "random_matrix_oracle",
                       "status": "violation" if found is not None else "no_violation"}],
            "budget_spent": {"trials": trials_run, "seed": args.seed},
        }
        if found is not None:
            _add_witness_matrix(report, p, found)
        return report
    if command == "certificate":
        report = {
            "input": p.coefficient_strings(),
            "class": PreserverClass.P1.value,
            "trail": [],
        }
        if p.is_zero:
            report["status"] = MembershipStatus.MEMBER.value
            report["certificate"] = {"note": "zero polynomial"}
            return report
        verdict = check_p1(p)
        if verdict.status is not MembershipStatus.MEMBER:
            return _membership_report(p, verdict)
        try:
            cert = polya_szego_certificate(p, args.precision)
        except CertificateNotFound as exc:
            report["status"] = MembershipStatus.UNKNOWN.value
            report["error"] = str(exc)
            return report
        report["status"] = MembershipStatus.MEMBER.value
        report["certificate"] = {
            "f1": cert.f1.coefficient_strings(),
            "f2": cert.f2.coefficient_strings(),
            "g1": cert.g1.coefficient_strings(),
            "g2": cert.g2.coefficient_strings(),
            "f1_approx": [float(c) for c in cert.f1.coeffs],
            "f2_approx": [float(c) for c in cert.f2.coeffs],
            "g1_approx": [float(c) for c in cert.g1.coeffs],
            "g2_approx": [float(c) for c in cert.g2.coeffs],
            "residual": str(cert.residual),
            "precision_bits": cert.precision_bits,
        }
        return report
    raise _UsageError(f"unknown command {command!r}")


_EXIT_BY_STATUS = {"member": 0, "pass": 0,
                   "not_member": 1, "fail": 1, "unknown": 2, "parse_error": 64}


def _render_text(report: dict) -> str:
    if report["status"] == "parse_error":
        return f"line: {report['line']}\nstatus: parse_error\nerror: {report['error']}"
    lines = [f"class: {report['class']}", f"status: {report['status']}"]
    if report.get("trail"):
        lines.append(
            "trail: "
            + "  ".join(
                e["name"] + "=" + e["status"] + (f" ({e['detail']})" if "detail" in e else "")
                for e in report["trail"]
            )
        )
    if "witness_point" in report:
        rho, mu = report["witness_point"]
        lines.append(f"witness_point: rho={rho} mu={mu}")
    if "witness_matrix" in report:
        m = report["witness_matrix"]
        lines.append(f"witness_matrix: [[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]")
    if "image_negative_entry" in report:
        e = report["image_negative_entry"]
        lines.append(f"image_negative_entry: ({e['i']},{e['j']}) = {e['value']}")
    if "failing_coefficient" in report:
        f = report["failing_coefficient"]
        lines.append(f"failing_coefficient: a{f['index']} = {f['value']}")
    if "certificate" in report:
        cert = report["certificate"]
        for part in ("f1", "f2", "g1", "g2"):
            if part in cert:
                lines.append(f"{part}: [{', '.join(cert[part])}]")
        if "residual" in cert:
            lines.append(f"residual: {cert['residual']}")
            lines.append(f"precision_bits: {cert['precision_bits']}")
    if "error" in report:
        lines.append(f"error: {report['error']}")
    if "budget_spent" in report:
        spent = " ".join(f"{k}={v}" for k, v in report["budget_spent"].items())
        lines.append(f"budget_spent: {spent}")
    return "\n".join(lines)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="nppreserve",
        description="Decide membership in nonnegative-matrix-preserver polynomial classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    trials = _env_int("NP_PRESERVE_TRIALS", 10000)
    seed = _env_int("NP_PRESERVE_SEED", 0)
    precision = _env_int("NP_PRESERVE_PRECISION", 128)
    fmt = os.environ.get("NP_PRESERVE_FORMAT", "text")
    descriptions = {
        "check-p1": "nonnegativity on the half line [0, inf)",
        "check-p2": "preservation of all nonnegative 2x2 matrices",
        "check-circulant": "preservation of all nonnegative 2x2 circulants",
        "p3-screen": "necessary coefficient screen for 3x3 preservation",
        "falsify": "randomized search for a violating nonnegative matrix",
        "certificate": "half-line nonnegativity decomposition with exact residual",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("expression", nargs="?", help="polynomial, e.g. 'x^5 - 2x^3 + 2x'")
        cmd.add_argument("--coeffs", help="comma-separated coefficients a0,a1,...")
        cmd.add_argument("--batch", help="file with one polynomial expression per line")
        cmd.add_argument("--format", choices=("text", "json"), default=fmt)
        cmd.add_argument("--trials", type=int, default=trials,
                         help="falsification trials (default %(default)s)")
        cmd.add_argument("--seed", type=int, default=seed, help="oracle seed (default %(default)s)")
        cmd.add_argument("--precision", type=int, default=precision,
                         help="certificate precision bits (default %(default)s)")
    return parser


def _parse_batch_line(number: int, line: str) -> Union[Polynomial, dict]:
    """The line's polynomial, or the error report of a line that fails to parse."""
    try:
        return parse_polynomial(line)
    except ParseError as exc:
        return {"line": number, "status": "parse_error", "error": str(exc)}


def _gather_inputs(args: argparse.Namespace) -> list[Union[Polynomial, dict]]:
    sources = [s for s in (args.expression, args.coeffs, args.batch) if s is not None]
    if len(sources) != 1:
        raise _UsageError("provide exactly one of: expression, --coeffs, --batch")
    if args.batch is not None:
        try:
            with open(args.batch, "r", encoding="utf-8") as handle:
                lines = [line.strip() for line in handle]
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read batch file: {exc}")
        return [_parse_batch_line(number, line)
                for number, line in enumerate(lines, 1) if line]
    if args.coeffs is not None:
        return [parse_polynomial([tok for tok in args.coeffs.split(",")])]
    return [parse_polynomial(args.expression)]


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        _check_settings(args)
        polynomials = _gather_inputs(args)
    except _UsageError as exc:
        print(f"nppreserve: {exc}", file=sys.stderr)
        return 64
    except ParseError as exc:
        print(f"nppreserve: parse error: {exc}", file=sys.stderr)
        return 64
    worst = 0
    for p in polynomials:
        report = p if isinstance(p, dict) else _run_command(args.command, p, args)
        if args.format == "json":
            print(json.dumps(report))
        else:
            print(_render_text(report))
            if len(polynomials) > 1:
                print()
        worst = max(worst, _EXIT_BY_STATUS.get(report.get("status", "unknown"), 2))
    return worst


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
