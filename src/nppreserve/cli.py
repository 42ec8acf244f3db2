"""Command-line front end: polynomial grammar, subcommands, exact JSON output.

Every rational in a report is serialized as a 'num/den' string; the only
floats ever printed are the readability copies in the certificate dump,
which always travel with the exact residual.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
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


def _rational_token(text: str, position: int) -> Fraction:
    """Exact conversion of an integer, a/b, or finite-decimal token."""
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            if int(den) == 0:
                raise UnsupportedCoefficient("zero denominator", position)
            return Fraction(int(num), int(den))
        if any(ch in text for ch in ".eE"):
            value = Decimal(text)
            if value.is_finite() and abs(value.as_tuple().exponent) > MAX_DIGITS:
                raise UnsupportedCoefficient(f"decimal exponent beyond {MAX_DIGITS}", position)
            return Fraction(value)
        return Fraction(int(text))
    except UnsupportedCoefficient:
        raise
    except (ValueError, InvalidOperation, ZeroDivisionError):
        raise UnsupportedCoefficient(f"cannot read {_quote(text)} as a rational", position)


def _quote(token: str) -> str:
    """The token quoted for an error message; a long one only by its head."""
    if len(token) <= _QUOTE_HEAD:
        return repr(token)
    return f"{token[:_QUOTE_HEAD]!r}... ({sum(ch.isdigit() for ch in token)} digits)"


def _from_coefficient_list(items: Iterable) -> Polynomial:
    coeffs = []
    for index, item in enumerate(items):
        if index > MAX_DEGREE:
            raise ParseError(f"more than {MAX_DEGREE + 1} coefficients", index)
        if isinstance(item, (Fraction, int)):
            coeffs.append(Fraction(item))
        else:
            token = str(item).strip()
            if not token:
                raise ParseError("empty coefficient", index)
            coeffs.append(_rational_token(token, index))
    return Polynomial(coeffs)


def parse_polynomial(src: PolySource) -> Polynomial:
    """Parse an expression like 'x^5 - 2x^3 + 2x' (or a coefficient list).

    Terms are c, c*x^k or x^k with rational c given as a/b, an integer, or
    a finite decimal (converted exactly).  Like terms combine; negative
    exponents, exponents above MAX_DEGREE, numbers of more than MAX_DIGITS
    digits and non-rational symbols are rejected.
    """
    if not isinstance(src, str):
        return _from_coefficient_list(src)
    text = src
    n = len(text)
    pos = 0
    acc: dict[int, Fraction] = {}

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def scan_number() -> Optional[str]:
        nonlocal pos
        start = pos
        seen_digit = seen_dot = False
        while pos < n and (text[pos].isdigit() or (text[pos] == "." and not seen_dot)):
            seen_dot = seen_dot or text[pos] == "."
            seen_digit = seen_digit or text[pos].isdigit()
            pos += 1
        if not seen_digit:
            pos = start
            return None
        if pos < n and text[pos] in "eE":  # exponent form, still exact
            mark = pos
            pos += 1
            if pos < n and text[pos] in "+-":
                pos += 1
            if pos < n and text[pos].isdigit():
                while pos < n and text[pos].isdigit():
                    pos += 1
            else:
                pos = mark
        return text[start:pos]

    skip_ws()
    if pos == n:
        raise ParseError("empty polynomial expression", pos)
    first = True
    while True:
        skip_ws()
        if pos == n:
            break
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            skip_ws()
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        first = False
        num_start = pos
        number = scan_number()
        coeff: Optional[Fraction] = None
        if number is not None:
            if pos < n and text[pos] == "/":
                pos += 1
                den_start = pos
                den = scan_number()
                if den is None or any(ch in den for ch in ".eE") or any(
                    ch in number for ch in ".eE"
                ):
                    raise ParseError("a/b form needs integers", den_start)
                # integer tokens: a failure is an integer of too many digits
                numerator = _rational_token(number, num_start)
                denominator = _rational_token(den, den_start)
                if denominator == 0:
                    raise UnsupportedCoefficient("zero denominator", den_start)
                coeff = numerator / denominator
            else:
                coeff = _rational_token(number, num_start)
        skip_ws()
        explicit_star = False
        if coeff is not None and pos < n and text[pos] == "*":
            explicit_star = True
            pos += 1
            skip_ws()
        power = 0
        has_x = False
        if pos < n and text[pos] in "xX":
            has_x = True
            pos += 1
            power = 1
            if pos < n and text[pos] == "^":
                pos += 1
                if pos < n and text[pos] == "-":
                    raise ParseError("negative exponent", pos)
                exp_start = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                if exp_start == pos:
                    raise ParseError("missing exponent after '^'", pos)
                digits = text[exp_start:pos].lstrip("0") or "0"
                if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                    raise ParseError(f"exponent above the degree limit {MAX_DEGREE}", exp_start)
                power = int(digits)
        if explicit_star and not has_x:
            raise ParseError("expected 'x' after '*'", pos)
        if pos < n and text[pos].isalpha():
            raise UnsupportedCoefficient(f"unsupported symbol {text[pos]!r}", pos)
        if coeff is None and not has_x:
            raise ParseError("expected a term", pos)
        value = coeff if coeff is not None else Fraction(1)
        acc[power] = acc.get(power, Fraction(0)) + sign * value
    top = max(acc) if acc else 0
    return Polynomial(acc.get(k, Fraction(0)) for k in range(top + 1))


# -- configuration ---------------------------------------------------------------


@dataclass
class RunConfig:
    trials: int = 10000
    seed: int = 0
    precision_bits: int = 128
    fmt: str = "text"


_ENV_KEYS = {
    "trials": "NP_PRESERVE_TRIALS",
    "seed": "NP_PRESERVE_SEED",
    "precision_bits": "NP_PRESERVE_PRECISION",
    "fmt": "NP_PRESERVE_FORMAT",
}


def _resolve_config(args: argparse.Namespace, env=os.environ) -> RunConfig:
    config = RunConfig()
    for attr, key in _ENV_KEYS.items():
        if key in env:
            raw = env[key]
            if attr == "fmt":
                config.fmt = raw
            else:
                try:
                    setattr(config, attr, int(raw))
                except ValueError:
                    raise _UsageError(f"{key} must be an integer, got {raw!r}")
    overrides = {
        "trials": args.trials,
        "seed": args.seed,
        "precision_bits": args.precision,
        "fmt": args.format,
    }
    for attr, value in overrides.items():
        if value is not None:
            setattr(config, attr, value)
    if config.fmt not in ("text", "json"):
        raise _UsageError("format must be 'text' or 'json'")
    if config.trials < 1:
        raise _UsageError("trials must be positive")
    if config.seed < 0:
        raise _UsageError("seed must be nonnegative")
    if config.precision_bits < 16:
        raise _UsageError("precision must be at least 16 bits")
    return config


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


def _run_command(command: str, p: Polynomial, config: RunConfig) -> dict:
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
        found, trials_run = _falsify(p, config.trials, config.seed)
        report = {
            "input": p.coefficient_strings(),
            "class": PreserverClass.P2.value,
            "status": MembershipStatus.NOT_MEMBER.value
            if found is not None
            else MembershipStatus.UNKNOWN.value,
            "trail": [{"name": "random_matrix_oracle",
                       "status": "violation" if found is not None else "no_violation"}],
            "budget_spent": {"trials": trials_run, "seed": config.seed},
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
            cert = polya_szego_certificate(p, config.precision_bits)
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


_EXIT_BY_STATUS = {"member": 0, "pass": 0, "holds": 0,
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
        cmd.add_argument("--format", choices=("text", "json"), default=None)
        cmd.add_argument("--trials", type=int, default=None,
                         help="falsification trials (default 10000)")
        cmd.add_argument("--seed", type=int, default=None, help="oracle seed (default 0)")
        cmd.add_argument("--precision", type=int, default=None,
                         help="certificate precision bits (default 128)")
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
        except OSError as exc:
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
        config = _resolve_config(args)
        polynomials = _gather_inputs(args)
    except _UsageError as exc:
        print(f"nppreserve: {exc}", file=sys.stderr)
        return 64
    except ParseError as exc:
        print(f"nppreserve: parse error: {exc}", file=sys.stderr)
        return 64
    worst = 0
    for p in polynomials:
        report = p if isinstance(p, dict) else _run_command(args.command, p, config)
        if config.fmt == "json":
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
