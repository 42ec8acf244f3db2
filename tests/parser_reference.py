"""Test-only reference: the character scanner parse_polynomial used to be.

The package parses an expression with one term regex and builds the
polynomial from integer pairs.  This is the hand-written scanner it
replaced, kept so the tests can require the same outcome from both: an
equal Polynomial, or the same exception class, position and message.
"""

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Optional

from nppreserve.cli import (
    MAX_DEGREE,
    MAX_DIGITS,
    ParseError,
    PolySource,
    UnsupportedCoefficient,
    _quote,
)
from nppreserve.polynomial import Polynomial


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
