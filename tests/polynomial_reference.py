"""Test-only reference: Polynomial as it was with Fraction coefficients.

The package's Polynomial stores an integer vector over one denominator and
runs its arithmetic on the integer kernel.  This is the plain Fraction
version it replaced, kept so the tests can require equal coefficients
from both on every operation.
"""

import itertools
from fractions import Fraction
from typing import Iterable, Union

Coefficient = Union[Fraction, int, str]


def _as_fraction(value: Coefficient) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Polynomial:
    """Dense rational-coefficient polynomial, normalized (no trailing zeros).

    ``coeffs[k]`` is the coefficient of ``x**k``.  The zero polynomial is
    stored as an empty tuple and reports ``degree == -1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: Coefficient = 1) -> "Polynomial":
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        return cls([0] * k + [c])

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        return Polynomial(
            x + y for x, y in itertools.zip_longest(a, b, fillvalue=Fraction(0))
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Coefficient]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            s = _as_fraction(other)
            return Polynomial(c * s for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __rmul__(self, other: Coefficient) -> "Polynomial":
        return self * other

    def __divmod__(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Euclidean division: self = q*divisor + r with deg r < deg divisor."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < divisor.degree:
            return Polynomial.zero(), self
        rem = list(self.coeffs)
        dlead = divisor.leading
        ddeg = divisor.degree
        q = [Fraction(0)] * (self.degree - ddeg + 1)
        for k in range(len(q) - 1, -1, -1):
            c = rem[ddeg + k] / dlead
            q[k] = c
            if c == 0:
                continue
            for j, d in enumerate(divisor.coeffs):
                rem[j + k] -= c * d
        return Polynomial(q), Polynomial(rem[:ddeg])

    def __floordiv__(self, divisor: "Polynomial") -> "Polynomial":
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return divmod(self, divisor)[1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- evaluation and structure ----------------------------------------

    def __call__(self, x: Coefficient) -> Fraction:
        """Exact Horner evaluation."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def reflect(self) -> "Polynomial":
        """The polynomial x -> p(-x): flips the sign of odd coefficients."""
        return Polynomial(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs))

    def parity_parts(self) -> tuple["Polynomial", "Polynomial"]:
        """Split into (even part, odd part); the two sum back to self."""
        zero = Fraction(0)
        even = Polynomial(zero if k % 2 else c for k, c in enumerate(self.coeffs))
        odd = Polynomial(c if k % 2 else zero for k, c in enumerate(self.coeffs))
        return even, odd

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic associate")
        lead = self.leading
        return Polynomial(c / lead for c in self.coeffs)

    # -- formatting -----------------------------------------------------

    def coefficient_strings(self) -> list[str]:
        """Coefficients a0..am as exact 'num/den' strings (['0'] for zero)."""
        if self.is_zero:
            return ["0"]
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"
