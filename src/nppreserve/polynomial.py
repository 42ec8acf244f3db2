"""Exact univariate polynomial arithmetic over the rationals.

:class:`Polynomial` stores one integer vector over one positive
denominator, in lowest terms, so every ring operation and evaluation is
exact and runs on the integer functions below.  The vector has the sign of
the polynomial at every point, and square-free decomposition and real-root
counting read it directly: Yun's algorithm with primitive remainder gcds,
Descartes' rule of signs, and Vincent-Collins-Akritas bisection where
Descartes alone does not decide.  Counts always mean *distinct* roots and
are exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

#: Interval endpoints for :func:`sturm_count` may be these sentinels.
NEG_INF = float("-inf")
POS_INF = float("inf")

Coefficient = Union[Fraction, int, str]
Endpoint = Union[Fraction, int, float]


def _as_fraction(value: Coefficient) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Polynomial:
    """Dense rational-coefficient polynomial vector / den.

    ``vector[k]`` is the integer numerator of the coefficient of ``x**k`` and
    ``den > 0`` their common denominator, in lowest terms: no trailing zeros
    and gcd(content, den) = 1, so den is the lcm of the coefficient
    denominators.  The zero polynomial is the empty vector over 1 and
    reports ``degree == -1``.
    """

    __slots__ = ("vector", "den")

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        pairs = [_as_fraction(c).as_integer_ratio() for c in coeffs]
        den = lcm(*[d for _, d in pairs])
        self._store([n * (den // d) for n, d in pairs], den)

    def _store(self, f: IntVector, den: int) -> None:
        while f and f[-1] == 0:
            f.pop()
        g = gcd(*f, den)
        if den < 0:
            g = -g
        self.vector: tuple[int, ...] = tuple(f) if g == 1 else tuple(c // g for c in f)
        self.den: int = den // g

    # -- constructors -------------------------------------------------

    @classmethod
    def from_vector(cls, f: Iterable[int], den: int = 1) -> "Polynomial":
        """The polynomial f / den for an integer vector f and an integer den != 0."""
        p = cls.__new__(cls)
        p._store(list(f), den)
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[k]`` is the coefficient of ``x**k``; empty for zero."""
        return tuple(Fraction(c, self.den) for c in self.vector)

    @property
    def is_zero(self) -> bool:
        return not self.vector

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.vector) - 1

    @property
    def leading(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coefficient(len(self.vector) - 1)

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.vector[k], self.den) if 0 <= k < len(self.vector) else Fraction(0)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        pairs = itertools.zip_longest(self.vector, other.vector, fillvalue=0)
        return Polynomial.from_vector((a * x + b * y for x, y in pairs), den)

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_vector((-c for c in self.vector), self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Coefficient]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            s = _as_fraction(other)
            return Polynomial.from_vector((c * s.numerator for c in self.vector), self.den * s.denominator)
        return Polynomial.from_vector(_multiply(self.vector, other.vector), self.den * other.den)

    def __rmul__(self, other: Coefficient) -> "Polynomial":
        return self * other

    def __divmod__(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Euclidean division: self = q*divisor + r with deg r < deg divisor.

        With s*f = q*g + r the integer pseudo-division of the vectors,
        self = f/a and divisor = g/b give self = (q*b/(s*a))*divisor + r/(s*a).
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pseudo_divide(self.vector, divisor.vector)
        return (Polynomial.from_vector((c * divisor.den for c in q), s * self.den),
                Polynomial.from_vector(r, s * self.den))

    def __floordiv__(self, divisor: "Polynomial") -> "Polynomial":
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return divmod(self, divisor)[1]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial) and self.vector == other.vector
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.vector, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- evaluation and structure ----------------------------------------

    def __call__(self, x: Coefficient) -> Fraction:
        """Exact Horner evaluation, in integers (see scaled_value)."""
        x = _as_fraction(x)
        value = scaled_value(self.vector, x.numerator, x.denominator)
        return Fraction(value, x.denominator ** max(self.degree, 0) * self.den)

    def derivative(self) -> "Polynomial":
        return Polynomial.from_vector(_derivative(self.vector), self.den)

    def parity_parts(self) -> tuple["Polynomial", "Polynomial"]:
        """Split into (even part, odd part); the two sum back to self."""
        even = [0 if k % 2 else c for k, c in enumerate(self.vector)]
        odd = [c if k % 2 else 0 for k, c in enumerate(self.vector)]
        return Polynomial.from_vector(even, self.den), Polynomial.from_vector(odd, self.den)

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
            c = self.vector[k]
            if c == 0:
                continue
            mag = Fraction(abs(c), self.den)
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


# -- the integer real-root kernel ---------------------------------------------
#
# Square-free decomposition and root counting run on integer vectors:
# ``f[k]`` is the coefficient of x**k; a polynomial's stored vector is one,
# and its primitive vector divides out the content and makes the leading
# coefficient positive.  Neither moves a root, so a count taken on the
# vector is the count for the rational polynomial it came from.  Every quotient in the kernel is
# exact over the integers (Gauss's lemma: a primitive divisor of an integer
# polynomial leaves an integer quotient), so no step builds a Fraction.

IntVector = list[int]


def _primitive(f: Iterable[int]) -> IntVector:
    """f with trailing zeros dropped, divided by its content, leading > 0."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return f
    g = gcd(*f)
    if f[-1] < 0:
        g = -g
    return f if g == 1 else [c // g for c in f]


def cleared_vector(p: Polynomial, scale: int) -> tuple[IntVector, int]:
    """(L * scale^m * p(x / scale) as an integer vector, L), with L = p.den
    and m the degree of p: entry k of p.vector times scale^(m - k)."""
    top = len(p.vector) - 1
    return [c * scale ** (top - k) for k, c in enumerate(p.vector)], p.den


def integer_vector(p: Polynomial) -> IntVector:
    """The primitive integer vector of p (empty for the zero polynomial)."""
    return _primitive(p.vector)


def cauchy_bound_vector(f: IntVector) -> Fraction:
    """1 + max_{k<m} |f_k| / |f_m|; all real roots of the nonzero vector f
    lie inside (-bound, bound)."""
    lead = abs(f[-1])
    return Fraction(lead + max((abs(c) for c in f[:-1]), default=0), lead)


def _derivative(f: IntVector) -> IntVector:
    return [k * f[k] for k in range(1, len(f))]


def _pseudo_divide(f: IntVector, g: IntVector) -> tuple[IntVector, IntVector, int]:
    """(q, r, s) with s*f = q*g + r, deg r < deg g and s a nonzero integer."""
    r = list(f)
    top = len(g) - 1
    lead = g[-1]
    q = [0] * max(len(r) - top, 0)
    s = 1
    while len(r) > top:
        c = r[-1]
        if c:
            k = gcd(lead, c)
            scale, c = lead // k, c // k
            if scale != 1:
                r = [scale * x for x in r]
                q = [scale * x for x in q]
                s *= scale
            shift = len(r) - 1 - top
            q[shift] = c
            for j, gj in enumerate(g):
                r[shift + j] -= c * gj
        r.pop()
    return q, r, s


def gcd_vector(f: IntVector, g: IntVector) -> IntVector:
    """Primitive gcd of two integer vectors, by a primitive remainder sequence."""
    if len(f) < len(g):
        f, g = g, f
    f, g = _primitive(f), _primitive(g)
    while g:
        f, g = g, _primitive(_pseudo_divide(f, g)[1])
    return f


def _divide_exact(f: IntVector, g: IntVector) -> IntVector:
    """f / g, where the primitive vector g divides f."""
    top = len(g) - 1
    if top == 0:
        return list(f)
    r = list(f)
    lead = g[-1]
    q = [0] * (len(f) - top)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + top] // lead
        q[k] = c
        if c:
            for j, gj in enumerate(g):
                r[k + j] -= c * gj
    return q


def _subtract(f: IntVector, g: IntVector) -> IntVector:
    out = [a - b for a, b in itertools.zip_longest(f, g, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _multiply(f: IntVector, g: IntVector) -> IntVector:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _yun(f: IntVector) -> list[tuple[IntVector, int]]:
    """Yun's square-free decomposition of a nonzero primitive vector.

    Returns primitive, pairwise-coprime, square-free q_i of degree >= 1 with
    multiplicities i such that f = prod(q_i ** i).  b and c are divided by
    the same gcd at every step, which is all Yun's recurrence d = c - b'
    needs, so constant factors never have to be tracked.
    """
    df = _derivative(f)
    a0 = gcd_vector(f, df)
    b, c = _divide_exact(f, a0), _divide_exact(df, a0)
    out = []
    i = 1
    while len(b) > 1:
        d = _subtract(c, _derivative(b))
        q = gcd_vector(b, d)
        if len(q) > 1:
            out.append((q, i))
        b, c = _divide_exact(b, q), _divide_exact(d, q)
        i += 1
    return out


def radical_vector(f: IntVector) -> IntVector:
    """Square-free part of a nonzero primitive vector: same roots, all simple."""
    return _divide_exact(f, gcd_vector(f, _derivative(f)))


def odd_part_vector(f: IntVector) -> IntVector:
    """Product of the square-free factors of odd multiplicity of a nonzero
    primitive vector; its roots are exactly the points where f changes sign."""
    out = [1]
    for q, mult in _yun(f):
        if mult % 2 == 1:
            out = _multiply(out, q)
    return out


def sign_variations(f: IntVector) -> int:
    """Sign changes along the coefficients, zeros skipped.

    By Descartes' rule of signs this bounds the number of positive roots
    and has the same parity, so 0 and 1 are exact counts.
    """
    signs = [c > 0 for c in f if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _taylor_shift(f: IntVector, c: int = 1) -> IntVector:
    """Coefficients of f(x + c)."""
    a = list(f)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _unit_leaves(f: IntVector, c: int, k: int, out: list) -> None:
    """Vincent-Collins-Akritas bisection: the roots in (0, 1) of a nonzero
    square-free f, which stands for the vector it came from on the dyadic
    interval (c/2^k, (c + 1)/2^k), appended to out in increasing order.

    The sign variations of (1 + x)^n f(1/(1 + x)) bound the roots in (0, 1).
    At 1 the leaf (c, k, False) records the one root; above 1 both halves
    are mapped back onto (0, 1), and a root at the midpoint is the leaf
    (2c + 1, k + 1, True): (c, k, True) is the exact root c/2^k.  Roots at
    0 or 1 are never recorded; Vincent's theorem ends the recursion.
    """
    v = sign_variations(_taylor_shift(f[::-1]))
    if v <= 1:
        if v:
            out.append((c, k, False))
        return
    n = len(f) - 1
    left = [a << (n - j) for j, a in enumerate(f)]  # 2^n f(x/2)
    right = _taylor_shift(left)  # 2^n f((x + 1)/2)
    _unit_leaves(left, 2 * c, k + 1, out)
    if right[0] == 0:
        out.append((2 * c + 1, k + 1, True))
    _unit_leaves(right, 2 * c + 1, k + 1, out)


def count_unit_roots(f: IntVector) -> int:
    """Distinct roots in the open interval (0, 1) of a nonzero square-free
    vector: the leaves of _unit_leaves."""
    leaves: list = []
    _unit_leaves(f, 0, 0, leaves)
    return len(leaves)


def _root_bound_exponent(f: IntVector) -> int:
    """k >= 1 such that every positive root of the nonzero vector f is below 2^k."""
    if f[-1] < 0:
        f = [-c for c in f]
    negative = [-c for c in f if c < 0]
    if not negative:
        return 1
    # positive roots lie below 1 + max(-f[k])/f[-1] (negative f[k] only) <= 2^k
    return max(max(negative).bit_length() - f[-1].bit_length() + 2, 1)


def _positive_roots(f: IntVector) -> int:
    """Distinct roots in (0, inf) of a nonzero square-free vector."""
    v = sign_variations(f)
    if v <= 1:
        return v
    k = _root_bound_exponent(f)
    return count_unit_roots([c << (k * j) for j, c in enumerate(f)])


def _affine(f: IntVector, lo: Fraction, width: Fraction) -> IntVector:
    """An integer vector with the roots of f(lo + width*x), width > 0."""
    d = lcm(lo.denominator, width.denominator)
    a = lo.numerator * (d // lo.denominator)
    e = width.numerator * (d // width.denominator)
    n = len(f) - 1
    g = [c * d ** (n - k) for k, c in enumerate(f)]  # d^n f(x/d)
    if a:
        g = _taylor_shift(g, a)
    return [c * e**k for k, c in enumerate(g)] if e != 1 else g


def reflect_vector(f: IntVector) -> IntVector:
    """The vector of f(-x)."""
    return [-c if k % 2 else c for k, c in enumerate(f)]


def count_roots(f: IntVector, lo: Endpoint, hi: Endpoint) -> int:
    """Distinct real roots in (lo, hi] of a nonzero square-free vector.

    Endpoints may be NEG_INF / POS_INF.  A finite interval is mapped onto
    (0, 1) by an affine substitution, and hi is tested on its own.
    """
    if hi == POS_INF:
        if lo == NEG_INF:
            return _positive_roots(f) + _positive_roots(reflect_vector(f)) + (f[0] == 0)
        return _positive_roots(_affine(f, Fraction(lo), Fraction(1)))
    if lo == NEG_INF:
        return count_roots(f, NEG_INF, POS_INF) - count_roots(f, hi, POS_INF)
    lo = Fraction(lo)
    g = _affine(f, lo, Fraction(hi) - lo)
    return count_unit_roots(g) + (sum(g) == 0)


def scaled_value(f: IntVector, num: int, den: int) -> int:
    """den^n * f(num/den) for an integer vector of degree n and den > 0: an
    integer with the sign of f(num/den)."""
    acc, scale = 0, 1
    for c in reversed(f):
        acc = acc * num + c * scale
        scale *= den
    return acc


def sign_at(f: IntVector, x: Fraction) -> int:
    """The sign of f(x): -1, 0 or 1."""
    v = scaled_value(f, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def isolate_roots(f: IntVector) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of the real roots of a nonzero square-free vector.

    Returns (lo, hi) pairs in increasing order; each half-open interval
    (lo, hi] holds exactly one root, and either that root is hi or f(hi) is
    not zero, so bisection by the sign of f at midpoints refines it.  The
    intervals are the leaves of _unit_leaves run on (-2^k, 2^k), which
    holds every root.
    """
    if len(f) < 2:
        return []
    k = max(_root_bound_exponent(f), _root_bound_exponent(reflect_vector(f)))
    start, width = -(1 << k), 1 << (k + 1)
    leaves: list = []
    _unit_leaves(_affine(f, Fraction(start), Fraction(width)), 0, 0, leaves)
    out = []
    for c, j, exact in leaves:
        lo = start + Fraction(width * c, 1 << j)
        hi = lo if exact else start + Fraction(width * (c + 1), 1 << j)
        if exact:
            # no root lies between the previous interval's end and this one
            lo = out[-1][1] if out else hi - 1
        elif sign_at(f, hi) == 0:
            # hi is the next root, met at a bisection point: pull hi below it.
            # f has the sign s just left of hi, and -s left of this leaf's root.
            s = -sign_at(_derivative(f), hi)
            while True:
                mid = (lo + hi) / 2
                v = sign_at(f, mid)
                if v == 0 or v == s:
                    hi = mid
                    break
                lo = mid
        out.append((lo, hi))
    return out


# -- the rational interface ---------------------------------------------------


def _monic(f: IntVector) -> Polynomial:
    return Polynomial.from_vector(f, f[-1])


def square_free_decompose(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's square-free decomposition.

    Returns monic, pairwise-coprime, square-free factors q_i with
    multiplicities i such that p = leading(p) * prod(q_i ** i) exactly.
    Constant factors are dropped; constants decompose to the empty list.
    """
    if p.is_zero:
        raise ValueError("square-free decomposition of the zero polynomial")
    return [(_monic(q), mult) for q, mult in _yun(integer_vector(p))]


def sturm_count(p: Polynomial, lo: Endpoint, hi: Endpoint) -> int:
    """Distinct real roots of p in the half-open interval (lo, hi].

    Endpoints may be NEG_INF / POS_INF.  The count is taken on the
    square-free part, so multiplicities do not inflate it.
    """
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    if not lo < hi:
        raise ValueError("need lo < hi")
    return count_roots(radical_vector(integer_vector(p)), lo, hi)


def cauchy_bound(p: Polynomial) -> Fraction:
    """The Cauchy bound of p (see cauchy_bound_vector): all real roots of p
    lie inside (-bound, bound)."""
    if p.is_zero:
        raise ValueError("Cauchy bound of the zero polynomial")
    return cauchy_bound_vector(p.vector)
