"""Exact 2x2 matrix evaluation and randomized falsification.

Everything here is exact rational arithmetic: matrix products, polynomial
evaluation of matrices by Horner, the parametrized positive-matrix
generator with known spectrum, and the Monte-Carlo search for a
nonnegative matrix whose image under p has a negative entry.  Randomness
is a counter-based generator keyed by (seed, trial index), so runs are
reproducible and trials are independent.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .polynomial import Polynomial, cauchy_bound

Rational = Union[Fraction, int, str]


@dataclass(frozen=True)
class Matrix2:
    """2x2 matrix with exact rational entries."""

    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1, 0, 0, 1)

    @classmethod
    def zero(cls) -> "Matrix2":
        return cls(0, 0, 0, 0)

    @classmethod
    def scalar(cls, c: Rational) -> "Matrix2":
        return cls(c, 0, 0, c)

    @property
    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a11, self.a12, self.a21, self.a22)

    def rows(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return ((self.a11, self.a12), (self.a21, self.a22))

    @property
    def is_nonneg(self) -> bool:
        return all(e >= 0 for e in self.entries)

    @property
    def is_positive(self) -> bool:
        return all(e > 0 for e in self.entries)

    @property
    def min_entry(self) -> Fraction:
        return min(self.entries)

    def trace(self) -> Fraction:
        return self.a11 + self.a22

    def det(self) -> Fraction:
        return self.a11 * self.a22 - self.a12 * self.a21

    def __add__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a11 + other.a11,
            self.a12 + other.a12,
            self.a21 + other.a21,
            self.a22 + other.a22,
        )

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __str__(self) -> str:
        return f"[[{self.a11}, {self.a12}], [{self.a21}, {self.a22}]]"


def _cayley_hamilton(coeffs, t, d):
    """Pair (u, v) with p(M) = u*M + v*I for every 2x2 M of trace t and det d.

    Horner modulo the characteristic polynomial x^2 - t*x + d: since
    M^2 = t*M - d*I, (u*M + v*I)*M + c*I = (u*t + v)*M + (c - u*d)*I.
    Exact over int and Fraction alike; two products per coefficient.
    """
    u = v = 0
    for c in reversed(coeffs):
        u, v = u * t + v, c - u * d
    return u, v


def horner_matrix_eval(p: Polynomial, a: Matrix2) -> Matrix2:
    """Exact p(A), by Horner reduced modulo the characteristic polynomial of A."""
    u, v = _cayley_hamilton(p.coeffs, a.trace(), a.det())
    return Matrix2(u * a.a11 + v, u * a.a12, u * a.a21, u * a.a22 + v)


@dataclass(frozen=True)
class PosMatrixParams:
    """Spectrum-and-shape parameters (rho, mu, alpha) of a positive matrix.

    Requires rho > |mu| and alpha > 0; when mu < 0 the positivity window
    |mu|/rho < alpha < rho/|mu| is enforced so the generated matrix is
    entrywise positive.
    """

    rho: Fraction
    mu: Fraction
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        object.__setattr__(self, "mu", Fraction(self.mu))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not abs(self.mu) < self.rho:
            raise ValueError("need rho > |mu|")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.mu < 0:
            lo, hi = -self.mu / self.rho, self.rho / -self.mu
            if not lo < self.alpha < hi:
                raise ValueError("alpha outside the positivity window")


def _shape_matrix(alpha: Fraction, top: Fraction, bottom: Fraction,
                  off: Fraction) -> Matrix2:
    scale = Fraction(1, 1) / (1 + alpha)
    return Matrix2(scale * top, scale * off, scale * alpha * off, scale * bottom)


def posmatrix_generate(params: PosMatrixParams) -> Matrix2:
    """Positive matrix with eigenvalues {rho, mu}:

    B = 1/(1+alpha) * [[alpha*rho + mu, rho - mu], [alpha*(rho - mu), alpha*mu + rho]]
    """
    rho, mu, alpha = params.rho, params.mu, params.alpha
    return _shape_matrix(alpha, alpha * rho + mu, alpha * mu + rho, rho - mu)


def closed_form_image(p: Polynomial, params: PosMatrixParams) -> Matrix2:
    """Image p(B) of the generated matrix, written directly in p(rho), p(mu)."""
    prho, pmu = p(params.rho), p(params.mu)
    return _shape_matrix(params.alpha, params.alpha * prho + pmu,
                         params.alpha * pmu + prho, prho - pmu)


def scramble_similarity(a: Matrix2, d1: Rational, d2: Rational, swap: bool) -> Matrix2:
    """Conjugate by diag(d1, d2) then optionally by the swap permutation.

    Both conjugations preserve entrywise nonnegativity of p(A), so verdicts
    must be invariant under this scrambling.
    """
    d1, d2 = Fraction(d1), Fraction(d2)
    if not (d1 > 0 and d2 > 0):
        raise ValueError("diagonal entries must be positive")
    m = Matrix2(a.a11, a.a12 * d2 / d1, a.a21 * d1 / d2, a.a22)
    if swap:
        m = Matrix2(m.a22, m.a21, m.a12, m.a11)
    return m


class _TrialRandom:
    """Counter-based pseudo-random stream keyed by (seed, trial).

    Draw n is read from sha256(b"nppreserve:<seed>:<trial>:<n>"), n = 1, 2, ...
    """

    __slots__ = ("_prefix", "_counter")

    def __init__(self, seed: int, trial: int):
        self._prefix = f"nppreserve:{seed}:{trial}:".encode()
        self._counter = 0

    def randint(self, lo: int, hi: int) -> int:
        self._counter += 1
        digest = hashlib.sha256(self._prefix + str(self._counter).encode()).digest()
        return lo + int.from_bytes(digest, "big") % (hi - lo + 1)


_DYADIC = 64  # denominator of the sampled rho, mu and uniform entries
_SCALE = 2 * _DYADIC  # (rho +- mu)/2 halves it: every sampled A has 128*A integral


def _scaled_coefficients(p: Polynomial) -> list[int]:
    """Integer coefficients b_k of q(x) = L * 128^m * p(x / 128).

    L is the lcm of the denominators of p and m its degree, so q(128*A) =
    L * 128^m * p(A) has the entry signs of p(A).
    """
    lcm = 1
    for c in p.coeffs:
        lcm = math.lcm(lcm, c.denominator)
    top = len(p.coeffs) - 1
    return [c.numerator * (lcm // c.denominator) * _SCALE ** (top - k)
            for k, c in enumerate(p.coeffs)]


def falsify_random(p: Polynomial, trials: int, seed: int = 0) -> Optional[Matrix2]:
    """Search for a nonnegative matrix A with some entry of p(A) negative.

    Trials rotate round-robin through three families: (a) uniform dyadic
    entries, (b) symmetric circulants parametrized by eigenvalues
    (rho, mu) with rho >= |mu|, and (c) the [[0, rho], [mu, rho - mu]]
    template over 0 < mu <= rho, each optionally scrambled by a similarity.
    The structured families make violations of the defining property easy
    to hit; returns the first (lowest trial index) violating matrix, or
    None.  Deterministic given the seed.
    """
    return _falsify(p, trials, seed)[0]


def _falsify(p: Polynomial, trials: int, seed: int) -> tuple[Optional[Matrix2], int]:
    """falsify_random's search; also returns the number of trials it ran.

    Each trial decides the signs of p(A) in plain ints: M = 128*A is
    integral and q(M) = u*M + v*I (see _scaled_coefficients and
    _cayley_hamilton).  The scramble similarity only permutes those signs
    and scales them by positive factors, and every trial has its own
    stream, so its draws are taken, from the same stream positions, only
    once a trial hits.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    span = int(cauchy_bound(p)) + 1 if not p.is_zero else 1
    limit = span * _DYADIC
    coeffs = _scaled_coefficients(p)
    for trial in range(trials):
        rng = _TrialRandom(seed, trial)
        family = trial % 3
        if family == 0:
            m11, m12, m21, m22 = (2 * rng.randint(0, limit) for _ in range(4))
        elif family == 1:  # rho = i/64, mu = j/64
            i = rng.randint(0, limit)
            j = rng.randint(-i, i)
            m11 = m22 = i + j
            m12 = m21 = i - j
        else:
            i = rng.randint(1, limit)
            j = rng.randint(1, i)
            m11, m12, m21, m22 = 0, 2 * i, 2 * j, 2 * (i - j)
        u, v = _cayley_hamilton(coeffs, m11 + m22, m11 * m22 - m12 * m21)
        if u * m11 + v < 0 or u * m12 < 0 or u * m21 < 0 or u * m22 + v < 0:
            a = Matrix2(*(Fraction(m, _SCALE) for m in (m11, m12, m21, m22)))
            if rng.randint(0, 1):
                d1 = 1 + Fraction(rng.randint(0, 15), 16)
                d2 = 1 + Fraction(rng.randint(0, 15), 16)
                a = scramble_similarity(a, d1, d2, swap=bool(rng.randint(0, 1)))
            return a, trial + 1
    return None, trials
