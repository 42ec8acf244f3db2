"""Decide nonnegativity of a rational polynomial on the half line [0, inf).

The decision is exact and runs on the integer vector the polynomial
stores, the polynomial times its denominator, which has the polynomial's
sign at every point.  The leading sign, the value at 0, Descartes' rule of signs and the
integer root kernel's count of the odd-multiplicity roots on (0, inf) are
read from it.  Rejections come with a rational witness point where the
polynomial is exactly negative, and that point is found on the same
vector: the Cauchy bound and the signs tested while bisecting toward it.

For members, :func:`polya_szego_certificate` extracts a numeric
decomposition p = f1^2 + f2^2 + x*(g1^2 + g2^2) whose coefficients are
binary rationals and whose residual error is re-checked exactly.  Its roots
are seeded by a Durand–Kerner pass in Python floats, then polished and
accepted by mpmath's ``polyroots`` at full precision.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf, sqrt as mp_sqrt, polyroots
from mpmath.libmp import NoConvergence

from .polynomial import (
    POS_INF,
    IntVector,
    Polynomial,
    _primitive,
    cauchy_bound_vector,
    count_roots,
    odd_part_vector,
    sign_at,
    sign_variations,
    square_free_decompose,
)


class CertificateNotFound(Exception):
    """Raised when root finding does not converge or the residual tolerance
    is unreachable at the requested precision."""


@dataclass(frozen=True)
class HalflineVerdict:
    """Outcome of the half-line nonnegativity check.

    ``witness`` is present iff ``member`` is false and then satisfies
    ``witness >= 0`` and ``p(witness) < 0`` exactly.  ``trace`` names the
    sub-check that rejected: 'leading-sign', 'value-at-0' or 'odd-root'.
    """

    member: bool
    witness: Optional[Fraction] = None
    trace: Optional[str] = None


def _point_below_largest_root(f: IntVector, odd_part: IntVector) -> Fraction:
    """Rational point 0 < a < (largest root of odd_part) with f(a) < 0, exact.

    Bisects toward the largest sign-change root from below; immediately left
    of it f is strictly negative down to the previous root of f, so the
    shrinking left endpoint eventually lands in that negativity interval.
    No root of odd_part lies above b, so the question "is there a root
    above mid?" is a count on (mid, b], which stays short as b shrinks.
    """
    a, b = Fraction(0), cauchy_bound_vector(f)
    while True:
        if a > 0 and sign_at(f, a) < 0:
            return a
        mid = (a + b) / 2
        if count_roots(odd_part, mid, b) >= 1:
            a = mid
        else:
            b = mid


def check_nonneg_halfline(p: Polynomial) -> HalflineVerdict:
    """Exact test of p(x) >= 0 for all x >= 0, with witness extraction.

    The whole decision, witnesses included, runs on f = p.vector, which is
    p times its denominator p.den > 0 and so has p's sign at every point.  A sign
    change on (0, inf) happens exactly at an odd-multiplicity root, so after
    the leading-sign and value-at-0 gates the decision reduces to counting
    the positive roots of the odd-multiplicity square-free factors.
    Coefficients without a sign change admit no positive root at all, which
    decides most members before any factoring.  A root at 0 never rejects
    by itself.
    """
    f = p.vector
    if not f:
        return HalflineVerdict(member=True)
    if f[-1] < 0:
        # beyond the Cauchy radius the sign equals the leading sign
        return HalflineVerdict(member=False, witness=cauchy_bound_vector(f), trace="leading-sign")
    if f[0] < 0:
        return HalflineVerdict(member=False, witness=Fraction(0), trace="value-at-0")
    if sign_variations(f) == 0:
        return HalflineVerdict(member=True)
    odd = odd_part_vector(_primitive(f))
    if count_roots(odd, 0, POS_INF) == 0:
        return HalflineVerdict(member=True)
    return HalflineVerdict(
        member=False, witness=_point_below_largest_root(f, odd), trace="odd-root"
    )


# -- certificate extraction -------------------------------------------------
#
# The set {f1^2 + f2^2 + x*(g1^2 + g2^2)} is the norm form of a quaternion
# algebra over Q[x] with i^2 = -1, j^2 = -x, so it is closed under products.
# Each building block of a member polynomial maps to a quaternion:
#   perfect square F^2        -> (F, 0, 0, 0)
#   a lone factor x           -> (0, 0, 1, 0)          norm x
#   x + s with s > 0          -> (sqrt(s), 0, 1, 0)    norm x + s
#   (x - a)^2 + b^2           -> (x - a, b, 0, 0)
#   positive constant c       -> (sqrt(c), 0, 0, 0)
# Multiplying the quaternions and reading off the components yields the
# decomposition; only root finding and square roots are numeric, and those
# values are rounded to dyadic rationals before the (exact) assembly.  Real
# quaternions (F, 0, 0, 0) are central, so the squares and sqrt(lead) form
# one polynomial that scales the product of the other blocks once.

Quaternion = tuple[Polynomial, Polynomial, Polynomial, Polynomial]

_GUARD_BITS = 64
_SEED_TOL = 1e-15
_SEED_FLOOR = 1.5e-8  # about sqrt(float epsilon)
_SEED_STEPS = 100


@dataclass(frozen=True)
class PolyaSzegoCertificate:
    """Numeric decomposition p ~ f1^2 + f2^2 + x*(g1^2 + g2^2).

    Coefficients of the four parts are binary rationals; ``residual`` is the
    exactly-computed max-norm of p minus the reconstruction.
    """

    f1: Polynomial
    f2: Polynomial
    g1: Polynomial
    g2: Polynomial
    residual: Fraction
    precision_bits: int

    def reconstruction(self) -> Polynomial:
        x = Polynomial.x()
        return (self.f1 * self.f1 + self.f2 * self.f2) + x * (
            self.g1 * self.g1 + self.g2 * self.g2
        )


def _qmul(q1: Quaternion, q2: Quaternion) -> Quaternion:
    u, v, w, t = q1
    uu, vv, ww, tt = q2
    x = Polynomial.x()
    return (
        u * uu - v * vv - x * (w * ww) - x * (t * tt),
        u * vv + v * uu + x * (w * tt - t * ww),
        u * ww + w * uu - v * tt + t * vv,
        u * tt + t * uu + v * ww - w * vv,
    )


def _dyadic(value, bits: int) -> Fraction:
    """Round an mpmath real to the nearest multiple of 2**-bits."""
    scaled = mpf(value) * (1 << bits)
    return Fraction(int(mp.nint(scaled)), 1 << bits)


def _round_poly(p: Polynomial, bits: int) -> Polynomial:
    grid = 1 << bits
    return Polynomial(Fraction(round(c * grid), grid) for c in p.coeffs)


def _float_roots(c: list[complex]) -> list[complex]:
    """Durand–Kerner on Python ``complex`` numbers for the monic c (highest first).

    The iteration is the one ``polyroots`` runs: the same start circle and
    in-place updates.  It stops once the largest correction, relative to its
    root, is below _SEED_TOL; or once it is below _SEED_FLOOR and no longer
    shrinks, where float rounding rather than the iteration sets its size;
    or after _SEED_STEPS steps.
    """
    roots = [(0.4 + 0.9j) ** k for k in range(len(c) - 1)]
    previous = float("inf")
    for _ in range(_SEED_STEPS):
        largest = 0.0
        for i, z in enumerate(roots):
            step = 0j
            for a in c:
                step = step * z + a
            for j, w in enumerate(roots):
                if j != i and w != z:
                    step /= z - w
            roots[i] = z - step
            largest = max(largest, abs(step) / max(1.0, abs(z)))
        if largest < _SEED_TOL or previous <= largest < _SEED_FLOOR:
            break
        previous = largest
    return roots


def _float_seeds(coeffs_desc: list) -> Optional[list[complex]]:
    """Start values for ``polyroots``, so the multi-precision call only polishes.

    Returns None, and ``polyroots`` then starts from its own circle, when a
    seed is not finite (coefficients beyond the float range become inf), when
    the float stage overflows, or when two seeds coincide: equal real start
    values keep ``polyroots`` on the real line, away from complex roots.
    """
    try:
        roots = _float_roots([complex(a) for a in coeffs_desc])
    except OverflowError:  # abs() of a complex beyond the float range
        return None
    if all(cmath.isfinite(z) for z in roots) and len(set(roots)) == len(roots):
        return roots
    return None


def _squarefree_factor_quaternions(u: Polynomial, bits: int) -> list[Quaternion]:
    """Quaternions for one monic odd-multiplicity square-free factor u of a member.

    Such a factor has no positive real roots; a root at 0 is split off
    exactly and the remaining roots are located numerically.
    """
    quats: list[Quaternion] = []
    if u.coefficient(0) == 0:
        quats.append((Polynomial.zero(), Polynomial.zero(), Polynomial.one(), Polynomial.zero()))
        u = u // Polynomial.x()
    if u.degree < 1:
        return quats
    coeffs_desc = [mpf(c.numerator) / mpf(c.denominator) for c in reversed(u.coeffs)]
    try:
        roots = polyroots(coeffs_desc, maxsteps=200, extraprec=96,
                          roots_init=_float_seeds(coeffs_desc))
    except NoConvergence as exc:
        raise CertificateNotFound(f"root finding did not converge: {exc}") from exc
    im_tol = mpf(2) ** (-(bits // 2))
    n_real = 0
    n_pairs = 0
    for z in roots:
        if abs(z.imag) <= im_tol:
            if z.real > im_tol:
                raise CertificateNotFound(
                    "unexpected positive real root in an odd-multiplicity factor"
                )
            n_real += 1
            size = -z.real
            root_s = _dyadic(mp_sqrt(size if size > 0 else mpf(0)), bits)
            quats.append(
                (Polynomial((root_s,)), Polynomial.zero(), Polynomial.one(), Polynomial.zero())
            )
        elif z.imag > 0:
            n_pairs += 1
            alpha = _dyadic(z.real, bits)
            beta = _dyadic(z.imag, bits)
            quats.append(
                (Polynomial((-alpha, 1)), Polynomial((beta,)), Polynomial.zero(), Polynomial.zero())
            )
    if n_real + 2 * n_pairs != u.degree:
        raise CertificateNotFound("root classification failed; retry with more bits")
    return quats


def polya_szego_certificate(p: Polynomial, precision_bits: int = 128) -> PolyaSzegoCertificate:
    """Decompose a half-line-nonnegative p as f1^2 + f2^2 + x*(g1^2 + g2^2).

    Roots are seeded in floats, then polished by ``polyroots`` to
    ``precision_bits`` plus guard bits, which also decides convergence.  Every
    assembled coefficient is a binary rational, and the certificate is
    accepted only when the exactly-computed residual is at most
    2**(8 - precision_bits) * max|a_k|.

    Raises CertificateNotFound when root finding does not converge or that
    tolerance is unreachable at the requested precision, and ValueError for the zero polynomial or inputs
    that are not nonnegative on the half line.
    """
    if p.is_zero:
        raise ValueError("no certificate for the zero polynomial")
    if not check_nonneg_halfline(p).member:
        raise ValueError("polynomial is negative somewhere on [0, inf)")
    if precision_bits < 16:
        raise ValueError("precision_bits too small to be meaningful")
    work_bits = precision_bits + _GUARD_BITS

    with mp.workprec(work_bits + 64):
        lead = p.leading  # positive for members of degree >= 1, >= 0 for constants
        root_lead = _dyadic(mp_sqrt(mpf(lead.numerator) / mpf(lead.denominator)), work_bits)
        scale = Polynomial((root_lead,))  # sqrt(lead) times the squares: central
        q: Quaternion = (Polynomial.one(), Polynomial.zero(), Polynomial.zero(), Polynomial.zero())
        for factor, mult in square_free_decompose(p):
            for _ in range(mult // 2):
                scale = scale * factor
            if mult % 2:
                for block in _squarefree_factor_quaternions(factor, work_bits):
                    q = _qmul(q, block)

    f1, f2, g1, g2 = (_round_poly(scale * component, precision_bits) for component in q)
    x = Polynomial.x()
    delta = p - (f1 * f1 + f2 * f2) - x * (g1 * g1 + g2 * g2)
    residual = max((abs(c) for c in delta.coeffs), default=Fraction(0))
    tolerance = Fraction(2) ** (8 - precision_bits) * max(abs(c) for c in p.coeffs)
    if residual > tolerance:
        raise CertificateNotFound(
            f"residual {residual} exceeds tolerance {tolerance}; retry with more bits"
        )
    return PolyaSzegoCertificate(
        f1=f1, f2=f2, g1=g1, g2=g2, residual=residual, precision_bits=precision_bits
    )
