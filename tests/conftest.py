"""Shared fixtures: named example polynomials and the 200-polynomial corpus."""

import random
from fractions import Fraction

import pytest

from nppreserve import (
    NEG_INF,
    POS_INF,
    Polynomial,
    PosMatrixParams,
    check_nonneg_halfline,
    parse_polynomial,
    sturm_count,
)
from nppreserve.polynomial import reflect_vector

# Named inputs reused across the suite.
QUINTIC = parse_polynomial("x^5 - 2x^3 + 2x")
NEG_X = parse_polynomial("-x")
QUARTIC = parse_polynomial("x^4 - x^2 + x + 1")
QUARTIC_EVEN = parse_polynomial("x^4 - x^2 + 1")
QUINTIC_DERIV = parse_polynomial("5x^4 - 6x^2 + 2")
QUARTIC_DERIV = parse_polynomial("4x^3 - 2x + 1")

# Members of the 2x2 preserver class that bypass the fast paths, so they
# exercise the grid refuter and the exact cone decision.
CERTIFY_MEMBER = parse_polynomial("x^4 + x^3 - x^2 + x + 1")

CURATED = [
    QUINTIC,
    NEG_X,
    QUARTIC,
    QUARTIC_EVEN,
    QUINTIC_DERIV,
    QUARTIC_DERIV,
    CERTIFY_MEMBER,
    Polynomial(()),
    Polynomial((1,)),
    Polynomial((Fraction(3, 4),)),
    Polynomial((-1,)),
    parse_polynomial("x"),
    parse_polynomial("x^2"),
    parse_polynomial("x^3"),
    parse_polynomial("x^2 + x"),
    parse_polynomial("1 + x + x^2"),
    parse_polynomial("x^2 - 1"),
    parse_polynomial("x^2 - 2x + 1"),
    parse_polynomial("x^5 - x^3 + x"),
    parse_polynomial("x^4 - 2x^2 + 1/2*x + 1"),
    parse_polynomial("-x^2"),
    parse_polynomial("2x^3 - x"),
]


def random_polynomial(rng: random.Random, max_degree: int = 6) -> Polynomial:
    degree = rng.randint(0, max_degree)
    coeffs = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(degree + 1)
    ]
    return Polynomial(coeffs)


def random_pos_params(rng: random.Random) -> PosMatrixParams:
    """Random (rho, mu, alpha) inside the positivity window."""
    rho = Fraction(rng.randint(1, 64), 16)
    mu = Fraction(rng.randint(-int(rho * 16) + 1, int(rho * 16) - 1), 16)
    if mu < 0:
        lo, hi = -mu / rho, rho / -mu
        alpha = lo + (hi - lo) * Fraction(rng.randint(1, 31), 32)
    else:
        alpha = Fraction(rng.randint(1, 64), 16)
    return PosMatrixParams(rho, mu, alpha)


@pytest.fixture(scope="session")
def corpus200() -> list[Polynomial]:
    """Curated separating examples plus random rational polynomials of degree <= 6."""
    rng = random.Random(20240809)
    polys = list(CURATED)
    while len(polys) < 200:
        polys.append(random_polynomial(rng))
    return polys


# -- replay of the cone decision's separation certificate ----------------------


def _gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero:
        a, b = b, a % b
    return a


def replay_separation(p: Polynomial, cert) -> int:
    """Check a SeparationCertificate of p with Fraction arithmetic and Sturm
    counts alone; returns the number of comparisons replayed.

    Replays the claim of the cone module: the even part is in P1, a_m > 0,
    the intervals isolate every nonzero real root of M = z*p' - p, and every
    pair z1 < 0 < z2 (and every positive root, when a0 = 0) carries a proof.
    """
    even, _ = p.parity_parts()
    assert check_nonneg_halfline(even).member
    if p.degree < 2:
        assert not cert.roots and not cert.comparisons
        return 0
    assert p.leading > 0
    m = Polynomial((k - 1) * c for k, c in enumerate(p.coeffs))
    while m.coefficient(0) == 0:
        m = m // Polynomial.x()
    crit = Polynomial(cert.critical)
    assert crit(0) != 0
    assert (m % crit).is_zero and crit.degree == (m // _gcd(m, m.derivative())).degree
    assert len(cert.roots) == sturm_count(crit, NEG_INF, POS_INF)
    for (lo, hi), (nlo, nhi) in zip(cert.roots, cert.roots[1:]):
        assert hi <= nlo
    for lo, hi in cert.roots:
        assert hi <= 0 or lo >= 0
        assert crit(hi) == 0 if lo == hi else sturm_count(crit, lo, hi) == 1
    dp = p.derivative()

    def sign_on(i, c):
        """The sign of p' - c on the closed interval of root i, or 0 if it
        is not constant there."""
        f, (lo, hi) = dp - Polynomial((c,)), cert.roots[i]
        if lo != hi and (f(lo) == 0 or sturm_count(f, lo, hi) > 0):
            return 0
        return (f(hi) > 0) - (f(hi) < 0)

    negative = [i for i, (lo, hi) in enumerate(cert.roots) if hi <= 0]
    positive = [i for i, (lo, hi) in enumerate(cert.roots) if lo >= 0]
    expected = [(i, j) for i in negative for j in positive]
    a0, a1 = p.coefficient(0), p.coefficient(1)
    if a0 == 0:
        expected += [(None, j) for j in positive]
    assert sorted((-1 if c.low is None else c.low, c.high) for c in cert.comparisons) == sorted(
        (-1 if i is None else i, j) for i, j in expected)
    diagonal = _gcd(crit, Polynomial(reflect_vector(cert.critical)))
    for c in cert.comparisons:
        j = c.high
        if c.kind == "separated":
            (bound,) = c.bounds
            assert sign_on(j, bound) == 1
            assert sign_on(c.low, bound) == -1 if c.low is not None else bound == a1
        elif c.kind == "equal":
            (lo1, hi1), (lo2, hi2) = cert.roots[c.low], cert.roots[j]
            assert lo1 == hi1 and lo2 == hi2 and dp(hi1) == dp(hi2)
        elif c.kind == "tie":
            lo, hi = c.bounds
            values = Polynomial(cert.critical_values)
            composed = Polynomial.zero()
            for coefficient in reversed(values.coeffs):
                composed = (composed * dp + Polynomial((coefficient,))) % crit
            assert not values.is_zero and composed.is_zero  # R(p'(z)) = 0 at every root
            inside = sturm_count(values, lo, hi) - (values(hi) == 0)
            assert inside == 1
            for i in (c.low, j):
                assert sign_on(i, lo) == 1 and sign_on(i, hi) == -1
        elif c.kind == "edge-tie":
            g = _gcd(crit, p - Polynomial((0, a1)))
            lo, hi = cert.roots[j]
            assert g(hi) == 0 if lo == hi else sturm_count(g, lo, hi) == 1
        elif c.kind == "outside":
            # a root lies in the open (lo, hi), or is lo == hi
            (lo1, hi1), (lo2, hi2) = cert.roots[c.low], cert.roots[j]
            assert -hi1 > hi2 or (-hi1 == hi2 and (lo1 != hi1 or lo2 != hi2))
        else:
            assert c.kind == "diagonal"
            (lo1, hi1), (lo2, hi2) = cert.roots[c.low], cert.roots[j]
            if lo1 == hi1 or lo2 == hi2:
                # an exact root r: the other root is -r when -r is a root in its interval
                r, (lo, hi) = (hi1, (lo2, hi2)) if lo1 == hi1 else (hi2, (lo1, hi1))
                assert crit(-r) == 0 and (lo == hi == -r or lo < -r < hi)
            else:
                # both roots of gcd(M(z), M(-z)), whose roots come in pairs +-x,
                # with as many of its roots in [z1, 0) as in (0, z2]
                assert sturm_count(diagonal, lo1, hi1) == 1 == sturm_count(diagonal, lo2, hi2)
                assert sturm_count(diagonal, lo1, 0) == sturm_count(diagonal, 0, hi2)
    return len(cert.comparisons)
