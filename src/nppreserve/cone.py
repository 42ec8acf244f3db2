"""Decide the cone inequality rho*p(-mu) + mu*p(rho) >= 0 for 0 < mu <= rho.

The decision is exact and two-valued.  Dividing by rho*mu > 0 separates
the variables: with phi(z) = p(z)/z the inequality reads

    phi(rho) >= phi(-mu)            for 0 < mu <= rho.

On the diagonal mu = rho, phi(x) - phi(-x) = 2*p_even(x)/x, so the diagonal
holds exactly when the even part of p is nonnegative on the half line (in
P1).  Since phi'(z) = M(z)/z^2 with

    M(z) = z*p'(z) - p(z) = sum (k - 1)*a_k*z^k,

every critical point of phi is a real root of one integer polynomial, and
at such a root phi(z) = p'(z).  With m = deg p:

Claim.  Let the even part be in P1 (so a0 >= 0), m >= 2 and a_m > 0.  The
inequality holds exactly when
  (a) phi(z2) >= phi(z1) for all nonzero real roots z1 < 0 < z2 of M with
      |z1| < z2, and
  (b) if a0 = 0: phi(z2) >= a1 for every positive root z2 of M.

Proof.  Both conditions are necessary: (z2, |z1|) is a point of the cone,
and when a0 = 0, phi(-mu) -> a1 as mu -> 0.  For sufficiency suppose
phi(r) < phi(-s) at some 0 < s <= r.  Write psi(mu) = phi(-mu).  As
mu -> 0, psi tends to -inf when a0 > 0 and to a1 when a0 = 0 (then phi is
the polynomial p(z)/z).  So on (0, r] the supremum of psi, which exceeds
phi(r), is attained at mu = r, or at an interior critical point mu1 (where
M(-mu1) = 0), or it is the limit a1 at 0 (only if a0 = 0).
  * At mu = r: phi(r) < phi(-r) contradicts the diagonal.
  * The limit a1: phi(r) < a1 = phi(0).  phi -> +inf as z -> inf because
    a_m > 0 and m >= 2, so phi has a minimum on [0, inf), not at 0, hence
    at a positive root z2 of M with phi(z2) <= phi(r) < a1: (b) fails.
  * At mu1: put z1 = -mu1, so phi(r) < phi(z1).  phi has a minimum on
    [mu1, inf), at most phi(r).  At mu1 it would give phi(mu1) < phi(-mu1),
    against the diagonal; so it lies at a root z2 > mu1 = |z1| of M with
    phi(z2) < phi(z1): (a) fails.
Outside the claim's assumptions the inequality fails: if the even part is
not in P1 it fails on the diagonal; if m >= 2 and a_m < 0, phi(rho) -> -inf
as rho -> inf for a fixed mu.  If m < 2 and a0 >= 0 the value is
a0*(rho + mu) >= 0.

certify_ratio checks (a) and (b) on the isolating intervals of the real
roots of the square-free part of M (the factor z removed).  It bisects
intervals until enclosures of p' on them separate.  Exact equalities never
separate, and are decided by exact algebra instead:
  * |z1| = z2 exactly when both are roots of D = gcd(M(z), M(-z)) of equal
    rank among its positive and negative roots (D is even up to sign);
  * phi(z1) = phi(z2) when both enclosures lie in an interval that holds one
    root of R(c) = Res_z(M, p - c*z), the characteristic polynomial of
    multiplication by p' modulo M, whose roots are the critical values;
  * phi(z2) = a1 exactly when z2 is a root of gcd(M, p - a1*z).

check_ratio takes exact fast paths first, then checks the 12 points of
dyadic grid levels 1 and 2 of the compactified form (below) one by one, in
exact integers, and returns the first negative one as the canonical
witness; only then does it run the decision.  A failure found there keeps
the decision's own witness: from the failing pair's intervals, as the
rationals with the smallest denominators inside them, from the diagonal,
or from infinity.  The grid picks the witness, never the verdict, and its
work is the same for p and for every positive multiple c*p.

The substitution mu = t*rho, rho = r/(1-r) compactifies the cone onto the
unit square:

    P(t, r) = sum_k a_k * ((-t)^k + t) * r^k * (1 - r)^(m-k)
            = (1 - r)^m * (rho*p(-mu) + mu*p(rho)) / rho,

so the inequality holds on the open cone iff P >= 0 on [0, 1]^2 (by
continuity).  _scan_grid evaluates the sign of P at its grid points in
integers, without building P; P as a bivariate polynomial (compactify) is
built only by the test reference tests/bernstein_reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .halfline import check_nonneg_halfline
from .polynomial import (
    IntVector,
    Polynomial,
    _primitive,
    count_roots,
    gcd_vector,
    integer_vector,
    isolate_roots,
    radical_vector,
    reflect_vector,
    scaled_value,
    sign_at,
)

Rational = Union[Fraction, int, str]


def ratio_value(p: Polynomial, rho: Rational, mu: Rational) -> Fraction:
    """Exact value of rho*p(-mu) + mu*p(rho)."""
    rho = Fraction(rho)
    mu = Fraction(mu)
    return rho * p(-mu) + mu * p(rho)


@dataclass(frozen=True)
class ConeWitness:
    """Exact violating point: 0 < mu <= rho and rho*p(-mu) + mu*p(rho) < 0."""

    rho: Fraction
    mu: Fraction
    value: Fraction


# -- verdicts ----------------------------------------------------------------


class RatioStatus(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"


Certificate = Union[str, "SeparationCertificate", None]


@dataclass(frozen=True)
class RatioVerdict:
    status: RatioStatus
    witness: Optional[ConeWitness] = None
    certificate: Certificate = None
    budget_spent: dict = field(default_factory=dict)


# -- refutation --------------------------------------------------------------


# the deepest grid level: its points and those of level 1 are the canonical
# witnesses of the common refutations, found before the exact decision runs
_GRID_DEPTH = 2


def _scan_grid(p: Polynomial) -> tuple[Optional[ConeWitness], dict]:
    """Grid search for P < 0 on (0,1] x (0,1), in exact integers.

    Level L holds the points (t, r) = (i/n, j/n), n = 2^L, 1 <= i <= n,
    1 <= j < n; levels 1 .. _GRID_DEPTH are visited in order, by column i
    and then row j, skipping the points of the level above.  The first
    negative point is the witness: the coarsest-level lexicographic-first
    one.  A zero never counts as negative.

    The point maps back to rho = j/q, mu = i*j/(n*q) with q = n - j, and
    with H(x, d) = d^m f(x/d) for f the vector of p (a constant counts as
    degree m = 1) the cone value there is j*s / (q*(n*q)^m*p.den), where
    s = H(-i*j, n*q) + i*n^(m-1)*H(j, q).  The counters are the levels
    visited and the points evaluated.
    """
    counters = {"grid_levels": 0, "grid_exact_checks": 0}
    m = max(p.degree, 1)
    f = list(p.vector) + [0] * (m + 1 - len(p.vector))
    for level in range(1, _GRID_DEPTH + 1):
        counters["grid_levels"] += 1
        n = 1 << level
        for i in range(1, n + 1):
            top = i * n ** (m - 1)
            for j in range(1, n):
                if level > 1 and i % 2 == 0 and j % 2 == 0:
                    continue  # a point of the level above
                counters["grid_exact_checks"] += 1
                q = n - j
                s = scaled_value(f, -i * j, n * q) + top * scaled_value(f, j, q)
                if s < 0:
                    value = Fraction(j * s, q * (n * q) ** m * p.den)
                    return ConeWitness(Fraction(j, q), Fraction(i * j, n * q), value), counters
    return None, counters


# -- the exact decision -----------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """One step of a separation certificate, on critical points named by
    their index into SeparationCertificate.roots (low None: the limit a1 of
    phi(-mu) as mu -> 0).

    kind is one of
      * "separated": p' < bounds[0] on the low interval and p' > bounds[0]
        on the high one, so phi(high) > phi(low) (for low None, bounds[0]
        is a1);
      * "tie": both enclosures lie in the open interval bounds, which holds
        a single root of critical_values, so phi(high) = phi(low);
      * "equal": both roots are exact rationals with equal values of p';
      * "edge-tie": high is a root of gcd(M, p - a1*z), so phi(high) = a1;
      * "outside": |low| > high, not a point of the cone;
      * "diagonal": |low| = high, both roots of gcd(M(z), M(-z)) of equal
        rank, which the even part's nonnegativity covers.
    """

    kind: str
    low: Optional[int]
    high: int
    bounds: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class SeparationCertificate:
    """Replayable proof that the cone inequality holds (see the module
    docstring).  critical is the primitive square-free part of M with the
    factor z removed; roots are its real roots in increasing order, each the
    only one in (lo, hi], or exactly lo when lo == hi; critical_values is the
    square-free part of R when a tie needed it."""

    critical: tuple[int, ...]
    roots: tuple[tuple[Fraction, Fraction], ...]
    comparisons: tuple[Comparison, ...]
    critical_values: tuple[int, ...] = ()


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator in the open interval
    (lo, hi), and of those the one nearest 0: the continued fraction
    descent of the Stern-Brocot tree."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_between(-hi, -lo)
    whole = lo.numerator // lo.denominator
    if whole + 1 < hi:
        return Fraction(whole + 1)
    # lo and hi lie in [whole, whole + 1]: recurse on 1/(x - whole)
    top = 1 / (hi - whole)
    if lo == whole:
        return whole + 1 / Fraction(top.numerator // top.denominator + 1)
    return whole + 1 / _simplest_between(top, 1 / (lo - whole))


class _Root:
    """A real root of the square-free vector f in (lo, hi]; exact once
    sign_hi, the sign of f(hi), is 0.  Bisection keeps f(hi) of that sign."""

    __slots__ = ("f", "index", "lo", "hi", "sign_hi")

    def __init__(self, f: IntVector, index: int, lo: Fraction, hi: Fraction):
        self.f, self.index, self.lo, self.hi = f, index, lo, hi
        self.sign_hi = sign_at(f, hi)

    @property
    def exact(self) -> bool:
        return self.sign_hi == 0

    def point(self) -> Fraction:
        """The root once it is exact, else the rational with the smallest
        denominator strictly inside the interval."""
        return self.hi if self.exact else _simplest_between(self.lo, self.hi)

    def cut(self, x: Fraction) -> None:
        """Keep the half of the interval on the root's side of lo < x < hi."""
        s = sign_at(self.f, x)
        if s == 0 or s == self.sign_hi:
            self.hi, self.sign_hi = x, s
        else:
            self.lo = x

    def bounds(self) -> tuple[Fraction, Fraction]:
        """The root is hi when exact, else in the open interval (lo, hi)."""
        return (self.hi, self.hi) if self.exact else (self.lo, self.hi)


def _charpoly(a: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial (low to high, monic) of a square matrix, by
    the Faddeev-LeVerrier recurrence: from B_0 = 0 and c_n = 1,
    B_k = A*B_(k-1) + c_(n-k+1)*I and c_(n-k) = -tr(A*B_k)/k."""
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    ab = [[Fraction(0)] * n for _ in range(n)]  # A*B_(k-1)
    for k in range(1, n + 1):
        b = [[ab[i][j] + coeffs[n - k + 1] * (i == j) for j in range(n)] for i in range(n)]
        ab = [[sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        coeffs[n - k] = Fraction(-sum(ab[i][i] for i in range(n)), k)
    return coeffs


def _critical_values(critical: IntVector, dp: Polynomial) -> IntVector:
    """Square-free part of R(c) = Res_z(M, p - c*z): the characteristic
    polynomial of multiplication by p' in Q[z]/(M), whose roots are the
    values p'(z) = phi(z) at the roots z of M.  Faddeev-LeVerrier (_charpoly)
    builds it from the matrix's columns as rows: a matrix and its transpose
    have the same characteristic polynomial."""
    modulus = Polynomial(critical)
    n = modulus.degree
    column = dp % modulus
    columns = []
    for _ in range(n):
        columns.append([column.coefficient(i) for i in range(n)])
        column = (column * Polynomial.x()) % modulus
    return radical_vector(integer_vector(Polynomial(_charpoly(columns))))


def _count_open(f: IntVector, lo: Fraction, hi: Fraction) -> int:
    """Roots of the square-free vector f in the open interval (lo, hi)."""
    return count_roots(f, lo, hi) - (sign_at(f, hi) == 0)


# bisection rounds of one comparison before each test for an exact tie
_TIE_TEST_AFTER = 8


class _Separation:
    """The state of one decision: the critical points of phi, their
    comparisons, and the integer algebra for ties, built when first needed."""

    def __init__(self, p: Polynomial, critical: IntVector):
        self.p, self.critical = p, critical
        self.dp = p.derivative()
        ddp = self.dp.derivative()
        # |p''(z)| <= ddp_abs(reach) for |z| <= reach
        self.ddp_abs = Polynomial.from_vector([abs(c) for c in ddp.vector], ddp.den)
        self.roots = [_Root(critical, i, lo, hi)
                      for i, (lo, hi) in enumerate(isolate_roots(critical))]
        for root in self.roots:
            if root.lo < 0 < root.hi:
                root.cut(Fraction(0))  # M(0) != 0: every root gets a sign
        self.comparisons: list[Comparison] = []
        self.counters = {"critical_points": len(self.roots), "critical_pairs": 0,
                         "bisections": 0, "ties": 0}
        self._diagonal: Optional[IntVector] = None
        self._values: Optional[IntVector] = None
        self._edge: Optional[IntVector] = None

    def enclose(self, z: _Root) -> tuple[Fraction, Fraction]:
        """Bounds on p' over the closed interval of z, so on phi(z): the
        value at the midpoint plus or minus half the width times a bound on
        |p''|."""
        if z.exact:
            v = self.dp(z.hi)
            return v, v
        mid = (z.lo + z.hi) / 2
        v = self.dp(mid)
        reach = max(-z.lo, z.hi)
        radius = (z.hi - z.lo) / 2 * self.ddp_abs(reach)
        return v - radius, v + radius

    def bisect(self, *zs: _Root) -> None:
        for z in zs:
            if not z.exact:
                z.cut((z.lo + z.hi) / 2)
                self.counters["bisections"] += 1

    def _is_diagonal(self, z1: _Root, z2: _Root) -> bool:
        """|z1| = z2: both are roots of D = gcd(M(z), M(-z)), whose roots
        come in pairs +-x, with as many roots of D in [z1, 0) as in (0, z2]."""
        if self._diagonal is None:
            self._diagonal = gcd_vector(self.critical, reflect_vector(self.critical))
        d = self._diagonal
        if len(d) < 2:
            return False
        return (count_roots(d, z1.lo, z1.hi) == 1 == count_roots(d, z2.lo, z2.hi)
                and count_roots(d, z1.lo, 0) == count_roots(d, 0, z2.hi))

    def skip_reason(self, z1: _Root, z2: _Root) -> Optional[str]:
        """None when |z1| < z2, else the kind of comparison that skips the
        pair: "outside" or "diagonal"."""
        if z1.exact and z2.exact and -z1.hi == z2.hi:
            return "diagonal"
        diagonal_tested = False
        while True:
            lo1, hi1 = z1.bounds()
            lo2, hi2 = z2.bounds()
            if -lo1 <= lo2:  # at most one bound is attained, so |z1| < z2
                return None
            if -hi1 >= hi2:
                return "outside"
            if not diagonal_tested:
                if self._is_diagonal(z1, z2):
                    return "diagonal"
                diagonal_tested = True
            self.bisect(z1, z2)

    def _is_tie(self, lows: list[Fraction], highs: list[Fraction], radius: Fraction
                ) -> Optional[tuple[Fraction, Fraction]]:
        """An open interval around both enclosures that holds a single root
        of R, or None."""
        if self._values is None:
            self._values = _critical_values(self.critical, self.dp)
        bounds = (min(lows) - radius, max(highs) + radius)
        return bounds if _count_open(self._values, *bounds) == 1 else None

    def compare(self, z1: _Root, z2: _Root) -> Optional[Comparison]:
        """Decide phi(z2) >= phi(z1) for |z1| < z2; None when it fails."""
        self.counters["critical_pairs"] += 1
        rounds = 0
        while True:
            l1, h1 = self.enclose(z1)
            l2, h2 = self.enclose(z2)
            if l2 > h1:
                return Comparison("separated", z1.index, z2.index, ((l2 + h1) / 2,))
            if h2 < l1:
                return None
            if z1.exact and z2.exact:
                self.counters["ties"] += 1
                return Comparison("equal", z1.index, z2.index)
            rounds += 1
            if rounds > _TIE_TEST_AFTER:
                radius = max(h1 - l1, h2 - l2)
                bounds = self._is_tie([l1, l2], [h1, h2], radius)
                if bounds is not None:
                    self.counters["ties"] += 1
                    return Comparison("tie", z1.index, z2.index, bounds)
            self.bisect(z1, z2)

    def compare_edge(self, z2: _Root, a1: Fraction) -> Optional[Comparison]:
        """Decide phi(z2) >= a1; None when it fails."""
        self.counters["critical_pairs"] += 1
        tie_tested = False
        while True:
            low, high = self.enclose(z2)
            if low > a1:
                return Comparison("separated", None, z2.index, (a1,))
            if high < a1:
                return None
            if not tie_tested:
                if self._edge is None:
                    edge = list(self.p.vector)
                    edge[1] = 0  # p - a1*z
                    self._edge = gcd_vector(self.critical, edge)
                g = self._edge
                if len(g) > 1 and count_roots(g, z2.lo, z2.hi) == 1:
                    self.counters["ties"] += 1
                    return Comparison("edge-tie", None, z2.index)
                tie_tested = True
            self.bisect(z2)

    def certificate(self) -> SeparationCertificate:
        roots = tuple(z.bounds() for z in self.roots)
        return SeparationCertificate(tuple(self.critical), roots, tuple(self.comparisons),
                                     tuple(self._values or ()))

    def pair_witness(self, z1: _Root, z2: _Root) -> ConeWitness:
        """Refine a failing pair until the simplest rationals in its
        intervals violate exactly."""
        while True:
            rho, mu = z2.point(), -z1.point()
            if mu <= rho:
                value = ratio_value(self.p, rho, mu)
                if value < 0:
                    return ConeWitness(rho, mu, value)
            self.bisect(z1, z2)

    def edge_witness(self, z2: _Root) -> ConeWitness:
        """phi(rho) < a1 = lim phi(-mu): shrink mu while refining rho."""
        scale = Fraction(1, 2)
        while True:
            rho = z2.point()
            value = ratio_value(self.p, rho, rho * scale)
            if value < 0:
                return ConeWitness(rho, rho * scale, value)
            scale /= 2
            self.bisect(z2)


def _diagonal_witness(even: Polynomial, x: Fraction) -> ConeWitness:
    """p_even(x) < 0 at some x > 0 near the half-line witness x >= 0: the
    cone value 2*x*p_even(x) at rho = mu = x is negative."""
    if x <= 0:
        x = Fraction(1)
        while even(x) >= 0:  # p_even(0) < 0 here
            x /= 2
    value = 2 * x * even(x)
    assert value < 0
    return ConeWitness(x, x, value)


def _infinity_witness(p: Polynomial) -> ConeWitness:
    """a_m < 0, m >= 2: phi(rho) -> -inf, so some rho = 2^k fails at mu = 1."""
    rho = Fraction(1)
    while ratio_value(p, rho, 1) >= 0:
        rho *= 2
    return ConeWitness(rho, Fraction(1), ratio_value(p, rho, 1))


_SEPARATION_COUNTERS = ("critical_points", "critical_pairs", "bisections", "ties")


def certify_ratio(p: Polynomial) -> RatioVerdict:
    """Exact, two-valued decision of the cone inequality by separation (see
    the module docstring): HOLDS with a SeparationCertificate, or FAILS with
    a witness from the failing pair, the diagonal or infinity."""
    counters = dict.fromkeys(_SEPARATION_COUNTERS, 0)
    even, _ = p.parity_parts()
    diagonal = check_nonneg_halfline(even)
    if not diagonal.member:
        return RatioVerdict(RatioStatus.FAILS, witness=_diagonal_witness(even, diagonal.witness),
                            budget_spent=counters)
    if p.degree >= 2 and p.leading < 0:
        return RatioVerdict(RatioStatus.FAILS, witness=_infinity_witness(p),
                            budget_spent=counters)
    if p.degree < 2:  # a0*(rho + mu) with a0 >= 0
        return RatioVerdict(RatioStatus.HOLDS, certificate=SeparationCertificate((1,), (), ()),
                            budget_spent=counters)
    m_vector = _primitive((k - 1) * c for k, c in enumerate(p.vector))
    while m_vector[0] == 0:
        m_vector.pop(0)  # the factor z: phi has no critical point at 0
    search = _Separation(p, radical_vector(m_vector))
    negative = [z for z in search.roots if z.hi <= 0]
    positive = [z for z in search.roots if z.lo >= 0]
    for z1 in negative:
        for z2 in positive:
            skip = search.skip_reason(z1, z2)
            if skip is not None:
                search.comparisons.append(Comparison(skip, z1.index, z2.index))
                continue
            proof = search.compare(z1, z2)
            if proof is None:
                return RatioVerdict(RatioStatus.FAILS, witness=search.pair_witness(z1, z2),
                                    budget_spent=search.counters)
            search.comparisons.append(proof)
    if p.coefficient(0) == 0:
        a1 = p.coefficient(1)
        for z2 in positive:
            proof = search.compare_edge(z2, a1)
            if proof is None:
                return RatioVerdict(RatioStatus.FAILS, witness=search.edge_witness(z2),
                                    budget_spent=search.counters)
            search.comparisons.append(proof)
    return RatioVerdict(RatioStatus.HOLDS, certificate=search.certificate(),
                        budget_spent=search.counters)


# -- the two-valued check ----------------------------------------------------


def check_ratio(p: Polynomial) -> RatioVerdict:
    """Exact cone decision: fast paths, the coarse grid, then separation.

    Fast paths (exact):
      * p = c*x or p = 0: P is identically zero.
      * all a_k >= 0 for k != 1: every surviving basis term of P is
        nonnegative on the square.
      * odd part equal to c*x and even part nonnegative on the half line:
        the odd part contributes exactly zero to the cone value.

    Then the grid of levels 1 .. 2 returns FAILS on its first negative
    point, and certify_ratio decides; a failure it finds keeps the witness
    of the failing pair, the diagonal or infinity.  The grid picks the
    witness of the common refutations, never the verdict.
    """
    counters = dict.fromkeys(("grid_levels", "grid_exact_checks") + _SEPARATION_COUNTERS, 0)
    if p.degree <= 1 and p.coefficient(0) == 0:
        return RatioVerdict(RatioStatus.HOLDS, certificate="zero-ratio-form",
                            budget_spent=counters)
    if all(c >= 0 for k, c in enumerate(p.vector) if k != 1):
        return RatioVerdict(RatioStatus.HOLDS, certificate="nonnegative-coefficients",
                            budget_spent=counters)
    even, odd = p.parity_parts()
    if odd.degree <= 1 and check_nonneg_halfline(even).member:
        return RatioVerdict(RatioStatus.HOLDS, certificate="linear-odd-part",
                            budget_spent=counters)
    witness, grid = _scan_grid(p)
    if witness is not None:
        return RatioVerdict(RatioStatus.FAILS, witness=witness, budget_spent=counters | grid)
    decided = certify_ratio(p)
    return RatioVerdict(decided.status, witness=decided.witness, certificate=decided.certificate,
                        budget_spent=grid | decided.budget_spent)
