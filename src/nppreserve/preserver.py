"""Membership checks for polynomial classes that preserve nonnegative matrices.

A polynomial maps every entrywise-nonnegative 2x2 real matrix to a
nonnegative matrix iff its derivative, even part and odd part are all
nonnegative on the half line (the spectral conditions) and the cone
inequality rho*p(-mu) + mu*p(rho) >= 0 holds for 0 < mu <= rho.  Preserving
all nonnegative 2x2 circulants requires exactly the spectral conditions.
Every rejection is returned with an explicit nonnegative witness matrix
whose exact image under p has a negative entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .cone import RatioStatus, SeparationCertificate, check_ratio
from .halfline import check_nonneg_halfline
from .matrices import Matrix2
from .polynomial import Polynomial, count_roots, integer_vector, radical_vector

Rational = Union[Fraction, int, str]


class PreserverClass(str, Enum):
    P1 = "P1"
    P2 = "P2"
    CIRCULANT2 = "CIRCULANT2"
    P3_SCREEN = "P3_SCREEN"


class MembershipStatus(str, Enum):
    MEMBER = "member"
    NOT_MEMBER = "not_member"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TrailEntry:
    """One named sub-verdict of a membership check."""

    name: str
    status: str
    detail: Optional[str] = None


@dataclass(frozen=True)
class MembershipVerdict:
    class_checked: PreserverClass
    status: MembershipStatus
    witness_matrix: Optional[Matrix2] = None
    witness_point: Optional[tuple[Fraction, Fraction]] = None
    certificate_trail: tuple[TrailEntry, ...] = ()
    budget_spent: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScreenVerdict:
    """Necessary-condition screen; failing means decisively not a 3x3 preserver."""

    passed: bool
    failing_index: Optional[int] = None
    failing_coefficient: Optional[Fraction] = None


# -- witness matrix templates -------------------------------------------------


def witness_from_spectral(rho: Rational, mu: Rational) -> Matrix2:
    """Nonnegative circulant with eigenvalues {rho, mu}, rho >= |mu|:

    A = 1/2 * [[rho + mu, rho - mu], [rho - mu, rho + mu]]; then p(A) has
    entries (p(rho) +- p(mu)) / 2, so p(rho) < |p(mu)| forces one negative.
    """
    rho, mu = Fraction(rho), Fraction(mu)
    if not rho >= abs(mu):
        raise ValueError("need rho >= |mu|")
    diagonal, off = (rho + mu) / 2, (rho - mu) / 2
    return Matrix2(diagonal, off, off, diagonal)


def witness_from_ratio(rho: Rational, mu: Rational) -> Matrix2:
    """Nonnegative matrix [[0, rho], [mu, rho - mu]] for 0 < mu <= rho.

    Its image has top-left entry (rho*p(-mu) + mu*p(rho)) / (rho + mu), so a
    cone violation forces that entry negative.
    """
    rho, mu = Fraction(rho), Fraction(mu)
    if not 0 < mu <= rho:
        raise ValueError("need 0 < mu <= rho")
    return Matrix2(0, rho, mu, rho - mu)


# -- spectral conditions -------------------------------------------------------


@dataclass(frozen=True)
class SpectralResult:
    """Joint verdict on derivative, even part and odd part, with a violating
    pair (rho, mu), rho >= |mu|, p(rho) < |p(mu)| when any of them fails."""

    member: bool
    witness_point: Optional[tuple[Fraction, Fraction]]
    trail: tuple[TrailEntry, ...]


def _halfline_entry(name: str, verdict) -> TrailEntry:
    status = MembershipStatus.MEMBER.value if verdict.member else MembershipStatus.NOT_MEMBER.value
    detail = None if verdict.member else f"{verdict.trace} at {verdict.witness}"
    return TrailEntry(name, status, detail)


def _monotonicity_witness(p: Polynomial, dp: Polynomial, x0: Fraction
                          ) -> tuple[Fraction, Fraction]:
    """From p'(x0) < 0 produce (x0 + h, x0) with p(x0 + h) < p(x0), exactly.

    Plain halving of h almost always succeeds; if 64 steps do not, shrink h
    until p' has no root in (x0, x0 + h], which makes p strictly decreasing
    there and the comparison certain.
    """
    base = p(x0)
    h = Fraction(1, 2)
    for _ in range(64):
        if p(x0 + h) < base:
            return (x0 + h, x0)
        h = h / 2
    roots = radical_vector(integer_vector(dp))
    while True:
        if count_roots(roots, x0, x0 + h) == 0 and p(x0 + h) < base:
            return (x0 + h, x0)
        h = h / 2


def check_spectral(p: Polynomial) -> SpectralResult:
    """Exact test of p(rho) >= |p(mu)| for all rho >= |mu|.

    Equivalent to the derivative, even part and odd part all being
    nonnegative on [0, inf); each is an exact half-line decision.  A failure
    of the even (odd) part at x0 violates the inequality at (x0, -x0); a
    sole derivative failure yields a monotonicity violation just right
    of its witness.
    """
    vd = check_nonneg_halfline(p.derivative())
    even, odd = p.parity_parts()
    ve = check_nonneg_halfline(even)
    vo = check_nonneg_halfline(odd)
    trail = (
        _halfline_entry("p_prime_in_P1", vd),
        _halfline_entry("p_even_in_P1", ve),
        _halfline_entry("p_odd_in_P1", vo),
    )
    if vd.member and ve.member and vo.member:
        return SpectralResult(True, None, trail)
    if not ve.member:
        point = (ve.witness, -ve.witness)
    elif not vo.member:
        point = (vo.witness, -vo.witness)
    else:
        point = _monotonicity_witness(p, p.derivative(), vd.witness)
    return SpectralResult(False, point, trail)


# -- public membership checks --------------------------------------------------


def _spectral_rejection(class_checked: PreserverClass, spectral: SpectralResult
                        ) -> MembershipVerdict:
    """NOT_MEMBER with the circulant witness of a failed spectral check."""
    rho, mu = spectral.witness_point
    return MembershipVerdict(class_checked, MembershipStatus.NOT_MEMBER,
                             witness_matrix=witness_from_spectral(rho, mu),
                             witness_point=(rho, mu), certificate_trail=spectral.trail)


def check_p1(p: Polynomial) -> MembershipVerdict:
    """Nonnegativity on [0, inf); rejections carry the 1x1 witness (x0, x0)."""
    v = check_nonneg_halfline(p)
    if v.member:
        return MembershipVerdict(
            PreserverClass.P1,
            MembershipStatus.MEMBER,
            certificate_trail=(TrailEntry("p_in_P1", "member"),),
        )
    return MembershipVerdict(
        PreserverClass.P1,
        MembershipStatus.NOT_MEMBER,
        witness_point=(v.witness, v.witness),
        certificate_trail=(_halfline_entry("p_in_P1", v),),
    )


def check_p2(p: Polynomial) -> MembershipVerdict:
    """Preservation of all nonnegative 2x2 matrices.

    Spectral conditions first, then the cone check; both are exact and
    decisive, so the verdict is never UNKNOWN.
    """
    spectral = check_spectral(p)
    if not spectral.member:
        return _spectral_rejection(PreserverClass.P2, spectral)
    rv = check_ratio(p)
    detail = rv.certificate if isinstance(rv.certificate, str) else None
    if isinstance(rv.certificate, SeparationCertificate):
        detail = f"critical-points:{len(rv.certificate.roots)}"
    trail = spectral.trail + (TrailEntry("ratio_condition", rv.status.value, detail),)
    if rv.status is RatioStatus.FAILS:
        w = rv.witness
        return MembershipVerdict(
            PreserverClass.P2,
            MembershipStatus.NOT_MEMBER,
            witness_matrix=witness_from_ratio(w.rho, w.mu),
            witness_point=(w.rho, w.mu),
            certificate_trail=trail,
            budget_spent=rv.budget_spent,
        )
    return MembershipVerdict(
        PreserverClass.P2,
        MembershipStatus.MEMBER,
        certificate_trail=trail,
        budget_spent=rv.budget_spent,
    )


def check_circulant2(p: Polynomial) -> MembershipVerdict:
    """Preservation of all nonnegative 2x2 circulants: the spectral predicate."""
    spectral = check_spectral(p)
    if not spectral.member:
        return _spectral_rejection(PreserverClass.CIRCULANT2, spectral)
    return MembershipVerdict(
        PreserverClass.CIRCULANT2,
        MembershipStatus.MEMBER,
        certificate_trail=spectral.trail,
    )


def p3_necessary_screen(p: Polynomial) -> ScreenVerdict:
    """Coefficient screen: a 3x3 preserver of degree >= 2 has a0, a1, a2 >= 0.

    FAIL certifies non-membership; PASS is inconclusive (degree < 2 inputs
    always pass since the coefficient result needs degree >= 2).
    """
    if p.degree >= 2:
        for k in range(3):
            if p.coefficient(k) < 0:
                return ScreenVerdict(False, failing_index=k,
                                     failing_coefficient=p.coefficient(k))
    return ScreenVerdict(True)
