"""Top-level membership checks, witness templates, and coherence invariants."""

import itertools
import random
from fractions import Fraction

import pytest

from nppreserve import (
    Matrix2,
    MembershipStatus,
    Polynomial,
    PreserverClass,
    TrailEntry,
    check_circulant2,
    check_p1,
    check_p2,
    check_spectral,
    horner_matrix_eval,
    p3_necessary_screen,
    parse_polynomial,
    witness_from_ratio,
    witness_from_spectral,
)
from nppreserve.polynomial import reflect_vector
from conftest import CERTIFY_MEMBER, QUARTIC, QUINTIC, random_polynomial
from test_polynomial import REFERENCE_CASES, _ref_count, _ref_halfline

MONOTONE_BREAKER = parse_polynomial("x^4 - 2x^2 + 1/2*x + 1")  # only p' leaves P1


def _ref_spectral(p):
    """(member, witness_point, trail) of the spectral conditions, from the
    Fraction half-line reference and the witness rules: the even or the odd
    part failing at x0 gives (x0, -x0); a sole derivative failure at x0 gives
    (x0 + h, x0) for the first h = 1/2, 1/4, ... with p(x0 + h) < p(x0),
    where after 64 halvings p' must also have no root in (x0, x0 + h]."""
    dp = p.derivative()
    even = Polynomial(c if k % 2 == 0 else 0 for k, c in enumerate(p.coeffs))
    verdicts = [_ref_halfline(q) for q in (dp, even, p - even)]
    names = ("p_prime_in_P1", "p_even_in_P1", "p_odd_in_P1")
    trail = tuple(
        TrailEntry(name, "member") if member
        else TrailEntry(name, "not_member", f"{trace} at {witness}")
        for name, (member, witness, trace) in zip(names, verdicts)
    )
    (d_member, x0, _), (e_member, xe, _), (o_member, xo, _) = verdicts
    if d_member and e_member and o_member:
        return True, None, trail
    if not e_member:
        return False, (xe, -xe), trail
    if not o_member:
        return False, (xo, -xo), trail
    base, h = p(x0), Fraction(1, 2)
    for k in itertools.count():
        if p(x0 + h) < base and (k < 64 or _ref_count(dp, x0, x0 + h) == 0):
            return False, (x0 + h, x0), trail
        h /= 2


class TestCheckP1:
    def test_quartic_member(self):
        assert check_p1(QUARTIC).status is MembershipStatus.MEMBER

    def test_neg_x(self):
        v = check_p1(parse_polynomial("-x"))
        assert v.status is MembershipStatus.NOT_MEMBER
        assert v.witness_point == (1, 1)  # the 1x1 witness embedded as a pair
        assert v.witness_matrix is None

    def test_zero(self):
        assert check_p1(Polynomial(())).status is MembershipStatus.MEMBER


class TestCheckSpectral:
    def test_quintic_member(self):
        assert check_spectral(QUINTIC).member

    def test_neg_x_witness(self):
        res = check_spectral(parse_polynomial("-x"))
        assert not res.member
        rho, mu = res.witness_point
        assert (rho, mu) == (1, -1)
        p = parse_polynomial("-x")
        assert p(rho) < abs(p(mu))

    def test_quartic_member(self):
        assert check_spectral(QUARTIC).member

    def test_derivative_only_failure(self):
        res = check_spectral(MONOTONE_BREAKER)
        assert not res.member
        statuses = {e.name: e.status for e in res.trail}
        assert statuses["p_prime_in_P1"] == "not_member"
        assert statuses["p_even_in_P1"] == "member"
        assert statuses["p_odd_in_P1"] == "member"
        rho, mu = res.witness_point
        assert rho >= abs(mu) and mu >= 0
        p = MONOTONE_BREAKER
        assert p(rho) < abs(p(mu))  # monotonicity violation, exact
        assert (res.member, res.witness_point, res.trail) == _ref_spectral(p)

    def test_monotonicity_fallback_after_64_halvings(self):
        # p' = 4(x - 1)(x - 1 - e)(x + 3) is negative only on (1, 1 + e), so
        # no step h = 2^-1 .. 2^-64 right of the derivative witness decreases
        # p, and the witness comes from the root-count fallback
        e = Fraction(1, 2**70)
        p = Polynomial([36, 12 * (1 + e), 2 * (1 + e - 3 * (2 + e)), Fraction(4, 3) * (1 - e), 1])
        assert p.derivative() == 4 * Polynomial((-1, 1)) * Polynomial((-1 - e, 1)) * Polynomial((3, 1))
        res = check_spectral(p)
        statuses = [entry.status for entry in res.trail]
        assert statuses == ["not_member", "member", "member"]
        rho, mu = res.witness_point
        assert (rho, mu) == (
            Fraction(2787593149816327892694227584687420226579115, 2**141),
            Fraction(2787593149816327892693932436782240873753259, 2**141),
        )
        assert all(p(mu + Fraction(1, 2**k)) >= p(mu) for k in range(1, 65))
        assert p(rho) < abs(p(mu))
        assert (res.member, res.witness_point, res.trail) == _ref_spectral(p)

    def test_witness_always_violates(self):
        rng = random.Random(1234)
        rejected = 0
        for _ in range(200):
            p = random_polynomial(rng)
            res = check_spectral(p)
            if not res.member:
                rejected += 1
                rho, mu = res.witness_point
                assert rho >= abs(mu)
                assert p(rho) < abs(p(mu))
        assert rejected > 50


class TestSpectralAgainstReference:
    """check_spectral decides on cleared integer vectors; the reference
    decides p', the even part and the odd part with Fraction Sturm chains."""

    @pytest.mark.parametrize("p, points", REFERENCE_CASES)
    def test_reference_cases(self, p, points):
        for q in (p, -p, Polynomial.from_vector(reflect_vector(p.vector), p.den)):
            res = check_spectral(q)
            assert (res.member, res.witness_point, res.trail) == _ref_spectral(q), str(q)


class TestCheckP2:
    def test_independence_quintic(self):
        v = check_p2(QUINTIC)
        assert v.status is MembershipStatus.NOT_MEMBER
        assert v.witness_matrix == Matrix2(0, 1, Fraction(1, 2), Fraction(1, 2))
        image = horner_matrix_eval(QUINTIC, v.witness_matrix)
        assert image.a11 == Fraction(-3, 16)
        statuses = {e.name: e.status for e in v.certificate_trail}
        assert statuses["p_prime_in_P1"] == "member"
        assert statuses["p_even_in_P1"] == "member"
        assert statuses["p_odd_in_P1"] == "member"
        assert statuses["ratio_condition"] == "fails"

    def test_separation_quartic(self):
        v = check_p2(QUARTIC)
        assert v.status is MembershipStatus.MEMBER
        assert all(e.status in ("member", "holds") for e in v.certificate_trail)
        assert len(v.certificate_trail) == 4

    def test_neg_x_spectral_failure(self):
        p = parse_polynomial("-x")
        v = check_p2(p)
        assert v.status is MembershipStatus.NOT_MEMBER
        assert v.witness_matrix == Matrix2(0, 1, 1, 0)
        assert horner_matrix_eval(p, v.witness_matrix) == Matrix2(0, -1, -1, 0)

    def test_x_member(self):
        assert check_p2(Polynomial.x()).status is MembershipStatus.MEMBER

    def test_derivative_failure_witness_matrix(self):
        v = check_p2(MONOTONE_BREAKER)
        assert v.status is MembershipStatus.NOT_MEMBER
        assert min(v.witness_matrix.entries) >= 0
        assert min(horner_matrix_eval(MONOTONE_BREAKER, v.witness_matrix).entries) < 0

    def test_cone_effort_counters(self):
        # the member is decided after the 12 points of grid levels 1 and 2:
        # its two critical points form no pair of the cone; the refutation
        # below the grid compared one pair, whose intervals give the witness
        v = check_p2(CERTIFY_MEMBER)
        assert v.status is MembershipStatus.MEMBER
        assert v.certificate_trail[-1].detail == "critical-points:2"
        assert v.budget_spent == {"grid_levels": 2, "grid_exact_checks": 12,
                                  "critical_points": 2, "critical_pairs": 0,
                                  "bisections": 4, "ties": 0}
        v = check_p2(parse_polynomial("x^5 - 1/100x^3 + x"))
        assert v.status is MembershipStatus.NOT_MEMBER
        assert v.witness_point == (Fraction(1, 14), Fraction(1, 28))
        assert v.budget_spent == {"grid_levels": 2, "grid_exact_checks": 12,
                                  "critical_points": 2, "critical_pairs": 1,
                                  "bisections": 10, "ties": 0}


class TestCheckCirculant:
    def test_neg_x(self):
        assert check_circulant2(parse_polynomial("-x")).status is MembershipStatus.NOT_MEMBER

    def test_square(self):
        assert check_circulant2(Polynomial((0, 0, 1))).status is MembershipStatus.MEMBER

    def test_quintic_preserves_circulants_but_not_p2(self):
        assert check_circulant2(QUINTIC).status is MembershipStatus.MEMBER
        assert check_p2(QUINTIC).status is MembershipStatus.NOT_MEMBER

    def test_matches_spectral_everywhere(self, corpus200):
        for p in corpus200:
            expected = (
                MembershipStatus.MEMBER
                if check_spectral(p).member
                else MembershipStatus.NOT_MEMBER
            )
            assert check_circulant2(p).status is expected, str(p)


class TestScreen:
    def test_quartic_fails_on_a2(self):
        screen = p3_necessary_screen(QUARTIC)
        assert not screen.passed
        assert screen.failing_index == 2
        assert screen.failing_coefficient == -1

    def test_all_nonneg_passes(self):
        assert p3_necessary_screen(parse_polynomial("1 + x + x^2")).passed

    def test_quintic_inconclusive_pass(self):
        assert p3_necessary_screen(QUINTIC).passed

    def test_low_degree_always_passes(self):
        assert p3_necessary_screen(parse_polynomial("-x")).passed
        assert p3_necessary_screen(Polynomial((-5,))).passed


class TestWitnessTemplates:
    def test_spectral_examples(self):
        assert witness_from_spectral(1, -1) == Matrix2(0, 1, 1, 0)
        assert witness_from_spectral(1, 1) == Matrix2(1, 0, 0, 1)
        assert witness_from_spectral(3, 1) == Matrix2(2, 1, 1, 2)

    def test_spectral_precondition(self):
        with pytest.raises(ValueError):
            witness_from_spectral(1, 2)

    def test_ratio_examples(self):
        assert witness_from_ratio(1, Fraction(1, 2)) == Matrix2(
            0, 1, Fraction(1, 2), Fraction(1, 2)
        )
        assert witness_from_ratio(1, 1) == Matrix2(0, 1, 1, 0)
        assert witness_from_ratio(2, 1) == Matrix2(0, 2, 1, 1)

    def test_ratio_precondition(self):
        with pytest.raises(ValueError):
            witness_from_ratio(1, 0)
        with pytest.raises(ValueError):
            witness_from_ratio(1, 2)


class TestCoherence:
    def test_class_chain_on_corpus(self, corpus200):
        for p in corpus200:
            v2 = check_p2(p)
            if v2.status is MembershipStatus.MEMBER:
                assert check_circulant2(p).status is MembershipStatus.MEMBER
                assert check_p1(p).status is MembershipStatus.MEMBER

    def test_witness_matrices_sound_on_corpus(self, corpus200):
        for p in corpus200:
            v2 = check_p2(p)
            if v2.status is MembershipStatus.NOT_MEMBER:
                assert min(v2.witness_matrix.entries) >= 0
                assert min(horner_matrix_eval(p, v2.witness_matrix).entries) < 0

    def test_classes_annotated(self):
        assert check_p1(QUARTIC).class_checked is PreserverClass.P1
        assert check_p2(QUARTIC).class_checked is PreserverClass.P2
        assert check_circulant2(QUARTIC).class_checked is PreserverClass.CIRCULANT2
