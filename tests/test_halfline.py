"""Half-line nonnegativity decisions and decomposition certificates."""

import random
from fractions import Fraction

import pytest

from mpmath.libmp import NoConvergence

import nppreserve.halfline
from nppreserve import (
    CertificateNotFound,
    Polynomial,
    cauchy_bound,
    check_nonneg_halfline,
    parse_polynomial,
    polya_szego_certificate,
)
from conftest import QUARTIC_DERIV, QUARTIC_EVEN, QUINTIC_DERIV, random_polynomial


def grid_minimum(p, step=Fraction(1, 256)):
    """Exact minimum of p over {j*step : 0 <= j*step <= cauchy_bound(p)}."""
    points = int(cauchy_bound(p) / step)
    return min(p(j * step) for j in range(points + 1))


class TestDecision:
    def test_members(self):
        for p in (QUINTIC_DERIV, QUARTIC_EVEN, QUARTIC_DERIV, Polynomial(()),
                  Polynomial.x(), parse_polynomial("x^2 - 2x + 1")):
            assert check_nonneg_halfline(p).member, str(p)

    def test_neg_x(self):
        v = check_nonneg_halfline(parse_polynomial("-x"))
        assert not v.member
        assert v.witness == 1
        assert parse_polynomial("-x")(v.witness) == -1
        assert v.trace == "leading-sign"

    def test_negative_constant(self):
        v = check_nonneg_halfline(Polynomial((-3,)))
        assert not v.member and v.trace == "leading-sign"

    def test_value_at_zero(self):
        v = check_nonneg_halfline(parse_polynomial("x^2 - 1"))
        assert not v.member
        assert v.witness == 0
        assert v.trace == "value-at-0"

    def test_odd_root_witness(self):
        p = parse_polynomial("x^2 - x")
        v = check_nonneg_halfline(p)
        assert not v.member
        assert v.trace == "odd-root"
        assert v.witness > 0 and p(v.witness) < 0

    def test_positive_touch_is_member(self):
        # (x-1)^2 * (x+2) touches zero but never crosses on [0, inf)
        p = parse_polynomial("x^2 - 2x + 1") * parse_polynomial("x + 2")
        assert check_nonneg_halfline(p).member

    def test_root_at_zero_never_rejects(self):
        for expr in ("x", "x^3", "x^3 + x^2"):
            assert check_nonneg_halfline(parse_polynomial(expr)).member


class TestWitnessSoundness:
    def test_random_rejections_are_exact(self):
        rng = random.Random(4242)
        rejected = 0
        for _ in range(300):
            p = random_polynomial(rng, max_degree=7)
            v = check_nonneg_halfline(p)
            if not v.member:
                rejected += 1
                assert v.witness is not None and v.witness >= 0
                assert p(v.witness) < 0
                assert v.trace in ("leading-sign", "value-at-0", "odd-root")
        assert rejected > 50  # the sample really exercises the reject paths

    def test_members_pass_grid_minimum(self):
        rng = random.Random(777)
        checked = 0
        for _ in range(120):
            p = random_polynomial(rng, max_degree=6)
            if p.is_zero or not check_nonneg_halfline(p).member:
                continue
            checked += 1
            assert grid_minimum(p) >= 0
        assert checked > 20


class TestMonotoneConsistency:
    def test_nonneg_derivative_implies_increasing(self):
        # antiderivatives of coefficientwise-nonnegative polynomials
        rng = random.Random(31)
        for _ in range(40):
            deriv = Polynomial(
                [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            )
            p = Polynomial([Fraction(rng.randint(0, 3))] + [
                c / (k + 1) for k, c in enumerate(deriv.coeffs)
            ])
            assert check_nonneg_halfline(p.derivative()).member
            assert p(0) >= 0
            for _ in range(10):
                x = Fraction(rng.randint(0, 64), 16)
                y = x + Fraction(rng.randint(0, 64), 16)
                assert p(x) <= p(y)


class TestCertificate:
    @pytest.mark.parametrize(
        "expr",
        ["5x^4 - 6x^2 + 2", "x^4 - x^2 + 1", "4x^3 - 2x + 1"],
    )
    def test_displayed_decompositions(self, expr):
        p = parse_polynomial(expr)
        cert = polya_szego_certificate(p, 128)
        tolerance = Fraction(2) ** (8 - 128) * max(abs(c) for c in p.coeffs)
        assert cert.residual <= tolerance
        delta = p - cert.reconstruction()
        assert max((abs(c) for c in delta.coeffs), default=Fraction(0)) == cert.residual

    def test_pure_x(self):
        cert = polya_szego_certificate(Polynomial.x(), 128)
        assert cert.residual == 0
        assert cert.f1.is_zero and cert.f2.is_zero
        assert cert.g1 == Polynomial.one() and cert.g2.is_zero

    def test_even_touch_grouping_is_validated_by_residual(self):
        # repeated positive root: (x-1)^2 (x+1)
        p = parse_polynomial("x^2 - 2x + 1") * parse_polynomial("x + 1")
        cert = polya_szego_certificate(p, 128)
        assert cert.residual <= Fraction(2) ** (8 - 128) * max(abs(c) for c in p.coeffs)

    def test_constant(self):
        cert = polya_szego_certificate(Polynomial((Fraction(9, 4),)), 128)
        assert cert.residual <= Fraction(2) ** (8 - 128) * Fraction(9, 4)
        assert cert.g1.is_zero and cert.g2.is_zero

    def test_binary_rational_coefficients(self):
        cert = polya_szego_certificate(parse_polynomial("4x^3 - 2x + 1"), 128)
        for part in (cert.f1, cert.f2, cert.g1, cert.g2):
            for c in part.coeffs:
                assert c.denominator & (c.denominator - 1) == 0  # power of two

    def test_more_bits_shrink_residual(self):
        p = parse_polynomial("5x^4 - 6x^2 + 2")
        loose = polya_szego_certificate(p, 64)
        tight = polya_szego_certificate(p, 192)
        assert tight.residual <= loose.residual

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            polya_szego_certificate(Polynomial(()), 128)

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            polya_szego_certificate(parse_polynomial("-x"), 128)

    def test_root_finding_failure_is_certificate_not_found(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise NoConvergence("no convergence")

        monkeypatch.setattr(nppreserve.halfline, "polyroots", no_convergence)
        with pytest.raises(CertificateNotFound):
            polya_szego_certificate(parse_polynomial("5x^4 - 6x^2 + 2"), 128)

    def test_random_members_certify(self):
        rng = random.Random(606)
        done = 0
        while done < 15:
            p = random_polynomial(rng, max_degree=6)
            if p.is_zero or not check_nonneg_halfline(p).member:
                continue
            cert = polya_szego_certificate(p, 128)
            assert cert.residual <= Fraction(2) ** (8 - 128) * max(abs(c) for c in p.coeffs)
            done += 1
