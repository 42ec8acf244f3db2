"""Half-line nonnegativity decisions and decomposition certificates."""

import cmath
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmath import mpf
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


# -- the float seeds of the certificate's root finder ------------------------

X = Polynomial.x()


def _linear(s):
    return X + Polynomial((s,))


def _quadratic(a, b):
    """(x - a)^2 + b^2: the roots a +- b*i."""
    return Polynomial((a * a + b * b, -2 * a, 1))


def _product(factors, lead=1):
    p = Polynomial((lead,))
    for factor in factors:
        p = p * factor
    return p


def _cluster(spacing, n=4):
    """Real roots -1, -1 - spacing, ..., n of them."""
    return _product(_linear(1 + k * spacing) for k in range(n))


def _outcome(p):
    try:
        cert = polya_szego_certificate(p, 128)
    except CertificateNotFound as exc:
        return type(exc), str(exc)
    return cert.f1, cert.f2, cert.g1, cert.g2, cert.residual


def _reference_outcome(p):
    """The outcome when polyroots starts from its own circle, without seeds."""
    with mock.patch.object(nppreserve.halfline, "_float_seeds", lambda coeffs_desc: None):
        return _outcome(p)


def _within_tolerance(p, outcome):
    if outcome[0] is CertificateNotFound:
        return True
    return outcome[-1] <= Fraction(2) ** (8 - 128) * max(abs(c) for c in p.coeffs)


positive = st.builds(Fraction, st.integers(1, 40), st.integers(1, 8))
real = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))
factor = st.one_of(
    positive.map(_linear),
    st.tuples(real, positive).map(lambda ab: _quadratic(*ab)),
    positive.map(lambda r: _linear(-r) * _linear(-r)),  # (x - r)^2, a touch at r > 0
)


@st.composite
def members(draw):
    """A positive constant times linear, quadratic and square factors, degree <= 14.

    Some quadratics share one imaginary part, which ties them in polyroots'
    sort key up to rounding, and some members have a root at 0.
    """
    b = draw(positive)
    drawn = draw(st.lists(st.one_of(factor, real.map(lambda a: _quadratic(a, b))),
                          min_size=1, max_size=10))
    if draw(st.booleans()):
        drawn.append(X)
    kept, degree = [], 0
    for f in drawn:
        if degree + f.degree <= 14:
            kept.append(f)
            degree += f.degree
    return _product(kept, draw(positive))


NAMED_MEMBERS = {
    **{f"cluster spacing 1e-{k}": _cluster(Fraction(1, 10**k)) for k in (2, 4, 6, 8)},
    "five quadratics with imaginary part 1/2": _product(
        _quadratic(Fraction(a), Fraction(1, 2)) for a in (-2, -1, 0, 1, 2)),
    "quadratics with imaginary part 3 and a root at 0": _product(
        [_quadratic(Fraction(a, 4), Fraction(3)) for a in (-3, 3, 5)] + [X, _linear(2)]),
    "coefficient 10^400": _linear(10**400) * _linear(1),
    "coefficient 10^-400": _linear(Fraction(1, 10**400)) * _quadratic(1, 1),
    "coefficient 10^40/3": _product([_quadratic(0, 1), _linear(Fraction(10**40, 3))]),
    "coefficient 1/10^30": _quadratic(0, Fraction(1, 10**15)) * _linear(Fraction(1, 10**30)),
}


class TestSeededRoots:
    """Seeding polyroots from floats changes no certificate.

    The reference is the same certificate with ``_float_seeds`` returning
    None, which is polyroots called from its own start circle.
    """

    @settings(max_examples=100, deadline=None)
    @given(members())
    def test_matches_unseeded_reference(self, p):
        seeded = _outcome(p)
        assert seeded == _reference_outcome(p)
        assert _within_tolerance(p, seeded)

    @pytest.mark.parametrize("name", sorted(NAMED_MEMBERS))
    def test_matches_unseeded_reference_on_named_inputs(self, name):
        p = NAMED_MEMBERS[name]
        seeded = _outcome(p)
        assert seeded == _reference_outcome(p)
        assert _within_tolerance(p, seeded)

    def test_float_seeds_are_close_to_the_roots(self):
        # (x + 1)(x + 2)((x + 1)^2 + 1), highest coefficient first
        seeds = nppreserve.halfline._float_seeds([mpf(c) for c in (1, 5, 10, 10, 4)])
        for root in (-1, -2, -1 + 1j, -1 - 1j):
            assert min(abs(z - root) for z in seeds) < 1e-12

    def test_float_stage_never_raises(self):
        overflow = [mpf(1), mpf(10) ** 400]  # x + 10^400: complex() gives inf
        assert nppreserve.halfline._float_seeds(overflow) is None
        underflow = [mpf(1), mpf(10) ** -400]  # x + 10^-400: the seed is 0
        assert nppreserve.halfline._float_seeds(underflow) == [0j]
        # x^2 + 10^300 overflows inside the iteration and ends in nan
        assert nppreserve.halfline._float_seeds([mpf(1), mpf(0), mpf(10) ** 300]) is None
        with mock.patch.object(nppreserve.halfline, "_float_roots", side_effect=OverflowError):
            assert nppreserve.halfline._float_seeds([mpf(1), mpf(2)]) is None
        for p in (_linear(10**400), _linear(Fraction(1, 10**400))):
            outcome = _outcome(p)
            assert outcome == _reference_outcome(p)
            assert _within_tolerance(p, outcome)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-420, 420)), min_size=1, max_size=12))
    def test_float_stage_returns_finite_seeds_or_none(self, terms):
        coeffs_desc = [mpf(1)] + [mpf(m) * mpf(10) ** e for m, e in terms]
        seeds = nppreserve.halfline._float_seeds(coeffs_desc)
        assert seeds is None or (
            len(seeds) == len(terms) and all(cmath.isfinite(z) for z in seeds))

    def test_coinciding_seeds_fall_back_to_the_circle(self):
        # No input met so far makes two float seeds equal, so the float stage
        # is replaced.  All-real equal starts would keep polyroots off the
        # complex roots for good; such seeds are dropped instead.
        p = _product([_linear(1), _linear(2), _quadratic(-1, 1)])
        with mock.patch.object(nppreserve.halfline, "_float_roots",
                               lambda c: [-1.5 + 0j] * (len(c) - 1)):
            assert nppreserve.halfline._float_seeds([mpf(1)] * 5) is None
            outcome = _outcome(p)
        assert outcome == _reference_outcome(p)
        assert _within_tolerance(p, outcome) and outcome[0] is not CertificateNotFound
