"""Exact matrix evaluation, the positive-matrix generator, and the oracle."""

import hashlib
import random
from fractions import Fraction

import pytest

from nppreserve import (
    Matrix2,
    Polynomial,
    PosMatrixParams,
    cauchy_bound,
    closed_form_image,
    falsify_random,
    horner_matrix_eval,
    parse_polynomial,
    posmatrix_generate,
    scramble_similarity,
)
from conftest import NEG_X, QUINTIC, random_polynomial, random_pos_params


class TestHorner:
    def test_identity_polynomial(self):
        a = Matrix2(1, 2, 3, 4)
        assert horner_matrix_eval(Polynomial.x(), a) == a

    def test_swap_squared(self):
        swap = Matrix2(0, 1, 1, 0)
        assert horner_matrix_eval(Polynomial((0, 0, 1)), swap) == Matrix2(1, 0, 0, 1)

    def test_quintic_on_ratio_template(self):
        a = Matrix2(0, 1, Fraction(1, 2), Fraction(1, 2))
        image = horner_matrix_eval(QUINTIC, a)
        # matches (1/(rho+mu)) [[rho p(-mu) + mu p(rho), rho(p(rho) - p(-mu))],
        #                       [mu(p(rho) - p(-mu)),    rho p(rho) + mu p(-mu)]]
        assert image == Matrix2(
            Fraction(-3, 16), Fraction(19, 16), Fraction(19, 32), Fraction(13, 32)
        )

    def test_zero_polynomial(self):
        assert horner_matrix_eval(Polynomial(()), Matrix2(5, 6, 7, 8)) == Matrix2(0, 0, 0, 0)

    def test_constant_gets_identity(self):
        assert horner_matrix_eval(Polynomial((7,)), Matrix2(1, 2, 3, 4)) == Matrix2(7, 0, 0, 7)


class TestPosMatrix:
    def test_negative_mu_example(self):
        b = posmatrix_generate(PosMatrixParams(1, Fraction(-1, 2), 1))
        assert b == Matrix2(Fraction(1, 4), Fraction(3, 4), Fraction(3, 4), Fraction(1, 4))

    def test_rank_one_case(self):
        b = posmatrix_generate(PosMatrixParams(1, 0, 1))
        assert b == Matrix2(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    def test_positive_mu_example(self):
        b = posmatrix_generate(PosMatrixParams(2, 1, 2))
        assert b == Matrix2(Fraction(5, 3), Fraction(1, 3), Fraction(2, 3), Fraction(4, 3))

    def test_spectrum_and_positivity(self):
        rng = random.Random(100)
        for _ in range(200):
            params = random_pos_params(rng)
            b = posmatrix_generate(params)
            assert min(b.entries) > 0 or params.mu == 0  # mu = 0 gives entries >= 0 rank-one
            assert b.a11 + b.a22 == params.rho + params.mu
            assert b.a11 * b.a22 - b.a12 * b.a21 == params.rho * params.mu

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PosMatrixParams(1, Fraction(-1, 2), Fraction(1, 4))  # below |mu|/rho
        with pytest.raises(ValueError):
            PosMatrixParams(1, Fraction(-1, 2), 3)  # above rho/|mu|
        with pytest.raises(ValueError):
            PosMatrixParams(1, 2, 1)  # |mu| >= rho
        with pytest.raises(ValueError):
            PosMatrixParams(-1, 0, 1)
        with pytest.raises(ValueError):
            PosMatrixParams(1, 0, 0)


class TestClosedForm:
    def test_identity_polynomial(self):
        params = PosMatrixParams(3, Fraction(1, 2), Fraction(5, 4))
        assert closed_form_image(Polynomial.x(), params) == posmatrix_generate(params)

    def test_square_example(self):
        params = PosMatrixParams(1, Fraction(-1, 2), 1)
        image = closed_form_image(Polynomial((0, 0, 1)), params)
        assert image == Matrix2(Fraction(5, 8), Fraction(3, 8), Fraction(3, 8), Fraction(5, 8))
        b = posmatrix_generate(params)
        assert image.entries == naive_horner(Polynomial((0, 0, 1)), b)

    def test_quintic_example(self):
        params = PosMatrixParams(1, Fraction(-1, 2), 1)
        assert closed_form_image(QUINTIC, params) == Matrix2(
            Fraction(7, 64), Fraction(57, 64), Fraction(57, 64), Fraction(7, 64)
        )

    def test_agrees_with_horner(self):
        rng = random.Random(2025)
        polys = [random_polynomial(rng) for _ in range(10)] + [QUINTIC]
        for _ in range(100):
            params = random_pos_params(rng)
            b = posmatrix_generate(params)
            for p in polys:
                assert horner_matrix_eval(p, b) == closed_form_image(p, params)


class TestScramble:
    def test_identity_scramble(self):
        a = Matrix2(1, 2, 3, 4)
        assert scramble_similarity(a, 1, 1, False) == a

    def test_diagonal_example(self):
        a = Matrix2(0, 1, Fraction(1, 2), Fraction(1, 2))
        assert scramble_similarity(a, 1, 2, False) == Matrix2(
            0, 2, Fraction(1, 4), Fraction(1, 2)
        )

    def test_swap_conjugation(self):
        a = Matrix2(1, 2, 3, 4)
        assert scramble_similarity(a, 1, 1, True) == Matrix2(4, 3, 2, 1)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            scramble_similarity(Matrix2(1, 0, 0, 1), 0, 1, False)

    def test_verdict_invariance(self):
        # p(D^-1 A D) = D^-1 p(A) D and permutation alike: nonnegativity of
        # the image must not change under scrambling
        rng = random.Random(55)
        for _ in range(60):
            p = random_polynomial(rng, max_degree=5)
            a = Matrix2(*(Fraction(rng.randint(0, 32), 16) for _ in range(4)))
            base = min(horner_matrix_eval(p, a).entries) >= 0
            d1 = Fraction(rng.randint(1, 24), 8)
            d2 = Fraction(rng.randint(1, 24), 8)
            swap = bool(rng.randint(0, 1))
            scrambled = scramble_similarity(a, d1, d2, swap)
            assert (min(horner_matrix_eval(p, scrambled).entries) >= 0) == base


class TestFalsify:
    def test_finds_quintic_violation(self):
        found = falsify_random(QUINTIC, 10_000, seed=42)
        assert found == Matrix2(0, Fraction(91, 216), Fraction(81, 256), Fraction(5, 64))
        assert min(found.entries) >= 0
        assert min(horner_matrix_eval(QUINTIC, found).entries) < 0

    def test_never_falsifies_square(self):
        assert falsify_random(Polynomial((0, 0, 1)), 10_000, seed=3) is None

    def test_neg_x_found_fast(self):
        for seed in (0, 1, 2):
            found = falsify_random(parse_polynomial("-x"), 100, seed=seed)
            assert found is not None
            assert min(horner_matrix_eval(parse_polynomial("-x"), found).entries) < 0

    def test_deterministic(self):
        a = falsify_random(QUINTIC, 2000, seed=9)
        b = falsify_random(QUINTIC, 2000, seed=9)
        assert a == b

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            falsify_random(QUINTIC, 0, seed=1)


# -- plain exact references ------------------------------------------------------


def naive_horner(p, a):
    """The entries of p(A), by Horner with one full 2x2 product per coefficient."""
    a11, a12, a21, a22 = a.entries
    r11 = r12 = r21 = r22 = Fraction(0)
    for c in reversed(p.coeffs):
        r11, r12, r21, r22 = (r11 * a11 + r12 * a21 + c, r11 * a12 + r12 * a22,
                              r21 * a11 + r22 * a21, r21 * a12 + r22 * a22 + c)
    return r11, r12, r21, r22


class _ReferenceStream:
    """The falsifier's stream: draw n is sha256("nppreserve:<seed>:<trial>:<n>")."""

    def __init__(self, seed, trial):
        self.prefix = f"nppreserve:{seed}:{trial}:"
        self.counter = 0

    def randint(self, lo, hi):
        self.counter += 1
        digest = hashlib.sha256((self.prefix + str(self.counter)).encode()).digest()
        return lo + int.from_bytes(digest, "big") % (hi - lo + 1)


def reference_falsify(p, trials, seed):
    """The falsifier as a plain Fraction loop: sample, scramble, matmul Horner."""
    span = int(cauchy_bound(p)) + 1 if not p.is_zero else 1
    limit = span * 64
    for trial in range(trials):
        rng = _ReferenceStream(seed, trial)
        family = trial % 3
        if family == 0:
            a = Matrix2(*(Fraction(rng.randint(0, limit), 64) for _ in range(4)))
        elif family == 1:
            i = rng.randint(0, limit)
            rho = Fraction(i, 64)
            mu = Fraction(rng.randint(-i, i), 64)
            a = Matrix2((rho + mu) / 2, (rho - mu) / 2, (rho - mu) / 2, (rho + mu) / 2)
        else:
            i = rng.randint(1, limit)
            rho = Fraction(i, 64)
            mu = Fraction(rng.randint(1, i), 64)
            a = Matrix2(0, rho, mu, rho - mu)
        if rng.randint(0, 1):
            d1 = 1 + Fraction(rng.randint(0, 15), 16)
            d2 = 1 + Fraction(rng.randint(0, 15), 16)
            a = scramble_similarity(a, d1, d2, swap=bool(rng.randint(0, 1)))
        assert min(a.entries) >= 0  # every family samples nonnegative matrices
        if min(naive_horner(p, a)) < 0:
            return a
    return None


def _degree12(rng, sign_low):
    coeffs = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(12)]
    coeffs[0] *= sign_low
    return Polynomial(coeffs + [Fraction(rng.randint(1, 9), rng.randint(1, 9))])


_RNG = random.Random(4099)
_BIG, _TINY = Fraction(10**40, 3), Fraction(1, 10**30)
FALSIFY_CASES = [
    Polynomial(()),
    Polynomial((Fraction(3, 4),)),
    Polynomial((-1,)),
    parse_polynomial("-x^3 + x"),
    parse_polynomial("-x^2 + 2x"),
    parse_polynomial("x^2"),
    QUINTIC,
    NEG_X,
    _degree12(_RNG, 1),  # member: nonnegative coefficients
    _degree12(_RNG, -1),
    parse_polynomial("x^12 - x^11 + 1/3*x^3 + 2"),
    Polynomial((_BIG, -1, 0, 1)),
    Polynomial((1, -_BIG, 0, _TINY)),  # Cauchy bound near 10^70
    Polynomial((0, _TINY, -1, _TINY)),
    Polynomial((-_TINY, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, _BIG)),
] + [random_polynomial(_RNG, max_degree=12) for _ in range(6)]


class TestAgainstReference:
    def test_horner_matches_matmul_horner(self):
        # horner_matrix_eval clears the denominators of p and of A and divides
        # only the four entries at the end; naive_horner stays in Fraction
        rng = random.Random(77)
        polys = [random_polynomial(rng, max_degree=12) for _ in range(40)]
        polys += [Polynomial((_BIG, -_TINY, 0, 1)), Polynomial((_TINY,) * 13),
                  Polynomial(()), Polynomial((Fraction(-5, 7),)), Polynomial((_BIG,)),
                  Polynomial((0, 0, _TINY, 0, 0, -_BIG))]
        fixed = [
            Matrix2(Fraction(1, 3), Fraction(-2, 5), 7, Fraction(5, 6)),  # mixed denominators
            Matrix2(Fraction(1, 2**64), Fraction(3, 10**12), Fraction(-1, 9), 0),
            Matrix2(10**40, 0, Fraction(1, 10**40), -(10**40)),
            Matrix2(_BIG, _TINY, -_BIG, Fraction(10**40, 7)),
            Matrix2(0, 0, 0, 0),
            Matrix2(Fraction(-3, 4), 0, 0, Fraction(-3, 4)),
        ]
        for p in polys:
            drawn = [Matrix2(*(Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(4)))
                     for _ in range(5)]
            for a in drawn + fixed:
                assert horner_matrix_eval(p, a).entries == naive_horner(p, a), (p, a)

    @pytest.mark.parametrize("p", FALSIFY_CASES)
    def test_falsify_matches_fraction_loop(self, p):
        for seed in (0, 1, 2, 3):
            for trials in (1, 10, 120):
                expected = reference_falsify(p, trials, seed)
                assert falsify_random(p, trials, seed) == expected, (seed, trials)
