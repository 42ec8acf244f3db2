"""Exact arithmetic, parity structure, and real-root counting."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nppreserve import (
    NEG_INF,
    POS_INF,
    Polynomial,
    cauchy_bound,
    check_nonneg_halfline,
    square_free_decompose,
    sturm_count,
)
from nppreserve.polynomial import (
    _monic,
    _unit_leaves,
    count_roots,
    count_unit_roots,
    integer_vector,
    isolate_roots,
    odd_part_vector,
    radical_vector,
    reflect_vector,
)
from conftest import QUARTIC, QUARTIC_DERIV, QUINTIC, QUINTIC_DERIV, random_polynomial
from polynomial_reference import Polynomial as FractionPolynomial

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)
wide_fractions_st = st.one_of(
    st.fractions(max_denominator=10**6),
    st.sampled_from([Fraction(10**40, 3), Fraction(-(10**40), 3), Fraction(1, 10**30),
                     Fraction(-1, 10**30), Fraction(0)]))
wide_poly_st = st.lists(wide_fractions_st, max_size=15)
poly_st = st.lists(fractions_st, max_size=7).map(Polynomial)
nonzero_poly_st = poly_st.filter(lambda p: not p.is_zero)


class TestEval:
    def test_identity(self):
        assert Polynomial.x()(1) == 1

    def test_quintic_at_minus_half(self):
        assert QUINTIC(Fraction(-1, 2)) == Fraction(-25, 32)

    def test_quartic_at_one(self):
        assert QUARTIC(1) == 2

    def test_zero_polynomial(self):
        assert Polynomial(())(Fraction(5, 3)) == 0


class TestDerivative:
    def test_quintic(self):
        assert QUINTIC.derivative() == QUINTIC_DERIV

    def test_constant(self):
        assert Polynomial((7,)).derivative().is_zero

    def test_quartic(self):
        # power rule: 4x^3 - 2x + 1
        assert QUARTIC.derivative() == QUARTIC_DERIV


class TestParity:
    def test_quintic_is_odd(self):
        even, odd = QUINTIC.parity_parts()
        assert even.is_zero
        assert odd == QUINTIC

    def test_quartic_split(self):
        even, odd = QUARTIC.parity_parts()
        assert even == Polynomial((1, 0, -1, 0, 1))
        assert odd == Polynomial.x()

    def test_even_square(self):
        even, odd = Polynomial((0, 0, 1)).parity_parts()
        assert even == Polynomial((0, 0, 1))
        assert odd.is_zero

    @given(poly_st, fractions_st)
    @settings(max_examples=60, deadline=None)
    def test_parity_identity(self, p, x):
        even, odd = p.parity_parts()
        assert even + odd == p
        assert even(x) == (p(x) + p(-x)) / 2
        assert odd(x) == (p(x) - p(-x)) / 2

    @given(poly_st)
    @settings(max_examples=60, deadline=None)
    def test_reflect_fixes_parity_parts(self, p):
        even, odd = p.parity_parts()
        assert reflect_vector(even.vector) == list(even.vector)
        assert reflect_vector(odd.vector) == list((-odd).vector)


class TestReflect:
    def test_constant(self):
        assert reflect_vector(Polynomial((Fraction(5, 2),)).vector) == [5]

    def test_odd_negates(self):
        assert reflect_vector(QUINTIC.vector) == list((-QUINTIC).vector)

    def test_quartic(self):
        assert reflect_vector(QUARTIC.vector) == [1, -1, -1, 0, 1]

    @given(poly_st)
    @settings(max_examples=60, deadline=None)
    def test_involution(self, p):
        assert reflect_vector(reflect_vector(p.vector)) == list(p.vector)


class TestRingLaws:
    @given(poly_st, poly_st, fractions_st)
    @settings(max_examples=60, deadline=None)
    def test_product_evaluates(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)

    @given(poly_st, nonzero_poly_st)
    @settings(max_examples=60, deadline=None)
    def test_divmod_reconstructs(self, p, d):
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.degree < d.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Polynomial.x(), Polynomial(()))

    @given(wide_poly_st, wide_poly_st, wide_fractions_st, wide_fractions_st)
    @settings(max_examples=150, deadline=None)
    @example([], [], Fraction(0), Fraction(0))
    @example([Fraction(-3, 2)], [], Fraction(1, 3), Fraction(5))
    @example([1, 0, -2], [Fraction(10**40, 3), -1], Fraction(-7, 2), Fraction(-2, 3))
    @example([Fraction(1, 10**30)] * 14 + [Fraction(10**40, 3)], [Fraction(1, 10**30), 2, -5],
             Fraction(1, 10**30), Fraction(10**40, 3))
    def test_matches_fraction_reference(self, a, b, x, s):
        """Every operation gives the coefficients of the Fraction
        implementation it replaced, and every result is in lowest terms."""

        def same(mine, ref):
            assert isinstance(mine.vector, tuple) and mine.den > 0
            assert not mine.vector or mine.vector[-1] != 0
            assert gcd(*mine.vector, mine.den) == 1
            assert mine.coeffs == ref.coeffs

        p, q = Polynomial(a), Polynomial(b)
        rp, rq = FractionPolynomial(a), FractionPolynomial(b)
        for mine, ref in ((p, rp), (p + q, rp + rq), (p - q, rp - rq), (-p, -rp),
                          (p * q, rp * rq), (p * s, rp * s), (s * p, s * rp),
                          (p.derivative(), rp.derivative()),
                          *zip(p.parity_parts(), rp.parity_parts())):
            same(mine, ref)
        assert [Fraction(c, p.den) for c in reflect_vector(p.vector)] == list(rp.reflect().coeffs)
        if not q.is_zero:
            for mine, ref in zip(divmod(p, q), divmod(rp, rq)):
                same(mine, ref)
        assert p(x) == rp(x)
        assert str(p) == str(rp) and repr(p) == repr(rp)
        assert p.coefficient_strings() == rp.coefficient_strings()
        assert (p.degree, p.leading) == (rp.degree, rp.leading)
        # the same polynomial from its Fractions and from a scaled vector
        twin = Polynomial.from_vector([-6 * c for c in p.vector], -6 * p.den)
        assert twin == p and hash(twin) == hash(p)
        same(twin, rp)
        assert (p == q) == (rp == rq)
        if p == q:
            assert hash(p) == hash(q)


class TestSquareFree:
    def test_double_root(self):
        assert square_free_decompose(Polynomial((1, -2, 1))) == [
            (Polynomial((-1, 1)), 2)
        ]

    def test_cube(self):
        assert square_free_decompose(Polynomial((0, 0, 0, 1))) == [
            (Polynomial.x(), 3)
        ]

    def test_already_squarefree(self):
        assert square_free_decompose(Polynomial((-1, 0, 1))) == [
            (Polynomial((-1, 0, 1)), 1)
        ]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            square_free_decompose(Polynomial(()))

    def test_constant_decomposes_empty(self):
        assert square_free_decompose(Polynomial((5,))) == []

    @given(nonzero_poly_st)
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, p):
        product = Polynomial((p.leading,))
        for factor, mult in square_free_decompose(p):
            assert factor.leading == 1
            for _ in range(mult):
                product = product * factor
        assert product == p


def _product_of_roots(roots):
    p = Polynomial.one()
    for r in roots:
        p = p * Polynomial((-r, 1))
    return p


class TestSturm:
    def test_examples(self):
        assert sturm_count(Polynomial((-1, 0, 1)), 0, 2) == 1
        assert sturm_count(Polynomial((1, 0, 1)), NEG_INF, POS_INF) == 0
        assert sturm_count(Polynomial((1, -2, 1)), 0, 2) == 1  # square-free part x-1

    def test_half_open_convention(self):
        p = Polynomial((0, 1))  # root exactly at 0
        assert sturm_count(p, -1, 0) == 1
        assert sturm_count(p, 0, 1) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(Polynomial(()), 0, 1)

    def test_clustered_degree_14_counts_exactly(self):
        # square-free with roots 1 + k/1000, k = 0..13: every run of
        # neighbouring roots is counted exactly, with (lo, hi] at both ends
        roots = [1 + Fraction(k, 1000) for k in range(14)]
        p = _product_of_roots(roots)
        assert sturm_count(p, NEG_INF, POS_INF) == 14
        assert sturm_count(p, 0, 2) == 14
        assert sturm_count(Polynomial(reflect_vector(p.vector)), NEG_INF, 0) == 14
        half_gap = Fraction(1, 2000)
        for i in range(14):
            assert sturm_count(p, roots[i] - half_gap, roots[i] + half_gap) == 1
            assert sturm_count(p, NEG_INF, roots[i]) == i + 1
            assert sturm_count(p, roots[i], POS_INF) == 13 - i
            for j in range(i + 1, 14):
                assert sturm_count(p, roots[i], roots[j]) == j - i

    def test_roots_closer_than_float_resolution(self):
        e = Fraction(1, 2**70)
        p = _product_of_roots([Fraction(1), 1 + e, Fraction(-3)])
        assert sturm_count(p, 0, 2) == 2
        assert sturm_count(p, 1, 1 + e) == 1
        assert sturm_count(p, 1 - e, 1 + e / 2) == 1
        assert sturm_count(p, 1 + e / 2, 2) == 1

    def test_constructed_roots(self):
        # counts must match the constructed distinct roots in (lo, hi]
        rng = random.Random(99)
        for _ in range(60):
            roots = sorted(
                {Fraction(rng.randint(-20, 20), rng.choice([3, 5, 7])) for _ in range(rng.randint(1, 6))}
            )
            p = _product_of_roots(roots)
            lo = Fraction(rng.randint(-30, 10), 4)
            hi = lo + Fraction(rng.randint(1, 40), 4)
            expected = sum(1 for r in roots if lo < r <= hi)
            assert sturm_count(p, lo, hi) == expected

    def test_multiplicity_does_not_inflate(self):
        rng = random.Random(5)
        for _ in range(20):
            roots = sorted({Fraction(rng.randint(-8, 8), 3) for _ in range(rng.randint(1, 3))})
            p = Polynomial.one()
            for r in roots:
                factor = Polynomial((-r, 1))
                p = p * factor * factor  # every root doubled
            assert sturm_count(p, NEG_INF, POS_INF) == len(roots)

    def test_grid_sign_change_agreement(self):
        # distinct simple roots off the dyadic grid, separated well beyond
        # the 2^-10 step, so grid sign changes count roots exactly
        rng = random.Random(2024)
        step = Fraction(1, 1024)
        lo, hi = Fraction(0), Fraction(2)
        for _ in range(8):
            count = rng.randint(1, 6)
            roots = sorted(Fraction(3 * k + rng.randint(1, 2), 9) for k in range(count))
            p = _product_of_roots(roots)
            values = [p(lo + j * step) for j in range(int((hi - lo) / step) + 1)]
            changes = sum(
                1 for a, b in zip(values, values[1:]) if a != 0 and b != 0 and (a < 0) != (b < 0)
            )
            assert sturm_count(p, lo, hi) == changes


# -- reference: the Fraction gcd, Yun and Sturm chains the integer kernel
# replaced; the kernel must reproduce their results exactly ----------------


def _ref_gcd(a, b):
    while not b.is_zero:
        a, b = b, a % b
    return a * (1 / a.leading) if not a.is_zero else a


def _ref_square_free(p):
    if p.degree <= 0:
        return []
    f = p * (1 / p.leading)
    df = f.derivative()
    a0 = _ref_gcd(f, df)
    b, c = f // a0, df // a0
    out = []
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        q = _ref_gcd(b, d)
        if q.degree > 0:
            out.append((q, i))
        b, c = b // q, d // q
        i += 1
    return out


def _ref_odd_part(p):
    out = Polynomial.one()
    for factor, mult in _ref_square_free(p):
        if mult % 2 == 1:
            out = out * factor
    return out


def _ref_radical(p):
    if p.degree <= 0:
        return Polynomial.one()
    r = p // _ref_gcd(p, p.derivative())
    return r * (1 / r.leading)


def _sign(x):
    return (x > 0) - (x < 0)


class _RefSturmChain:
    def __init__(self, squarefree):
        seq = [squarefree, squarefree.derivative()]
        while not seq[-1].is_zero:
            seq.append(-(seq[-2] % seq[-1]))
        seq.pop()
        self.sequence = seq

    def variations(self, x):
        if x == POS_INF:
            signs = [_sign(q.leading) for q in self.sequence]
        elif x == NEG_INF:
            signs = [_sign(q.leading) * (-1 if q.degree % 2 else 1) for q in self.sequence]
        else:
            signs = [_sign(q(Fraction(x))) for q in self.sequence]
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count_roots(self, lo, hi):
        return self.variations(lo) - self.variations(hi)


def _ref_count(p, lo, hi):
    if p.degree == 0:
        return 0
    return _RefSturmChain(_ref_radical(p)).count_roots(lo, hi)


def _ref_cauchy(p):
    """1 + max_{k<m} |a_k| / |a_m|, in Fraction."""
    return 1 + max((abs(c) / abs(p.leading) for c in p.coeffs[:-1]), default=Fraction(0))


def _ref_halfline(p):
    """(member, witness, trace) of the half-line decision with Sturm chains."""
    if p.is_zero:
        return True, None, None
    if p.leading < 0:
        return False, _ref_cauchy(p), "leading-sign"
    if p(0) < 0:
        return False, Fraction(0), "value-at-0"
    odd = _ref_odd_part(p)
    if odd.degree < 1:
        return True, None, None
    chain = _RefSturmChain(odd)
    if chain.count_roots(0, POS_INF) == 0:
        return True, None, None
    a, b = Fraction(0), _ref_cauchy(p)
    while True:
        if a > 0 and p(a) < 0:
            return False, a, "odd-root"
        mid = (a + b) / 2
        if chain.count_roots(mid, b) >= 1:
            a = mid
        else:
            b = mid


def _power(p, n):
    out = Polynomial.one()
    for _ in range(n):
        out = out * p
    return out


def _reference_cases():
    """(polynomial, interval endpoints) pairs; the endpoints include the
    constructed roots, so roots sit at both ends of some intervals."""
    rng = random.Random(314159)
    cases = []
    for _ in range(40):  # random rationals, degree <= 10
        p = random_polynomial(rng, max_degree=10)
        if not p.is_zero:
            cases.append((p, [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(3)]))
    for _ in range(40):  # constructed roots, repeated, some at 0
        roots = sorted({Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(rng.randint(1, 5))})
        p = Polynomial((Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5)),))
        for r in roots:
            p = p * _power(Polynomial((-r, 1)), rng.randint(1, 3))
        if rng.random() < 0.5:
            p = p * Polynomial((Fraction(rng.randint(1, 5)), 0, 1))  # no real roots
        cases.append((p, roots + [Fraction(0)]))
    for _ in range(8):  # degree 14
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(14)] + [1])
        cases.append((p, [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]))
    clustered = [1 + Fraction(k, 1000) for k in range(14)]
    cases.append((_product_of_roots([-r for r in clustered]), [Fraction(-1), Fraction(0)]))
    cases.append((_product_of_roots(clustered), clustered[::3]))
    e = Fraction(1, 2**70)
    pair = _product_of_roots([Fraction(1), 1 + e, Fraction(-3)])
    cases.append((pair, [Fraction(1), 1 + e, 1 + e / 2]))
    cases.append((Polynomial.x() * pair * 4, [Fraction(1)]))
    big, tiny = Fraction(10**40, 3), Fraction(1, 10**30)
    for coeffs in ([1, -big, 0, tiny], [tiny, -1, big], [-tiny, 0, big, -1, tiny],
                   [big, tiny, -big, 0, tiny]):
        cases.append((Polynomial(coeffs), [tiny, Fraction(1), big]))
    return cases


REFERENCE_CASES = _reference_cases()


def _assert_isolates(p):
    """isolate_roots on the square-free part f of p against count_roots and
    the reference Sturm count: one interval per real root, each holding
    exactly one, in increasing order, and refinable by the sign of f at hi."""
    f = radical_vector(integer_vector(p))
    intervals = isolate_roots(f)
    assert len(intervals) == _ref_count(p, NEG_INF, POS_INF)
    for lo, hi in intervals:
        assert lo < hi
        assert count_roots(f, lo, hi) == 1 == _ref_count(p, lo, hi), (lo, hi)
        if p(hi) != 0:
            mid, g = (lo + hi) / 2, Polynomial(f)
            keep = (lo, mid) if _sign(g(mid)) in (0, _sign(g(hi))) else (mid, hi)
            assert _ref_count(p, *keep) == 1
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi <= lo
    return intervals


class TestKernelAgainstReference:
    @pytest.mark.parametrize("p, points", REFERENCE_CASES)
    def test_isolating_intervals(self, p, points):
        intervals = _assert_isolates(p)
        # a constructed rational root sits in exactly one interval
        for x in points:
            if p(x) == 0:
                assert sum(lo < x <= hi for lo, hi in intervals) == 1

    def test_isolating_intervals_at_bisection_points(self):
        # roots at 0 and at dyadic midpoints are met exactly by the recursion
        p = _product_of_roots([Fraction(0), Fraction(1, 2), Fraction(-1, 4), Fraction(2),
                               Fraction(2, 3), Fraction(-5)])
        intervals = _assert_isolates(p)
        assert [hi for lo, hi in intervals if p(hi) == 0][:3] == [Fraction(-1, 4), 0, Fraction(1, 2)]
        assert isolate_roots([1]) == [] and isolate_roots([1, 0, 1]) == []

    @pytest.mark.parametrize("p, points", REFERENCE_CASES)
    def test_counts(self, p, points):
        ends = [NEG_INF] + sorted(set(points)) + [POS_INF]
        for i, lo in enumerate(ends):
            for hi in ends[i + 1:]:
                assert sturm_count(p, lo, hi) == _ref_count(p, lo, hi), (lo, hi)

    @pytest.mark.parametrize("p, points", REFERENCE_CASES)
    def test_factorizations(self, p, points):
        assert square_free_decompose(p) == _ref_square_free(p)
        f = integer_vector(p)
        assert _monic(odd_part_vector(f)) == _ref_odd_part(p)
        assert _monic(radical_vector(f)) == _ref_radical(p)

    @pytest.mark.parametrize("p, points", REFERENCE_CASES)
    def test_halfline_decisions(self, p, points):
        for q in (p, -p, Polynomial.from_vector(reflect_vector(p.vector), p.den), p.derivative()):
            v = check_nonneg_halfline(q)
            assert (v.member, v.witness, v.trace) == _ref_halfline(q), str(q)

    @given(nonzero_poly_st, st.lists(fractions_st, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_random(self, p, points):
        ends = [NEG_INF] + sorted(set(points)) + [POS_INF]
        for i, lo in enumerate(ends):
            for hi in ends[i + 1:]:
                assert sturm_count(p, lo, hi) == _ref_count(p, lo, hi)
        assert square_free_decompose(p) == _ref_square_free(p)
        v = check_nonneg_halfline(p)
        assert (v.member, v.witness, v.trace) == _ref_halfline(p)
        if p.degree >= 1:
            _assert_isolates(p)


def _leaves(roots):
    leaves = []
    _unit_leaves(integer_vector(_product_of_roots(roots)), 0, 0, leaves)
    return leaves


class TestUnitLeaves:
    """The one Vincent-Collins-Akritas recursion: a leaf (c, k, False) holds
    one root in (c/2^k, (c + 1)/2^k), a leaf (c, k, True) is the root c/2^k."""

    def test_positions(self):
        # 1/2 is met exactly as the first midpoint, between the two halves
        quarters = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        assert _leaves(quarters) == [(0, 1, False), (1, 1, True), (1, 1, False)]
        mixed = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 8), Fraction(9, 10)]
        assert _leaves(mixed) == [(0, 1, False), (1, 1, True), (2, 2, False), (3, 2, False)]
        assert count_unit_roots(integer_vector(_product_of_roots(mixed))) == 4

    def test_endpoints_never_recorded(self):
        ends = [Fraction(0), Fraction(1), Fraction(1, 3)]
        assert _leaves(ends) == [(0, 0, False)]
        assert count_unit_roots(integer_vector(_product_of_roots(ends))) == 1

    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=16),
                    min_size=1, max_size=6, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_leaves_hold_the_roots(self, roots):
        leaves = _leaves(roots)
        inside = sorted(r for r in roots if 0 < r < 1)
        assert count_unit_roots(integer_vector(_product_of_roots(roots))) == len(leaves)
        assert len(leaves) == len(inside)
        for (c, k, exact), r in zip(leaves, inside):
            if exact:
                assert r == Fraction(c, 1 << k)
            else:
                assert Fraction(c, 1 << k) < r < Fraction(c + 1, 1 << k)


class TestCauchyBound:
    def test_examples(self):
        assert cauchy_bound(Polynomial((-1, 0, 1))) == 2
        assert cauchy_bound(Polynomial.x()) == 1
        assert cauchy_bound(QUINTIC) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cauchy_bound(Polynomial(()))

    def test_matches_fraction_formula(self):
        # cauchy_bound reads the bound off the cleared integer vector
        polys = [p for p, _ in REFERENCE_CASES] + [Polynomial((Fraction(-3, 7),))]
        for p in polys:
            for q in (p, -p, p.derivative()):
                if not q.is_zero:
                    bound = cauchy_bound(q)
                    assert type(bound) is Fraction and bound == _ref_cauchy(q), str(q)

    @given(nonzero_poly_st.filter(lambda p: p.degree >= 1))
    @settings(max_examples=60, deadline=None)
    def test_brackets_all_real_roots(self, p):
        bound = cauchy_bound(p)
        assert sturm_count(p, -bound, bound) == sturm_count(p, NEG_INF, POS_INF)
