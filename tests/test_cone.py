"""Cone inequality: exact values, compactification, Bernstein certification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nppreserve import (
    BiPoly,
    Box,
    Budget,
    DEFAULT_BUDGET,
    Polynomial,
    RatioStatus,
    RatioVerdict,
    bernstein_tensor,
    certify_ratio,
    check_ratio,
    check_nonneg_halfline,
    check_spectral,
    compactify,
    parse_polynomial,
    ratio_value,
    refute_ratio,
)
from nppreserve import cone
from conftest import CERTIFY_MEMBER, QUARTIC, QUINTIC, random_polynomial

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)
poly_st = st.lists(fractions_st, max_size=7).map(Polynomial)
unit_open_st = st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64),
                            max_denominator=64)


class TestRatioValue:
    def test_quintic(self):
        assert ratio_value(QUINTIC, 1, Fraction(1, 2)) == Fraction(-9, 32)

    def test_neg_x_vanishes(self):
        p = parse_polynomial("-x")
        for rho, mu in ((1, 1), (3, 2), (Fraction(7, 2), Fraction(1, 3))):
            assert ratio_value(p, rho, mu) == 0

    def test_x_vanishes(self):
        for rho, mu in ((1, 1), (5, 2)):
            assert ratio_value(Polynomial.x(), rho, mu) == 0

    def test_square(self):
        assert ratio_value(Polynomial((0, 0, 1)), 2, 1) == 6

    @given(poly_st, fractions_st, fractions_st)
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_parts_identity(self, p, rho, mu):
        expected = sum(
            (c * (rho * (-mu) ** k + mu * rho**k) for k, c in enumerate(p.coeffs)),
            Fraction(0),
        )
        assert ratio_value(p, rho, mu) == expected


class TestCompactify:
    def test_square(self):
        assert compactify(Polynomial((0, 0, 1))) == BiPoly(
            [[0, 0, 0], [0, 0, 1], [0, 0, 1]]
        )

    def test_x_vanishes(self):
        assert compactify(Polynomial.x()).is_zero
        assert compactify(Polynomial((0, Fraction(-7, 3)))).is_zero

    def test_constant(self):
        c = Fraction(5, 2)
        assert compactify(Polynomial((c,))) == BiPoly([[c], [c]])

    @given(poly_st, unit_open_st, unit_open_st)
    @settings(max_examples=60, deadline=None)
    def test_compactification_identity(self, p, t, r):
        bp = compactify(p)
        rho = r / (1 - r)
        m = max(p.degree, 0)
        assert bp.eval(t, r) * rho == (1 - r) ** m * ratio_value(p, rho, t * rho)


class TestBernsteinTensor:
    def test_linear_t(self):
        bb = bernstein_tensor(BiPoly([[0], [1]]))
        assert bb.coeffs == ((Fraction(0),), (Fraction(1),))

    def test_square_example(self):
        bb = bernstein_tensor(compactify(Polynomial((0, 0, 1))))
        t_dir = [Fraction(0), Fraction(1, 2), Fraction(2)]
        r_dir = [Fraction(0), Fraction(0), Fraction(1)]
        expected = tuple(tuple(a * b for b in r_dir) for a in t_dir)
        assert bb.coeffs == expected
        assert bb.min_coefficient >= 0

    def test_constant(self):
        bb = bernstein_tensor(BiPoly([[1]]), Box(Fraction(1, 4), Fraction(1, 2),
                                                 Fraction(0), Fraction(1, 3)))
        assert all(c == 1 for row in bb.coeffs for c in row)

    def test_corner_values(self):
        rng = random.Random(11)
        for _ in range(20):
            bp = compactify(random_polynomial(rng))
            if bp.is_zero:
                continue
            box = Box(Fraction(1, 8), Fraction(3, 8), Fraction(1, 2), Fraction(7, 8))
            bb = bernstein_tensor(bp, box)
            assert bb.coeffs[0][0] == bp.eval(box.t_lo, box.r_lo)
            assert bb.coeffs[0][-1] == bp.eval(box.t_lo, box.r_hi)
            assert bb.coeffs[-1][0] == bp.eval(box.t_hi, box.r_lo)
            assert bb.coeffs[-1][-1] == bp.eval(box.t_hi, box.r_hi)

    def test_subdivision_matches_direct_restriction(self):
        bp = compactify(CERTIFY_MEMBER)
        parent = bernstein_tensor(bp)
        first, second = parent.split()
        for child in (first, second):
            assert child.coeffs == bernstein_tensor(bp, child.box).coeffs
            assert child.coeffs[0][0] == bp.eval(child.box.t_lo, child.box.r_lo)

    def test_split_direction_prefers_t_on_ties(self):
        bb = bernstein_tensor(compactify(QUINTIC))
        left, right = bb.split()
        assert left.box.t_hi == Fraction(1, 2) and right.box.t_lo == Fraction(1, 2)
        assert left.box.r_lo == 0 and left.box.r_hi == 1


class TestRefute:
    def test_quintic_witness_at_coarsest_level(self):
        w = refute_ratio(QUINTIC)
        assert (w.rho, w.mu, w.value) == (1, Fraction(1, 2), Fraction(-9, 32))

    def test_square_never_refuted(self):
        assert refute_ratio(Polynomial((0, 0, 1))) is None
        assert refute_ratio(Polynomial((0, 0, 1)), Budget(grid_depth=6)) is None

    def test_zero_ratio_form(self):
        assert refute_ratio(parse_polynomial("-x")) is None

    def test_coefficients_beyond_float_range(self):
        # the float prefilter must hand over to the pure-exact scan
        p = Polynomial((-(10**400), 0, 1))
        w = refute_ratio(p, Budget(grid_depth=2))
        assert w is not None
        assert ratio_value(p, w.rho, w.mu) == w.value < 0

    def test_witnesses_are_exact(self):
        rng = random.Random(321)
        found = 0
        for _ in range(60):
            p = random_polynomial(rng)
            w = refute_ratio(p, Budget(grid_depth=6))
            if w is not None:
                found += 1
                assert 0 < w.mu <= w.rho
                assert ratio_value(p, w.rho, w.mu) == w.value < 0
        assert found > 10


class TestCertify:
    def test_square_holds_at_depth_zero(self):
        verdict = certify_ratio(Polynomial((0, 0, 1)))
        assert verdict.status is RatioStatus.HOLDS
        assert len(verdict.certificate) == 1
        assert verdict.budget_spent["boxes_processed"] == 1

    def test_zero_short_circuit(self):
        verdict = certify_ratio(parse_polynomial("-x"))
        assert verdict.status is RatioStatus.HOLDS
        assert verdict.certificate == "zero-ratio-form"

    def test_quintic_never_holds(self):
        verdict = certify_ratio(QUINTIC, Budget(max_boxes=128))
        assert verdict.status is RatioStatus.UNKNOWN

    def test_certified_boxes_tile_the_square(self):
        verdict = certify_ratio(CERTIFY_MEMBER)
        assert verdict.status is RatioStatus.HOLDS
        area = sum(b.width_t * b.width_r for b in verdict.certificate)
        assert area == 1

    def test_certified_boxes_replay_and_sample_nonneg(self):
        bp = compactify(CERTIFY_MEMBER)
        verdict = certify_ratio(CERTIFY_MEMBER)
        rng = random.Random(8)
        for box in verdict.certificate:
            replay = bernstein_tensor(bp, box)
            assert replay.min_coefficient >= 0
            for _ in range(50):
                t = box.t_lo + (box.t_hi - box.t_lo) * Fraction(rng.randint(0, 32), 32)
                r = box.r_lo + (box.r_hi - box.r_lo) * Fraction(rng.randint(0, 32), 32)
                assert bp.eval(t, r) >= 0


class TestUnitIntervalEdgeCheck:
    def test_constructed_roots(self):
        # the sign of q is constant between consecutive distinct roots, so
        # q >= 0 on [0, 1] exactly when it is at the ends and at one point
        # between each pair of neighbouring roots
        rng = random.Random(2718)
        seen = set()
        for _ in range(150):
            roots = {Fraction(rng.randint(-4, 20), 16) for _ in range(rng.randint(1, 5))}
            q = Polynomial((rng.choice([-1, 1]),))
            for r in roots:
                for _ in range(rng.randint(1, 3)):
                    q = q * Polynomial((-r, 1))
            marks = sorted({Fraction(0), Fraction(1)} | {r for r in roots if 0 < r < 1})
            samples = marks + [(a + b) / 2 for a, b in zip(marks, marks[1:])]
            expected = all(q(x) >= 0 for x in samples)
            seen.add(expected)
            assert cone._nonneg_on_unit_interval(q) is expected, str(q)
        assert seen == {True, False}


class TestCheckRatio:
    def test_quartic_fast_path(self):
        verdict = check_ratio(QUARTIC)
        assert verdict.status is RatioStatus.HOLDS
        assert verdict.certificate == "linear-odd-part"

    def test_quintic_fails(self):
        verdict = check_ratio(QUINTIC)
        assert verdict.status is RatioStatus.FAILS
        assert (verdict.witness.rho, verdict.witness.mu) == (1, Fraction(1, 2))
        assert verdict.witness.value == Fraction(-9, 32)

    def test_neg_x_holds(self):
        verdict = check_ratio(parse_polynomial("-x"))
        assert verdict.status is RatioStatus.HOLDS
        assert verdict.certificate == "zero-ratio-form"

    def test_nonnegative_coefficients_fast_path(self):
        verdict = check_ratio(parse_polynomial("x^3 + 2x^2 - x + 1"))
        assert verdict.status is RatioStatus.HOLDS
        assert verdict.certificate == "nonnegative-coefficients"

    def test_certifier_route(self):
        verdict = check_ratio(CERTIFY_MEMBER)
        assert verdict.status is RatioStatus.HOLDS
        assert isinstance(verdict.certificate, tuple)

    def test_fast_paths_never_contradicted(self, corpus200):
        for p in corpus200:
            verdict = check_ratio(p, Budget(grid_depth=6))
            if isinstance(verdict.certificate, str):
                assert refute_ratio(p, Budget(grid_depth=7)) is None, str(p)

    def test_odd_crossing_fails(self):
        # ratio value factors as mu*rho*(rho^2-mu^2)*(rho^2+mu^2-1): negative near 0
        verdict = check_ratio(parse_polynomial("x^5 - x^3 + x"))
        assert verdict.status is RatioStatus.FAILS
        w = verdict.witness
        assert ratio_value(parse_polynomial("x^5 - x^3 + x"), w.rho, w.mu) < 0


def serial_check_ratio(p, budget=DEFAULT_BUDGET):
    """check_ratio in its former serial order, as reference: the fast paths,
    then every grid level, then the certifier from scratch."""
    counters = {"grid_levels": 0, "grid_exact_checks": 0,
                "boxes_processed": 0, "boxes_certified": 0}
    if p.degree <= 1 and p.coefficient(0) == 0:
        return RatioVerdict(RatioStatus.HOLDS, certificate="zero-ratio-form",
                            budget_spent=counters)
    if all(c >= 0 for k, c in enumerate(p.coeffs) if k != 1):
        return RatioVerdict(RatioStatus.HOLDS, certificate="nonnegative-coefficients",
                            budget_spent=counters)
    even, odd = p.parity_parts()
    if odd.degree <= 1 and check_nonneg_halfline(even).member:
        return RatioVerdict(RatioStatus.HOLDS, certificate="linear-odd-part",
                            budget_spent=counters)
    witness, grid_counters = cone._scan_grid(p, budget)
    counters.update(grid_counters)
    if witness is not None:
        return RatioVerdict(RatioStatus.FAILS, witness=witness, budget_spent=counters)
    certified = certify_ratio(p, budget)
    counters.update(certified.budget_spent)
    return RatioVerdict(certified.status, certificate=certified.certificate,
                        budget_spent=counters)


GRID_KEYS = ("grid_levels", "grid_exact_checks")
BOX_KEYS = ("boxes_processed", "boxes_certified")

# spectral members whose cone value rho*mu*(rho^2 - mu^2)*(rho^2 + mu^2 - a)
# is negative only for rho < sqrt(a): first witness at grid level 4, 6 and 7
DEEP_REFUTATIONS = [
    (parse_polynomial("x^5 - 1/100x^3 + x"), 4),
    (parse_polynomial("x^5 - 1/1000x^3 + x"), 6),
    (parse_polynomial("x^5 - 1/10000x^3 + x"), 7),
]
MEMBER_17_BOXES = parse_polynomial("4/3x^4 + 3/4x^3 - 3/2x^2 + x + 1/2")
EDGE_NEGATIVE = parse_polynomial("x^2 - 1/1000")  # P(t, 0) < 0; first witness at level 10


def assert_same_as_serial(p, budget=DEFAULT_BUDGET):
    got, want = check_ratio(p, budget), serial_check_ratio(p, budget)
    assert (got.status, got.witness, got.certificate) == (
        want.status, want.witness, want.certificate), (str(p), budget)
    spent, ref = got.budget_spent, want.budget_spent
    if want.status is RatioStatus.FAILS:
        # the same grid levels and points, plus the certifier's share
        assert [spent[k] for k in GRID_KEYS] == [ref[k] for k in GRID_KEYS]
    elif want.status is RatioStatus.HOLDS and isinstance(want.certificate, tuple):
        # the same boxes, found before the grid depth is used up
        assert [spent[k] for k in BOX_KEYS] == [ref[k] for k in BOX_KEYS]
        assert spent["grid_levels"] <= ref["grid_levels"]
    else:
        # fast paths do no search; an unknown ran both searches to the end
        assert spent == ref, (str(p), budget)
    return got


class TestLockstepAgainstSerial:
    def test_random_spectral_members(self):
        rng = random.Random(4242)
        routes = {}
        while len(routes) < 24:
            degree = rng.randint(4, 7)
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(degree)]
            p = Polynomial(coeffs + [1])
            if not check_spectral(p).member or isinstance(serial_check_ratio(p).certificate, str):
                continue
            routes[str(p)] = assert_same_as_serial(p).status
        assert set(routes.values()) == {RatioStatus.HOLDS, RatioStatus.FAILS}

    def test_quintic_family(self):
        # x^5 - a x^3 + b x for a in 1/8..2, b in 1/8..3 with 20b >= 9a^2:
        # spectral members, all refuted on the cone
        family = [(Fraction(a, 8), Fraction(b, 8)) for a in range(1, 17)
                  for b in range(1, 25) if 160 * b >= 9 * a * a]
        for a, b in family:
            verdict = assert_same_as_serial(Polynomial((0, b, 0, -a, 0, 1)))
            assert verdict.status is RatioStatus.FAILS

    @pytest.mark.parametrize("p, level", DEEP_REFUTATIONS)
    def test_refutations_below_level_three(self, p, level):
        verdict = assert_same_as_serial(p)
        assert verdict.status is RatioStatus.FAILS
        assert verdict.budget_spent["grid_levels"] == level
        assert verdict.budget_spent["boxes_processed"] > 0

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_grid_depth_budgets(self, depth):
        # 64 boxes certify both members; with the full box budget a grid too
        # shallow for the level-4 refutation spends 16384 boxes before unknown
        budget = Budget(grid_depth=depth, max_boxes=64)
        for p in (CERTIFY_MEMBER, MEMBER_17_BOXES, QUINTIC, DEEP_REFUTATIONS[0][0],
                  EDGE_NEGATIVE):
            assert_same_as_serial(p, budget)

    def test_box_budgets(self):
        statuses = set()
        for boxes in range(1, 65):
            budget = Budget(max_boxes=boxes)
            for p in (CERTIFY_MEMBER, MEMBER_17_BOXES, DEEP_REFUTATIONS[0][0]):
                statuses.add(assert_same_as_serial(p, budget).status)
        assert statuses == set(RatioStatus)

    def test_coefficients_beyond_float_range(self):
        verdict = assert_same_as_serial(Polynomial((-(10**400), 0, 1)))
        assert verdict.status is RatioStatus.FAILS


class TestBoxValidation:
    def test_bad_boxes_rejected(self):
        with pytest.raises(ValueError):
            Box(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            Box(Fraction(0), Fraction(2), Fraction(0), Fraction(1))
