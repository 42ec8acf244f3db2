"""Cone inequality: exact values, compactification, the grid refuter, the
exact separation decision, and the Bernstein box certifier kept as a
reference."""

import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nppreserve import (
    ConeWitness,
    Polynomial,
    RatioStatus,
    RatioVerdict,
    SeparationCertificate,
    check_p2,
    check_ratio,
    check_nonneg_halfline,
    check_spectral,
    parse_polynomial,
    ratio_value,
)
import nppreserve
from nppreserve import cone
from bernstein_reference import (
    DEFAULT_MAX_BOXES,
    GAVE_UP,
    BiPoly,
    Box,
    bernstein_tensor,
    certify_boxes,
    compactify,
    nonneg_on_unit_interval,
)
from conftest import CERTIFY_MEMBER, QUARTIC, QUINTIC, random_polynomial, replay_separation

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
        w = cone._scan_grid(QUINTIC)[0]
        assert (w.rho, w.mu, w.value) == (1, Fraction(1, 2), Fraction(-9, 32))

    def test_square_never_refuted(self):
        assert cone._scan_grid(Polynomial((0, 0, 1)))[0] is None

    def test_zero_ratio_form(self):
        assert cone._scan_grid(parse_polynomial("-x"))[0] is None

    def test_coefficients_beyond_float_range(self):
        p = Polynomial((-(10**400), 0, 1))
        w = cone._scan_grid(p)[0]
        assert w is not None
        assert ratio_value(p, w.rho, w.mu) == w.value < 0

    def test_terms_that_underflow(self):
        # P = r^109 * ((t^110 + t)*r - (t - t^109)*(1 - r)/512) is negative
        # only for r < 1/512, below every grid point, so the witness comes
        # from the exact decision's failing pair, at once
        p = Polynomial([0] * 109 + [Fraction(-1, 512), 1])
        w, counters = cone._scan_grid(p)
        assert w is None
        assert counters == {"grid_levels": 2, "grid_exact_checks": 12}
        with deadline(0.5):
            verdict = check_ratio(p)
        w = verdict.witness
        assert (w.rho, w.mu) == (Fraction(27, 13952), Fraction(27, 27904))
        assert ratio_value(p, w.rho, w.mu) == w.value < 0

    def test_witnesses_are_exact(self):
        # the value is built from the grid's integer; below degree 2, m = 1
        rng = random.Random(321)
        found = 0
        below_two = [Polynomial((-1,)), Polynomial((-1, 1))]
        for p in below_two + [random_polynomial(rng) for _ in range(60)]:
            w = cone._scan_grid(p)[0]
            if w is not None:
                found += 1
                assert 0 < w.mu <= w.rho
                assert ratio_value(p, w.rho, w.mu) == w.value < 0
        assert found > 10


def exact_grid_scan(p, last_level=2):
    """The grid scan as reference: every point of levels 1 .. last_level in
    lexicographic (t, r) order, in Fraction only.  Returns the first
    negative point's witness and the counters of _scan_grid: the levels
    scanned and the distinct points evaluated."""
    counters = {"grid_levels": 0, "grid_exact_checks": 0}
    bp = compactify(p)
    seen = set()
    for level in range(1, last_level + 1):
        counters["grid_levels"] = level
        n = 1 << level
        for i in range(1, n + 1):
            for j in range(1, n):
                t, r = Fraction(i, n), Fraction(j, n)
                if (t, r) in seen:
                    continue
                seen.add((t, r))
                counters["grid_exact_checks"] = len(seen)
                if bp.eval(t, r) < 0:
                    rho = r / (1 - r)
                    return ConeWitness(rho, t * rho, ratio_value(p, rho, t * rho)), counters
    return None, counters


def extreme_polynomial(rng):
    """Degree 2..7, the odd and the even coefficients at two scales drawn
    from 10^-400 .. 10^400.  On the row t = 1 the odd part of the cone form
    vanishes, so there the even part alone decides, however small."""
    degree = rng.randint(2, 7)
    scales = [Fraction(10) ** (100 * e) for e in rng.sample(range(-4, 5), 2)]
    return Polynomial(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) * scales[k % 2]
                      for k in range(degree + 1))


class TestGridAgainstExactScan:
    def test_extreme_coefficients(self):
        rng = random.Random(1309)
        seen = set()
        for _ in range(200):
            p = extreme_polynomial(rng)
            w, counters = cone._scan_grid(p)
            assert (w, counters) == exact_grid_scan(p), str(p)
            seen.add(None if w is None else (w.mu == w.rho, counters["grid_levels"]))
        # no witness, and witnesses on the row t = 1 at both levels
        assert None in seen and {(True, 1), (True, 2)} <= seen

    def test_seeded_inputs_and_a_zero_at_a_grid_point(self):
        # TOUCH_AT_GRID's cone form is zero at the level-1 grid point
        # t = r = 1/2 and positive elsewhere nearby: a zero is never negative.
        # Perturbed, the same point is the witness.  No fast path takes a
        # constant or a linear p with a0 < 0, so direct check_ratio calls
        # reach the grid, where a constant counts as degree 1.
        rng = random.Random(1414)
        below_two = [Polynomial((-1,)), parse_polynomial("x - 1")]
        inputs = [TOUCH_AT_GRID, TOUCH_AT_GRID - Polynomial((0, 0, 0, 0, Fraction(1, 10**6))),
                  *(p for p, _ in DEEP_REFUTATIONS), EDGE_NEGATIVE, *below_two]
        inputs += [random_polynomial(rng, 7) for _ in range(30)]
        outcomes = set()
        for p in inputs:
            w, counters = cone._scan_grid(p)
            assert (w, counters) == exact_grid_scan(p), str(p)
            outcomes.add(None if w is None else counters["grid_levels"])
        assert cone._scan_grid(TOUCH_AT_GRID)[0] is None
        w = cone._scan_grid(inputs[1])[0]
        assert (w.rho, w.mu) == (1, Fraction(1, 2))
        assert {None, 1, 2} <= outcomes
        for p in below_two:
            w, counters = exact_grid_scan(p)
            verdict = check_ratio(p)
            assert verdict.witness == w is not None, str(p)
            assert {k: verdict.budget_spent[k] for k in counters} == counters, str(p)


def test_import_loads_no_numpy():
    # the grid scan runs in integers, and nothing else in the package uses
    # numpy: a fresh interpreter that imports the package has not loaded it
    src = str(Path(nppreserve.__file__).resolve().parents[1])
    code = "import sys, nppreserve; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestCertify:
    def test_square_holds_at_depth_zero(self):
        verdict = certify_boxes(Polynomial((0, 0, 1)))
        assert verdict.status is RatioStatus.HOLDS
        assert len(verdict.certificate) == 1
        assert verdict.budget_spent["boxes_processed"] == 1

    def test_zero_short_circuit(self):
        verdict = certify_boxes(parse_polynomial("-x"))
        assert verdict.status is RatioStatus.HOLDS
        assert verdict.certificate == "zero-ratio-form"

    def test_quintic_never_holds(self):
        verdict = certify_boxes(QUINTIC, max_boxes=128)
        assert verdict.status is GAVE_UP

    def test_certified_boxes_tile_the_square(self):
        verdict = certify_boxes(CERTIFY_MEMBER)
        assert verdict.status is RatioStatus.HOLDS
        area = sum(b.width_t * b.width_r for b in verdict.certificate)
        assert area == 1

    def test_certified_boxes_replay_and_sample_nonneg(self):
        bp = compactify(CERTIFY_MEMBER)
        verdict = certify_boxes(CERTIFY_MEMBER)
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
            assert nonneg_on_unit_interval(q) is expected, str(q)
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
        # past the fast paths and the coarse grid, the exact decision certifies
        verdict = check_ratio(CERTIFY_MEMBER)
        assert verdict.status is RatioStatus.HOLDS
        assert isinstance(verdict.certificate, SeparationCertificate)
        assert replay_separation(CERTIFY_MEMBER, verdict.certificate) > 0

    def test_fast_paths_never_contradicted(self, corpus200):
        for p in corpus200:
            verdict = check_ratio(p)
            if isinstance(verdict.certificate, str):
                assert cone.certify_ratio(p).status is RatioStatus.HOLDS, str(p)

    def test_odd_crossing_fails(self):
        # ratio value factors as mu*rho*(rho^2-mu^2)*(rho^2+mu^2-1): negative near 0
        verdict = check_ratio(parse_polynomial("x^5 - x^3 + x"))
        assert verdict.status is RatioStatus.FAILS
        w = verdict.witness
        assert ratio_value(parse_polynomial("x^5 - x^3 + x"), w.rho, w.mu) < 0


def serial_check_ratio(p, max_boxes=DEFAULT_MAX_BOXES, grid_depth=2):
    """The former cone check, as reference: the fast paths, then the
    reference grid of levels 1 .. grid_depth, then the Bernstein box
    certifier within max_boxes boxes."""
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
    witness, grid_counters = exact_grid_scan(p, grid_depth)
    counters.update(grid_counters)
    if witness is not None:
        return RatioVerdict(RatioStatus.FAILS, witness=witness, budget_spent=counters)
    certified = certify_boxes(p, max_boxes)
    counters.update(certified.budget_spent)
    return RatioVerdict(certified.status, certificate=certified.certificate,
                        budget_spent=counters)


GRID_KEYS = ("grid_levels", "grid_exact_checks")

# spectral members whose cone value rho*mu*(rho^2 - mu^2)*(rho^2 + mu^2 - a)
# is negative only for rho < sqrt(a): the first negative dyadic point lies
# at level 4, 6 and 7, below the grid, so the witness comes from the
# decision's failing pair
DEEP_REFUTATIONS = [
    (parse_polynomial("x^5 - 1/100x^3 + x"), 4),
    (parse_polynomial("x^5 - 1/1000x^3 + x"), 6),
    (parse_polynomial("x^5 - 1/10000x^3 + x"), 7),
]
PAIR_WITNESSES = {4: (Fraction(1, 14), Fraction(1, 28)), 6: (Fraction(1, 45), Fraction(1, 90)),
                  7: (Fraction(1, 142), Fraction(1, 284))}
MEMBER_17_BOXES = parse_polynomial("4/3x^4 + 3/4x^3 - 3/2x^2 + x + 1/2")
# P(t, 0) < 0 only near r = 0, below the grid: the even part fails on the
# diagonal, and the witness comes from there
EDGE_NEGATIVE = parse_polynomial("x^2 - 1/1000")


def assert_exact(p, verdict):
    """A FAILS witness is an exact cone violation; a separation certificate
    replays."""
    if verdict.status is RatioStatus.FAILS:
        w = verdict.witness
        assert 0 < w.mu <= w.rho and ratio_value(p, w.rho, w.mu) == w.value < 0, str(p)
    else:
        assert verdict.status is RatioStatus.HOLDS, str(p)
        if isinstance(verdict.certificate, SeparationCertificate):
            replay_separation(p, verdict.certificate)


def assert_same_as_serial(p, max_boxes=DEFAULT_MAX_BOXES, grid_depth=cone._GRID_DEPTH):
    """check_ratio is always decisive, and agrees with the reference wherever
    the reference is: the same status and witness, and on a refutation the
    same grid levels and points."""
    got, want = check_ratio(p), serial_check_ratio(p, max_boxes, grid_depth)
    assert_exact(p, got)
    if want.status is GAVE_UP:
        return got
    assert (got.status, got.witness) == (want.status, want.witness), str(p)
    spent, ref = got.budget_spent, want.budget_spent
    if want.status is RatioStatus.FAILS:
        assert [spent[k] for k in GRID_KEYS] == [ref[k] for k in GRID_KEYS]
    elif isinstance(want.certificate, str):
        assert got.certificate == want.certificate
    return got


class TestLockstepAgainstSerial:
    """check_ratio against the former grid-plus-Bernstein pipeline."""

    def test_random_spectral_members(self):
        rng = random.Random(4242)
        routes = {}
        while len(routes) < 24:
            degree = rng.randint(4, 7)
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(degree)]
            p = Polynomial(coeffs + [1])
            if not check_spectral(p).member or isinstance(check_ratio(p).certificate, str):
                continue
            # the members need at most 11 boxes; the one refutation lies
            # below the reference grid, where the reference gives up at any
            # box budget
            routes[str(p)] = assert_same_as_serial(p, max_boxes=256).status
        assert set(routes.values()) == {RatioStatus.HOLDS, RatioStatus.FAILS}

    def test_quintic_family(self):
        # x^5 - a x^3 + b x for a in 1/8..2, b in 1/8..3 with 20b >= 9a^2:
        # spectral members, all refuted on the cone
        family = [(Fraction(a, 8), Fraction(b, 8)) for a in range(1, 17)
                  for b in range(1, 25) if 160 * b >= 9 * a * a]
        assert len(family) == 307
        for a, b in family:
            verdict = assert_same_as_serial(Polynomial((0, b, 0, -a, 0, 1)))
            assert verdict.status is RatioStatus.FAILS

    @pytest.mark.parametrize("p, level", DEEP_REFUTATIONS)
    def test_refutations_below_level_three(self, p, level):
        # the decision fails on the pair of critical points +-sqrt(a/2), and
        # the simplest rationals in their intervals are the witness
        w, counters = exact_grid_scan(p, level)
        assert w is not None and counters["grid_levels"] == level
        verdict = check_ratio(p)
        assert_exact(p, verdict)
        assert verdict.status is RatioStatus.FAILS
        assert (verdict.witness.rho, verdict.witness.mu) == PAIR_WITNESSES[level]
        assert verdict.budget_spent["grid_levels"] == 2
        assert verdict.budget_spent["critical_points"] == 2

    def test_fixed_grid_depth(self):
        # the grid depth is fixed; a witness from the failing pair, where no
        # grid point is negative, is test_perturbed_interior_touch_fails
        for p in (CERTIFY_MEMBER, MEMBER_17_BOXES, QUINTIC, DEEP_REFUTATIONS[0][0],
                  EDGE_NEGATIVE):
            assert_same_as_serial(p, max_boxes=64)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_grid_depth_budgets(self, depth):
        # check_ratio has no grid budget; a reference grid too shallow for the
        # witness leaves the reference undecided.  Down to level 2 the
        # reference finds the witness check_ratio reports, at the same level
        # and points; deeper it may find another, and both are exact
        for p in (CERTIFY_MEMBER, MEMBER_17_BOXES, QUINTIC, DEEP_REFUTATIONS[0][0],
                  EDGE_NEGATIVE):
            if depth <= 2:
                assert_same_as_serial(p, max_boxes=64, grid_depth=depth)
                continue
            got, want = check_ratio(p), serial_check_ratio(p, 64, depth)
            assert_exact(p, got)
            if want.status is not GAVE_UP:
                assert_exact(p, want)
                assert got.status is want.status, str(p)

    def test_box_budgets(self):
        # check_ratio has no box budget; the reference has, and cannot
        # certify a member with one box
        for p in (CERTIFY_MEMBER, MEMBER_17_BOXES):
            assert serial_check_ratio(p, max_boxes=1).status is GAVE_UP
        for p in (CERTIFY_MEMBER, MEMBER_17_BOXES, DEEP_REFUTATIONS[0][0]):
            default = check_ratio(p)
            for boxes in (1, 2, 7, 64):
                verdict = assert_same_as_serial(p, max_boxes=boxes)
                assert verdict == default

    def test_corpus(self, corpus200):
        for p in corpus200:
            assert_same_as_serial(p, max_boxes=256)

    def test_coefficients_beyond_float_range(self):
        verdict = assert_same_as_serial(Polynomial((-(10**400), 0, 1)))
        assert verdict.status is RatioStatus.FAILS


@contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the block runs past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"not decided within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


X = Polynomial.x()


def interior_touch(b, d, c):
    """c*x + x^2 (x+1)^2 (x-2)^2 (x^2 + b x + d): phi(z) - c vanishes to
    second order at z = -1 and z = 2, so the cone value is 0 at (2, 1)."""
    square = X * (X + Polynomial((1,))) * (X - Polynomial((2,)))
    return square * square * Polynomial((d, b, 1)) + Polynomial((0, c))


INTERIOR_TOUCH = interior_touch(4, 5, 125)
# INTERIOR_TOUCH(2x): the cone value is 0 at (rho, mu) = (1, 1/2), which is
# the grid point t = r = 1/2
TOUCH_AT_GRID = Polynomial(c * 2**k for k, c in enumerate(INTERIOR_TOUCH.coeffs))
# 5*x + x^2 (x^2 - x - 1)^2 (x^2 + 1): the cone value is
# rho*mu*(rho*g(rho)^2*(rho^2 + 1) + mu*g(-mu)^2*(mu^2 + 1)) with g the golden
# quadratic, zero at rho = (1 + sqrt(5))/2, mu = (sqrt(5) - 1)/2
GOLDEN = Polynomial((-1, -1, 1))
GOLDEN_TOUCH = X * X * GOLDEN * GOLDEN * Polynomial((1, 0, 1)) + Polynomial((0, 5))
EDGE_TOUCH = parse_polynomial("x^6 + 2x^5 - 3x^4 - 4x^3 + 4x^2 + 2x")

# members the box certifier cannot finish: each touches zero where no
# dyadic box corner lies
TOUCHING_MEMBERS = [
    parse_polynomial("3/2x^4 + 3/2x^3 - 9/4x^2 + 3x + 27/32"),  # diagonal, sqrt(3)/2
    parse_polynomial("x^4 + 2/3x^3 - x^2 + 4/3x + 1/4"),  # diagonal, 1/sqrt(2)
    INTERIOR_TOUCH,
    interior_touch(6, 10, 200),
    interior_touch(8, 17, 290),
    interior_touch(10, 26, 395),
    EDGE_TOUCH,
]


def decide(p, seconds=0.5):
    start = time.perf_counter()
    with deadline(5):
        verdict = check_ratio(p)
    assert time.perf_counter() - start < seconds, str(p)
    assert_exact(p, verdict)
    return verdict


class TestSeparation:
    @pytest.mark.parametrize("p", TOUCHING_MEMBERS, ids=str)
    def test_touching_members_hold(self, p):
        assert check_spectral(p).member
        verdict = decide(p)
        assert verdict.status is RatioStatus.HOLDS
        assert isinstance(verdict.certificate, SeparationCertificate)

    def test_dyadic_touch_is_an_exact_equality(self):
        # the critical points -1 and 2 are met exactly by bisection, and
        # phi(-1) = phi(2) = a1 = c
        for b, d, c in ((4, 5, 125), (6, 10, 200), (8, 17, 290), (10, 26, 395)):
            p = interior_touch(b, d, c)
            assert ratio_value(p, 2, 1) == 0
            cert = decide(p).certificate
            assert {"equal", "edge-tie"} <= {x.kind for x in cert.comparisons}

    def test_irrational_touch_needs_the_resultant(self):
        # the critical points (1 -+ sqrt(5))/2 are never met exactly, so only
        # the roots of R decide phi(z1) = phi(z2)
        cert = decide(GOLDEN_TOUCH).certificate
        assert {"tie", "edge-tie"} <= {x.kind for x in cert.comparisons}
        assert len(cert.critical_values) > 1

    def test_perturbed_irrational_touch_fails(self):
        p = GOLDEN_TOUCH - Polynomial((0, 0, 0, Fraction(1, 10**4)))
        assert decide(p).status is RatioStatus.FAILS
        p = GOLDEN_TOUCH + Polynomial((0, 0, 0, Fraction(1, 10**4)))
        assert decide(p).status is RatioStatus.HOLDS

    def test_edge_touch_needs_the_gcd(self):
        cert = decide(EDGE_TOUCH).certificate
        assert "edge-tie" in {c.kind for c in cert.comparisons}

    def test_perturbed_interior_touch_fails(self):
        p = INTERIOR_TOUCH - Polynomial((0, 0, 0, 0, Fraction(1, 10**6)))
        assert ratio_value(p, 2, 1) == Fraction(-9, 500000)
        assert check_spectral(p).member
        verdict = decide(p)
        assert verdict.status is RatioStatus.FAILS
        assert verdict.budget_spent["grid_levels"] == 2  # no grid point is negative
        # the witness is the simplest rational in each refined interval
        w = verdict.witness
        assert (w.rho, w.mu) == (Fraction(97612895, 48806447), Fraction(11999212, 11999211))
        assert max(w.rho.denominator, w.mu.denominator) < 10**8

    def test_simplest_between_against_search(self):
        rng = random.Random(31)
        for _ in range(300):
            lo = Fraction(rng.randint(-300, 300), rng.randint(1, 60))
            hi = lo + Fraction(rng.randint(1, 40), rng.randint(1, 400))
            x = cone._simplest_between(lo, hi)
            q = 1
            while not any(lo < Fraction(n, q) < hi for n in range(int(lo * q) - 1, int(hi * q) + 2)):
                q += 1
            inside = [Fraction(n, q) for n in range(int(lo * q) - 1, int(hi * q) + 2)
                      if lo < Fraction(n, q) < hi]
            assert x == min(inside, key=abs), (lo, hi)

    def test_edge_condition_alone_refutes(self):
        # phi(z2) < a1 at a positive critical point; every pair separates
        p = EDGE_TOUCH - Polynomial((0, 0, Fraction(1, 1000)))
        assert check_spectral(p).member
        verdict = decide(p)
        assert verdict.status is RatioStatus.FAILS
        w = verdict.witness
        assert w.mu < w.rho / 1000  # near the edge mu = 0

    def test_direct_calls_outside_the_claim(self):
        # even part not in P1: the diagonal fails
        p = parse_polynomial("x^5 - x^3 - x^2 + x")
        with deadline(5):
            verdict = cone.certify_ratio(p)
        assert verdict.status is RatioStatus.FAILS and verdict.witness.mu == verdict.witness.rho
        assert_exact(p, verdict)
        # a_m < 0: phi(rho) -> -inf
        p = parse_polynomial("-x^5 + x^4 + x^2")
        verdict = cone.certify_ratio(p)
        assert verdict.status is RatioStatus.FAILS
        assert_exact(p, verdict)
        # degree below 2 with a0 >= 0
        for p in (Polynomial((1, -3)), Polynomial((0, -1)), Polynomial(())):
            verdict = cone.certify_ratio(p)
            assert verdict.status is RatioStatus.HOLDS
            assert verdict.certificate.comparisons == ()

    def test_decision_against_serial_on_random_polynomials(self):
        # direct calls on inputs that are not spectral members
        rng = random.Random(77)
        statuses = set()
        for _ in range(150):
            p = random_polynomial(rng)
            with deadline(5):
                verdict = cone.certify_ratio(p)
            assert_exact(p, verdict)
            want = serial_check_ratio(p, max_boxes=256)
            if want.status is not GAVE_UP:
                assert verdict.status is want.status, str(p)
            statuses.add(verdict.status)
        assert statuses == {RatioStatus.HOLDS, RatioStatus.FAILS}


class TestScaleInvariance:
    # c*p has the cone value of p times c > 0, so every grid point has the
    # same sign: the same verdict, witness, grid levels and grid points at
    # every scale
    INPUTS = [QUINTIC, *(p for p, _ in DEEP_REFUTATIONS), EDGE_NEGATIVE, CERTIFY_MEMBER,
              INTERIOR_TOUCH - Polynomial((0, 0, 0, 0, Fraction(1, 10**6)))]
    SCALES = [Fraction(10**400), Fraction(1, 10**400), Fraction(2**1100), Fraction(1, 2**1100)]

    @staticmethod
    def summary(p):
        start = time.perf_counter()
        with deadline(5):
            verdict = check_p2(p)
        assert time.perf_counter() - start < 0.5, str(p)
        spent = verdict.budget_spent
        return (verdict.status, verdict.witness_point, spent.get("grid_levels"),
                spent.get("grid_exact_checks"))

    @pytest.mark.parametrize("p", INPUTS, ids=str)
    def test_check_p2_ignores_positive_scale(self, p):
        for c in self.SCALES:
            scaled = Polynomial(c * a for a in p.coeffs)
            assert self.summary(scaled) == self.summary(p), c


def _det(rows):
    rows = [list(r) for r in rows]
    n, det = len(rows), Fraction(1)
    for i in range(n):
        pivot = next((k for k in range(i, n) if rows[k][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for k in range(i + 1, n):
            f = rows[k][i] / rows[i][i]
            rows[k] = [a - f * b for a, b in zip(rows[k], rows[i])]
    return det


class TestCharacteristicPolynomial:
    @staticmethod
    def special_matrices(n):
        """The zero matrix, the identity, the nilpotent shift, and a matrix
        whose entry (1, 0) is 0 while one below it is not (n >= 4), so a
        Hessenberg reduction has to swap rows."""
        yield [[Fraction(0)] * n for _ in range(n)]
        yield [[Fraction(i == j) for j in range(n)] for i in range(n)]
        yield [[Fraction(j == i + 1) for j in range(n)] for i in range(n)]
        yield [[Fraction((i + 2 * j) % 5 - 2) * (i != 1 or j != 0) for j in range(n)]
               for i in range(n)]

    def test_against_determinants(self):
        rng = random.Random(5)
        for n in range(1, 9):
            drawn = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * (rng.random() < 0.7)
                       for _ in range(n)] for _ in range(n)] for _ in range(6)]
            # n + 1 distinct points or more pin the polynomial of degree n
            points = [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5)]
            points += [Fraction(k, 9) for k in range(2, n)]
            for a in drawn + list(self.special_matrices(n)):
                coeffs = cone._charpoly(a)
                assert len(coeffs) == n + 1
                for c in points:
                    shifted = [[c * (i == j) - a[i][j] for j in range(n)] for i in range(n)]
                    assert Polynomial(coeffs)(c) == _det(shifted)

    def test_critical_values_of_the_tie_inputs(self):
        # R for the inputs whose comparisons need it, as the Hessenberg
        # reduction computed it
        golden = (-2570631875, 2598187375, -1046593650, 209711770, -20868811, 823543)
        assert decide(GOLDEN_TOUCH).certificate.critical_values == golden
        p = GOLDEN_TOUCH + Polynomial((0, 0, 0, Fraction(1, 10**4)))
        assert decide(p).certificate.critical_values == (
            51415177419632163632362667083312165, -62248921396942469999043792211128933,
            31325723728091882229946480512000000, -8380838412710061361806800000000000,
            1256246881138452480000000000000000, -99947072083200000000000000000000,
            3294172000000000000000000000000)


class TestBoxValidation:
    def test_bad_boxes_rejected(self):
        with pytest.raises(ValueError):
            Box(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            Box(Fraction(0), Fraction(2), Fraction(0), Fraction(1))
