"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria cover the desk-scale reproductions (the two independence examples,
the class separation, the circulant characterization) and the bulk
cross-validations between the analytic checkers, the matrix oracle, and the
certificates.
"""

import json
import random
import time
from fractions import Fraction

from nppreserve import (
    Matrix2,
    MembershipStatus,
    Polynomial,
    RatioStatus,
    SeparationCertificate,
    cauchy_bound,
    check_circulant2,
    check_nonneg_halfline,
    check_p2,
    check_ratio,
    check_spectral,
    closed_form_image,
    falsify_random,
    horner_matrix_eval,
    p3_necessary_screen,
    parse_polynomial,
    polya_szego_certificate,
    posmatrix_generate,
    ratio_value,
)
from nppreserve.cli import run
from bernstein_reference import bernstein_tensor, certify_boxes, compactify
from conftest import (
    CERTIFY_MEMBER,
    QUARTIC,
    QUINTIC,
    QUINTIC_DERIV,
    random_pos_params,
    replay_separation,
)


def _passed(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_ac1_independence_quintic(capsys):
    start = time.perf_counter()
    verdict = check_p2(QUINTIC)
    elapsed = time.perf_counter() - start

    assert verdict.status is MembershipStatus.NOT_MEMBER
    statuses = {e.name: e.status for e in verdict.certificate_trail}
    assert statuses["p_prime_in_P1"] == "member"
    assert statuses["p_even_in_P1"] == "member"
    assert statuses["p_odd_in_P1"] == "member"
    assert statuses["ratio_condition"] == "fails"
    assert QUINTIC.derivative() == QUINTIC_DERIV
    even, odd = QUINTIC.parity_parts()
    assert even.is_zero and odd == QUINTIC
    assert ratio_value(QUINTIC, 1, Fraction(1, 2)) == Fraction(-9, 32)
    assert verdict.witness_matrix == Matrix2(0, 1, Fraction(1, 2), Fraction(1, 2))
    assert horner_matrix_eval(QUINTIC, verdict.witness_matrix).a11 == Fraction(-3, 16)
    assert elapsed < 1.0

    code = run(["check-p2", "x^5 - 2x^3 + 2x", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["image_negative_entry"]["value"] == "-3/16"
    _passed(1, f"quintic rejected with exact -9/32 cone value in {elapsed:.3f}s")


def test_ac2_independence_neg_x():
    p = parse_polynomial("-x")
    verdict = check_p2(p)
    assert verdict.status is MembershipStatus.NOT_MEMBER
    statuses = {e.name: e.status for e in verdict.certificate_trail}
    assert statuses["p_odd_in_P1"] == "not_member"  # spectral failure path
    assert "ratio_condition" not in statuses
    assert verdict.witness_matrix == Matrix2(0, 1, 1, 0)
    assert horner_matrix_eval(p, verdict.witness_matrix) == Matrix2(0, -1, -1, 0)

    ratio = check_ratio(p)
    assert ratio.status is RatioStatus.HOLDS
    assert ratio.certificate == "zero-ratio-form"
    _passed(2, "-x fails spectrally with circulant witness while its cone form holds")


def test_ac3_separation_p3_strict_in_p2(capsys):
    start = time.perf_counter()
    verdict = check_p2(QUARTIC)
    elapsed = time.perf_counter() - start
    assert verdict.status is MembershipStatus.MEMBER  # no UNKNOWN
    ratio_entry = [e for e in verdict.certificate_trail if e.name == "ratio_condition"]
    assert ratio_entry[0].status == "holds"
    assert ratio_entry[0].detail == "linear-odd-part"  # decided by the fast path
    assert elapsed < 1.0

    screen = p3_necessary_screen(QUARTIC)
    assert not screen.passed
    assert screen.failing_index == 2 and screen.failing_coefficient == -1

    assert run(["p3-screen", "x^4 - x^2 + x + 1", "--format", "json"]) == 1
    capsys.readouterr()
    _passed(3, f"quartic is a 2x2 preserver (in {elapsed:.3f}s) yet fails the 3x3 screen")


def test_ac4_circulant_theorem(corpus200):
    assert len(corpus200) == 200
    for p in corpus200:
        expected = (
            MembershipStatus.MEMBER
            if check_spectral(p).member
            else MembershipStatus.NOT_MEMBER
        )
        assert check_circulant2(p).status is expected, str(p)
    assert check_circulant2(QUINTIC).status is MembershipStatus.MEMBER
    assert check_p2(QUINTIC).status is MembershipStatus.NOT_MEMBER
    _passed(4, "circulant status equals the spectral predicate on all 200 polynomials")


def test_ac5_oracle_consistency(corpus200):
    members = rejected = 0
    for p in corpus200:
        verdict = check_p2(p)
        if verdict.status is MembershipStatus.MEMBER:
            members += 1
            for seed in (0, 1, 2):
                assert falsify_random(p, 10_000, seed=seed) is None, str(p)
        elif verdict.status is MembershipStatus.NOT_MEMBER:
            rejected += 1
            assert min(verdict.witness_matrix.entries) >= 0
            assert min(horner_matrix_eval(p, verdict.witness_matrix).entries) < 0
    assert members >= 10 and rejected >= 100
    _passed(5, f"zero contradictions: {members} members x 3 seeds, {rejected} exact witnesses")


def test_ac6_positive_matrix_identity(corpus200):
    rng = random.Random(424242)
    params = [random_pos_params(rng) for _ in range(1000)]
    polys = corpus200[:20]
    for pr in params:
        b = posmatrix_generate(pr)
        for p in polys:
            assert horner_matrix_eval(p, b) == closed_form_image(p, pr)
    _passed(6, "Horner equals the closed-form image on 1000 spectra x 20 polynomials")


def test_ac7_halfline_kernel_vs_grid():
    rng = random.Random(20250807)
    step = Fraction(1, 256)
    members = rejections = 0
    for _ in range(500):
        degree = rng.randint(0, 8)
        coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(degree)]
        coeffs.append(Fraction(rng.choice([1, 2])))
        p = Polynomial(coeffs)
        verdict = check_nonneg_halfline(p)
        points = int(cauchy_bound(p) / step)
        grid_min = min(p(j * step) for j in range(points + 1))
        if verdict.member:
            members += 1
            assert grid_min >= 0, str(p)
        else:
            rejections += 1
            assert p(verdict.witness) < 0 and verdict.witness >= 0, str(p)
        if grid_min < 0:
            assert not verdict.member, str(p)
    assert members >= 100 and rejections >= 100
    _passed(7, f"grid agreement on 500 polynomials ({members} members, {rejections} rejections)")


def test_ac8_polya_szego_displayed_certificates():
    for expr in ("5x^4 - 6x^2 + 2", "x^4 - x^2 + 1", "4x^3 - 2x + 1"):
        p = parse_polynomial(expr)
        cert = polya_szego_certificate(p, 128)
        bound = Fraction(2) ** -100 * max(abs(c) for c in p.coeffs)
        assert cert.residual <= bound, expr
        delta = p - cert.reconstruction()
        assert max((abs(c) for c in delta.coeffs), default=Fraction(0)) == cert.residual
    _passed(8, "all three displayed decompositions certify below 2^-100 * max|a_k|")


def test_ac9_bernstein_certificates_replay(corpus200):
    # every corpus member that reaches the cone's exact stage has its
    # separation certificate replayed, and the reference Bernstein box
    # certifier also certifies it with boxes that replay
    rng = random.Random(991)
    replayed_boxes = replayed_pairs = 0
    holders = [CERTIFY_MEMBER, Polynomial((0, 0, 1))]
    for p in corpus200:
        verdict = check_ratio(p)
        if isinstance(verdict.certificate, SeparationCertificate):
            assert verdict.status is RatioStatus.HOLDS
            replayed_pairs += replay_separation(p, verdict.certificate)
            holders.append(p)
    assert len(holders) > 2, "no corpus member reaches the exact stage"
    for p in holders:
        certified = certify_boxes(p)
        assert certified.status is RatioStatus.HOLDS
        bp = compactify(p)
        area = Fraction(0)
        for box in certified.certificate:
            area += box.width_t * box.width_r
            replay = bernstein_tensor(bp, box)
            assert replay.min_coefficient >= 0
            replayed_boxes += 1
        assert area == 1  # certified boxes tile the unit square
        for _ in range(1000):
            t = Fraction(rng.randint(1, 127), 128)
            r = Fraction(rng.randint(1, 127), 128)
            assert bp.eval(t, r) >= 0
    _passed(9, f"replayed {replayed_pairs} critical-point comparisons and {replayed_boxes} "
               f"certified boxes across {len(holders)} certificates")
