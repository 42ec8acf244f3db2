"""Correctness checks that share no arithmetic with the program.

They work on the benchmark's own coefficient lists with plain
``fractions.Fraction`` arithmetic, and read only the program's outputs:
verdict status, witness matrix, falsifier hit, certificate parts.  Each
returns an error string, or None when the output is correct.
"""

from __future__ import annotations

from fractions import Fraction

from workloads import poly_mul

F = Fraction

# Fixed nonnegative test matrices (a11, a12, a21, a22): the identity, the
# all-ones and swap matrices, a nilpotent, circulants with a negative second
# eigenvalue, and [[0, rho], [mu, rho - mu]] points on the cone 0 < mu <= rho.
SAMPLE = [
    (F(1), F(0), F(0), F(1)),
    (F(1), F(1), F(1), F(1)),
    (F(0), F(1), F(1), F(0)),
    (F(0), F(1), F(0), F(0)),
    (F(1, 8), F(1, 2), F(1, 2), F(1, 8)),
    (F(1, 2), F(3, 2), F(3, 2), F(1, 2)),
    (F(0), F(3), F(3), F(0)),
    (F(0), F(1), F(1, 2), F(1, 2)),
    (F(0), F(1), F(1, 8), F(7, 8)),
    (F(0), F(1, 4), F(1, 8), F(1, 8)),
    (F(0), F(4), F(1), F(3)),
    (F(0), F(2), F(3, 2), F(1, 2)),
    (F(0), F(1, 2), F(1, 2), F(0)),
    (F(1, 2), F(3), F(1, 4), F(0)),
    (F(2), F(1, 16), F(5), F(1, 3)),
]


def horner2(coeffs, m):
    """Exact p(M) for a 2x2 matrix M = (a11, a12, a21, a22)."""
    a, b, c, d = m
    r11 = r12 = r21 = r22 = F(0)
    for k in range(len(coeffs) - 1, -1, -1):
        r11, r12, r21, r22 = (
            r11 * a + r12 * c + coeffs[k],
            r11 * b + r12 * d,
            r21 * a + r22 * c,
            r21 * b + r22 * d + coeffs[k],
        )
    return r11, r12, r21, r22


def _entries(m):
    return (F(m.a11), F(m.a12), F(m.a21), F(m.a22))


def violation(coeffs, matrix):
    """Error string unless matrix is entrywise nonnegative and p(matrix) has
    a negative entry."""
    m = _entries(matrix)
    if min(m) < 0:
        return f"witness {m} has a negative entry"
    if min(horner2(coeffs, m)) >= 0:
        return f"image of witness {m} is nonnegative"
    return None


def member_sample(coeffs):
    """Error string if some sample matrix has an image with a negative entry."""
    for m in SAMPLE:
        if min(horner2(coeffs, m)) < 0:
            return f"member maps {m} to a matrix with a negative entry"
    return None


def p2_verdict(op, verdict):
    """Check a check_p2 verdict of one input."""
    status = verdict.status.value
    if op.expect and status != op.expect:
        return f"{op.text}: expected {op.expect}, got {status}"
    if status == "not_member":
        if verdict.witness_matrix is None:
            return f"{op.text}: not_member without a witness matrix"
        err = violation(op.coeffs, verdict.witness_matrix)
        return err and f"{op.text}: {err}"
    if status == "member":
        err = member_sample(op.coeffs)
        return err and f"{op.text}: {err}"
    return None


def falsify_hit(op, found):
    if found is None:
        return None  # a randomized search may miss; only hits are claims
    if op.expect == "member":
        return f"{op.text}: falsifier hit {found} on a member"
    err = violation(op.coeffs, found)
    return err and f"{op.text}: {err}"


def _is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def certificate(op, cert, precision):
    """Recompute the residual p - (f1^2 + f2^2 + x*(g1^2 + g2^2)) exactly
    from the four parts and compare it with the reported one."""
    parts = [list(getattr(cert, name).coeffs) for name in ("f1", "f2", "g1", "g2")]
    if not all(_is_dyadic(F(x)) for part in parts for x in part):
        return f"{op.text}: certificate part with a non-dyadic coefficient"
    f1, f2, g1, g2 = parts
    squares = [poly_mul(f1, f1), poly_mul(f2, f2), [F(0)] + poly_mul(g1, g1), [F(0)] + poly_mul(g2, g2)]
    delta = list(op.coeffs)
    for sq in squares:
        delta += [F(0)] * (len(sq) - len(delta))
        for k, x in enumerate(sq):
            delta[k] -= x
    residual = max((abs(x) for x in delta), default=F(0))
    if residual != cert.residual:
        return f"{op.text}: residual {residual} recomputed, {cert.residual} reported"
    bound = F(2) ** (8 - precision) * max(abs(x) for x in op.coeffs)
    if residual > bound:
        return f"{op.text}: residual {residual} above {bound}"
    return None


def parsed(ops):
    """The program's parser must read back the benchmark's own coefficients."""
    return [f"{op.text}: parsed as {op.poly!r}" for op in ops if list(op.poly.coeffs) != op.coeffs]


def paper_examples(N):
    """The labelled examples of the paper, as the program must decide them."""
    quintic = N.parse_polynomial("x^5 - 2x^3 + 2x")
    quartic = N.parse_polynomial("x^4 - x^2 + x + 1")
    errors = []
    if N.check_p2(quintic).status.value != "not_member":
        errors.append("x^5 - 2x^3 + 2x must not be in P2")
    if N.check_circulant2(quintic).status.value != "member":
        errors.append("x^5 - 2x^3 + 2x must be in CIRCULANT2")
    if N.check_p2(N.parse_polynomial("-x")).status.value != "not_member":
        errors.append("-x must not be in P2")
    if N.check_p2(quartic).status.value != "member":
        errors.append("x^4 - x^2 + x + 1 must be in P2")
    if N.p3_necessary_screen(quartic).passed:
        errors.append("x^4 - x^2 + x + 1 must fail the P3 screen")
    return errors
