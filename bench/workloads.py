"""Seeded inputs for the four benchmark workloads.

Every input is built here from the workload seed as an exact coefficient
list (low degree first) and handed to the program as an expression string,
the way a user would type it.  The benchmark keeps its own coefficients for
the independent checks, so a parser fault shows as a mismatch.

Input classes are fixed in size per run: a seed changes which polynomials
are drawn, never how many of each kind, so runs with different seeds do the
same mix of work.  The route a corpus polynomial takes through ``check_p2``
is predicted with the benchmark's own float root test (see
``likely_cone_route``); a wrong prediction only moves one input between
strata and never decides a correctness check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

# Labelled examples of the paper and the named separating cases; the same
# 22 polynomials head the corpus and the falsify workload.
CURATED = [
    "x^5 - 2x^3 + 2x",
    "-x",
    "x^4 - x^2 + x + 1",
    "x^4 - x^2 + 1",
    "5x^4 - 6x^2 + 2",
    "4x^3 - 2x + 1",
    "x^4 + x^3 - x^2 + x + 1",
    "0",
    "1",
    "3/4",
    "-1",
    "x",
    "x^2",
    "x^3",
    "x^2 + x",
    "1 + x + x^2",
    "x^2 - 1",
    "x^2 - 2x + 1",
    "x^5 - x^3 + x",
    "x^4 - 2x^2 + 1/2x + 1",
    "-x^2",
    "2x^3 - x",
]

# Known faults kept in their workloads; each fails on every run.
# Its even part is 3/2*(x^2 - 3/4)^2, so the cone form touches zero at the
# irrational point rho = sqrt(3)/2 on the edge mu = rho, which no dyadic box
# corner reaches: the Bernstein certifier subdivides until its box budget
# is spent (about 270 s) and answers unknown.
CONE_FAULT = "3/2x^4 + 3/2x^3 - 9/4x^2 + 3x + 27/32"
# Product of x + 1 + k/1000, k = 0..13: mpmath.polyroots does not converge
# on the clustered roots and NoConvergence escapes the certificate call.
CERT_FAULT = [Fraction(1000 + k, 1000) for k in range(14)]

CORPUS_RANDOM = 2000
# About 0.9% of random draws pass the spectral check and skip every cone
# fast path; of those, 20% have degree 4, 34% degree 5 and 46% degree 6.
CORPUS_CONE_ROUTE = {4: 4, 5: 6, 6: 8}
CONE_FAMILY_DRAWS = 48
CONE_MEMBERS_PER_DEGREE = 6  # degrees 4..7; a degree-3 member always takes a fast path
FALSIFY_TRIALS = 100
FALSIFY_SEEDS = 3
# Random members per degree.  Op cost grows with degree, so the counts put
# the median op inside the degree-2 block and the 11th-slowest inside the
# degree-6 block, away from the cost steps between degrees.
FALSIFY_MEMBERS = {2: 4, 3: 4, 4: 4, 5: 4, 6: 6}
FALSIFY_NON_MEMBERS = 4
# Certificates per degree 2..14.  Cost varies by a factor of two within one
# degree, so single ops of neighbouring degrees interleave; blocks of degree
# 10 and 14 hold the median op and the 11th-slowest one.
CERT_COUNTS = dict.fromkeys(range(2, 15), 3) | {10: 24, 14: 15}
CERT_PRECISION = 128

Coeffs = list  # list[Fraction], coefficient of x^k at index k


@dataclass
class Input:
    """One operation of a workload: what runs, on what, and what is known."""

    kind: str  # "p2", "falsify" or "cert"
    coeffs: Coeffs
    text: str
    expect: Optional[str] = None  # "member" / "not_member" when known by construction
    fault: bool = False  # a named fault that fails on every run
    seed: int = 0  # falsifier seed
    poly: object = field(default=None, repr=False)  # the program's parsed polynomial


def trim(c: Coeffs) -> Coeffs:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def to_text(coeffs: Coeffs) -> str:
    """Expression string such as '3/2x^4 - 9/4x^2 + 27/32'."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if k == 0 else ("" if mag == 1 else str(mag)) + ("x" if k == 1 else f"x^{k}")
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def poly_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _rem(a: Coeffs, b: Coeffs) -> Coeffs:
    r = trim(a)
    while len(r) >= len(b):
        q, s = r[-1] / b[-1], len(r) - len(b)
        for i, y in enumerate(b):
            r[s + i] -= q * y
        r = trim(r)
    return r


def even_part_touches(coeffs: Coeffs) -> bool:
    """True when the even part, as a polynomial in y = x^2, has a repeated
    root y > 0.

    The cone form then touches zero on the edge mu = rho at a point that
    is in general no dyadic box corner, and the Bernstein certifier runs
    until its box budget is spent.  Such draws are left out of the random
    inputs; CONE_FAULT keeps the class in the cone workload.
    """
    e = trim(coeffs[0::2])
    if len(e) < 3:
        return False
    a, b = e, trim([k * c for k, c in enumerate(e)][1:])
    while b:
        a, b = b, _rem(a, b)
    if len(a) < 2:
        return False
    # a is the repeated part of e; for degree <= 3 in y it is linear or a square
    if len(a) == 2:
        return -a[0] / a[1] > 0
    return -a[1] / (2 * a[2]) > 0


def _nonneg_halfline_float(c: list) -> bool:
    """Float test of c(x) >= 0 on [0, inf): sign at 0 and at infinity, and
    the value at every positive critical point."""
    c = trim(c)
    if not c:
        return True
    if c[-1] < 0 or c[0] < 0:
        return False
    if len(c) <= 2:
        return True
    deriv = [k * c[k] for k in range(len(c) - 1, 0, -1)]
    scale = sum(abs(x) for x in c)
    for z in np.roots(deriv):
        if abs(z.imag) <= 1e-9 * (1 + abs(z)) and z.real > 0:
            x = float(z.real)
            if np.polyval(c[::-1], x) < -1e-9 * scale * max(1.0, x) ** (len(c) - 1):
                return False
    return True


def _takes_fast_path(c: Coeffs) -> bool:
    """The exact fast paths of the cone check (zero ratio form, nonnegative
    coefficients, linear odd part), assuming the spectral test passed."""
    deg = len(c) - 1
    if deg <= 1 and (not c or c[0] == 0):
        return True
    if all(x >= 0 for k, x in enumerate(c) if k != 1):
        return True
    odd_degree = max((k for k in range(1, len(c), 2) if c[k] != 0), default=-1)
    return odd_degree <= 1


def likely_cone_route(c: Coeffs) -> bool:
    """Predicted: passes the spectral test and reaches the grid or Bernstein
    stage of the cone check."""
    f = [float(x) for x in c]
    deriv = [k * f[k] for k in range(1, len(f))]
    even = [x if k % 2 == 0 else 0.0 for k, x in enumerate(f)]
    odd = [x if k % 2 == 1 else 0.0 for k, x in enumerate(f)]
    spectral = all(_nonneg_halfline_float(part) for part in (deriv, even, odd))
    return spectral and not _takes_fast_path(c)


def _rational(rng: random.Random, lo: int = -4, hi: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def random_corpus_poly(rng: random.Random) -> Coeffs:
    """Random rational polynomial of degree <= 6, coefficients a/b with
    |a| <= 4 and 1 <= b <= 4."""
    return trim(_rational(rng) for _ in range(rng.randint(0, 6) + 1))


def _p2(coeffs: Coeffs, **kw) -> Input:
    return Input("p2", coeffs, to_text(coeffs), **kw)


def _nonneg_expect(c: Coeffs) -> Optional[str]:
    return "member" if all(x >= 0 for x in c) else None


def corpus(seed: int) -> list[Input]:
    """The 22 curated polynomials and CORPUS_RANDOM random ones, of which
    exactly CORPUS_CONE_ROUTE[d] of degree d are predicted to reach the
    cone's grid or Bernstein stage."""
    from_text = [parse_exact(t) for t in CURATED]
    ops = [_p2(c, expect=_nonneg_expect(c)) for c in from_text]
    rng = random.Random(f"corpus:{seed}")
    quota = {None: CORPUS_RANDOM - sum(CORPUS_CONE_ROUTE.values()), **CORPUS_CONE_ROUTE}
    drawn = []
    while any(quota.values()):
        c = random_corpus_poly(rng)
        if even_part_touches(c):
            continue
        stratum = len(c) - 1 if likely_cone_route(c) else None
        if quota.get(stratum):
            quota[stratum] -= 1
            drawn.append(c)
    rng.shuffle(drawn)
    return ops + [_p2(c, expect=_nonneg_expect(c)) for c in drawn]


def cone_family() -> list[tuple[int, int]]:
    """(8a, 8b) for the spectral members of x^5 - a*x^3 + b*x with a in
    1/8..2 and b in 1/8..3.

    The odd part x*(x^4 - a*x^2 + b) and the derivative 5x^4 - 3a*x^2 + b
    are nonnegative on [0, inf) iff 20b >= 9a^2.  For a > 0, p(x)/x is
    decreasing near 0, so rho*p(-mu) + mu*p(rho) < 0 for small mu < rho:
    every one of them is a non-member refuted on the cone.
    """
    return [(a, b) for a in range(1, 17) for b in range(1, 25) if 160 * b >= 9 * a * a]


def cone(seed: int) -> list[Input]:
    """CONE_FAMILY_DRAWS family members (the paper's quintic always among
    them), CONE_MEMBERS_PER_DEGREE random monic spectral members per degree
    4..7 that skip every fast path, and CONE_FAULT."""
    rng = random.Random(f"cone:{seed}")
    family = [ab for ab in cone_family() if ab != (16, 16)]
    picks = [(16, 16)] + rng.sample(family, CONE_FAMILY_DRAWS - 1)
    ops = [
        _p2([Fraction(0), Fraction(b, 8), Fraction(0), Fraction(-a, 8), Fraction(0), Fraction(1)],
            expect="not_member")
        for a, b in picks
    ]
    for degree in range(4, 8):
        found = 0
        while found < CONE_MEMBERS_PER_DEGREE:
            c = [_rational(rng) for _ in range(degree)] + [Fraction(1)]
            if even_part_touches(c) or not likely_cone_route(c):
                continue
            ops.append(_p2(c))
            found += 1
    ops.append(_p2(parse_exact(CONE_FAULT), fault=True))
    rng.shuffle(ops)
    return ops


def falsify(seed: int) -> list[Input]:
    """The curated polynomials, FALSIFY_MEMBERS random members with
    nonnegative coefficients and FALSIFY_NON_MEMBERS random non-members,
    each searched with FALSIFY_SEEDS falsifier seeds.

    A non-member here has a negative lowest nonzero coefficient a_k: for a
    positive matrix A and small e > 0, p(e*A) ~ a_k * e^k * A^k has a
    negative entry.
    """
    rng = random.Random(f"falsify:{seed}")
    polys = [(c, _nonneg_expect(c)) for c in map(parse_exact, CURATED)]
    for degree, count in FALSIFY_MEMBERS.items():
        for _ in range(count):
            c = [Fraction(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(degree)]
            polys.append((c + [Fraction(rng.randint(1, 4), rng.randint(1, 4))], "member"))
    for _ in range(FALSIFY_NON_MEMBERS):
        low = rng.randint(0, 3)
        degree = low + rng.randint(0, 4)
        c = [Fraction(0)] * low + [-Fraction(rng.randint(1, 4), rng.randint(1, 4))]
        c += [_rational(rng) for _ in range(degree - low)]
        polys.append((trim(c), "not_member"))
    seeds = rng.sample(range(1 << 30), FALSIFY_SEEDS)
    return [
        Input("falsify", c, to_text(c), expect=expect, seed=s)
        for c, expect in polys
        for s in seeds
    ]


CERT_FACTORS = ("quadratic", "linear", "square", "linear")


def _cert_poly(rng: random.Random, degree: int) -> Coeffs:
    """Random member of P1 of the given degree: a positive constant times
    factors x + s (s > 0), (x - a)^2 + b^2 (b > 0) and squares (x - r)^2
    (r > 0).

    The factor kinds follow CERT_FACTORS and their values are drawn without
    repetition, so every polynomial of one degree has the same square-free
    structure and a seed cannot change how much root finding a pass does.
    """
    kinds, left = [], degree
    while left:
        kind = CERT_FACTORS[len(kinds) % len(CERT_FACTORS)] if left >= 2 else "linear"
        kinds.append(kind)
        left -= 1 if kind == "linear" else 2
    linear = iter(rng.sample(range(1, 13), kinds.count("linear")))
    quadratic = iter(rng.sample([(a, b) for a in range(-8, 9) for b in range(1, 9)], kinds.count("quadratic")))
    square = iter(rng.sample(range(1, 9), kinds.count("square")))
    c = [Fraction(rng.randint(1, 4), rng.randint(1, 4))]
    for kind in kinds:
        if kind == "linear":
            factor = [Fraction(next(linear), 4), Fraction(1)]
        elif kind == "quadratic":
            a, b = (Fraction(v, 4) for v in next(quadratic))
            factor = [a * a + b * b, -2 * a, Fraction(1)]
        else:
            r = Fraction(next(square), 4)
            factor = [r * r, -2 * r, Fraction(1)]
        c = poly_mul(c, factor)
    return c


def certificate(seed: int) -> list[Input]:
    """CERT_COUNTS random P1 members per degree, and CERT_FAULT."""
    rng = random.Random(f"certificate:{seed}")
    ops = []
    for degree, count in CERT_COUNTS.items():
        for _ in range(count):
            c = _cert_poly(rng, degree)
            ops.append(Input("cert", c, to_text(c)))
    fault = [Fraction(1)]
    for s in CERT_FAULT:
        fault = poly_mul(fault, [s, Fraction(1)])
    ops.append(Input("cert", fault, to_text(fault), fault=True))
    rng.shuffle(ops)
    return ops


BUILDERS = {"corpus": corpus, "cone": cone, "falsify": falsify, "certificate": certificate}


def parse_exact(text: str) -> Coeffs:
    """Coefficients of a curated expression, read by the benchmark itself.

    Accepts the small grammar of the constants above: terms 'c', 'cx',
    'cx^k' with c an integer or a/b, joined by '+' and '-'.
    """
    out: dict[int, Fraction] = {}
    for raw in text.replace("- ", "+ -").split("+"):
        term = raw.replace(" ", "")
        if not term:
            continue
        head, x, power = term.partition("x")
        k = 0 if not x else (int(power[1:]) if power else 1)
        coef = Fraction(1) if head in ("", "-") and x else Fraction(head or "1")
        if head == "-":
            coef = -coef
        out[k] = out.get(k, Fraction(0)) + coef
    top = max(out, default=-1)
    return trim(out.get(k, Fraction(0)) for k in range(top + 1))


def build(workload: str, seed: int, parse) -> list[Input]:
    """Inputs of one workload, each parsed by the program's ``parse``."""
    ops = BUILDERS[workload](seed)
    for op in ops:
        op.poly = parse(op.text)
    return ops
