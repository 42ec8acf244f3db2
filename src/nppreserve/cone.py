"""Decide the cone inequality rho*p(-mu) + mu*p(rho) >= 0 for 0 < mu <= rho.

The substitution mu = t*rho, rho = r/(1-r) compactifies the cone onto the
unit square: with m = deg p,

    P(t, r) = sum_k a_k * ((-t)^k + t) * r^k * (1 - r)^(m-k)
            = (1 - r)^m * (rho*p(-mu) + mu*p(rho)) / rho,

so the inequality holds on the open cone iff P >= 0 on [0, 1]^2 (by
continuity).  Violations are hunted on dyadic grids and certified
refutations are returned as exact ConeWitness values; nonnegativity is
certified by tensor Bernstein coefficients on subdivided boxes plus exact
univariate checks of the four edges.  Both directions are budgeted, so the
overall answer is three-valued.

check_ratio runs the two in lockstep: after grid level L finds no negative
point, the breadth-first certifier works through the boxes whose sides are
at least 2^-(L-2), and an empty box queue ends the search.  The answers are
those of running the whole grid first: a certified square has no negative
point for the grid to find, the certifier cannot finish while one exists,
and each search keeps its own order (levels and lexicographic (t, r) points
for the grid, breadth-first boxes for the certifier), so the witness and
the certified boxes are the same.  Only the effort counters differ.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Optional, Union

import numpy as np

from .halfline import check_nonneg_halfline
from .polynomial import Polynomial, count_unit_roots, integer_vector, odd_part_vector

Rational = Union[Fraction, int, str]


def ratio_value(p: Polynomial, rho: Rational, mu: Rational) -> Fraction:
    """Exact value of rho*p(-mu) + mu*p(rho)."""
    rho = Fraction(rho)
    mu = Fraction(mu)
    return rho * p(-mu) + mu * p(rho)


@dataclass(frozen=True)
class ConeWitness:
    """Exact violating point: 0 < mu <= rho and rho*p(-mu) + mu*p(rho) < 0."""

    rho: Fraction
    mu: Fraction
    value: Fraction


class BiPoly:
    """Dense bivariate polynomial over the rationals; entry (i, j) is t^i r^j."""

    __slots__ = ("coeffs",)

    def __init__(self, grid):
        rows = [[Fraction(c) for c in row] for row in grid]
        width = max((len(r) for r in rows), default=0)
        for r in rows:
            r.extend([Fraction(0)] * (width - len(r)))
        while rows and all(c == 0 for c in rows[-1]):
            rows.pop()
        while rows and all(row[-1] == 0 for row in rows):
            for row in rows:
                row.pop()
        self.coeffs: tuple[tuple[Fraction, ...], ...] = tuple(tuple(r) for r in rows)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree_t(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree_r(self) -> int:
        return len(self.coeffs[0]) - 1 if self.coeffs else -1

    def eval(self, t: Rational, r: Rational) -> Fraction:
        t = Fraction(t)
        r = Fraction(r)
        acc = Fraction(0)
        for row in reversed(self.coeffs):
            inner = Fraction(0)
            for c in reversed(row):
                inner = inner * r + c
            acc = acc * t + inner
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"BiPoly({[[str(c) for c in row] for row in self.coeffs]})"


def compactify(p: Polynomial) -> BiPoly:
    """Map p to P(t, r) on the unit square (see module docstring).

    The k = 1 basis term (-t) + t vanishes, so the coefficient of x never
    influences P; constants use the m = 0 convention P = c * (1 + t).
    """
    m = max(p.degree, 0)
    grid = [[Fraction(0)] * (m + 1) for _ in range(max(m, 1) + 1)]
    for k, ak in enumerate(p.coeffs):
        if ak == 0 or k == 1:
            continue
        sign = 1 if k % 2 == 0 else -1
        for j in range(m - k + 1):
            c = ak * comb(m - k, j) * (-1) ** j  # r^k (1-r)^(m-k) expansion
            grid[1][k + j] += c
            grid[k][k + j] += sign * c
    return BiPoly(grid)


# -- tensor Bernstein form ---------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned sub-box of the unit square with rational endpoints."""

    t_lo: Fraction
    t_hi: Fraction
    r_lo: Fraction
    r_hi: Fraction

    def __post_init__(self):
        if not (0 <= self.t_lo < self.t_hi <= 1 and 0 <= self.r_lo < self.r_hi <= 1):
            raise ValueError("box must be a nondegenerate sub-box of the unit square")

    @property
    def width_t(self) -> Fraction:
        return self.t_hi - self.t_lo

    @property
    def width_r(self) -> Fraction:
        return self.r_hi - self.r_lo


UNIT_BOX = Box(Fraction(0), Fraction(1), Fraction(0), Fraction(1))


def _decasteljau_rows(b: list[Fraction], s: Fraction) -> list[list[Fraction]]:
    rows = [list(b)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([(1 - s) * prev[i] + s * prev[i + 1] for i in range(len(prev) - 1)])
    return rows


def _subdivide(b: list[Fraction], s: Fraction) -> tuple[list[Fraction], list[Fraction]]:
    """Split Bernstein coefficients at parameter s into left/right segments."""
    rows = _decasteljau_rows(b, s)
    n = len(b) - 1
    left = [rows[k][0] for k in range(n + 1)]
    right = [rows[n - k][k] for k in range(n + 1)]
    return left, right


def _restrict(b: list[Fraction], lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Bernstein coefficients on [0,1] -> coefficients on [lo, hi]."""
    if lo > 0:
        b = _subdivide(b, lo)[1]
    if hi < 1:
        b = _subdivide(b, (hi - lo) / (1 - lo))[0]
    return list(b)


def _power_to_bernstein(c: list[Fraction]) -> list[Fraction]:
    n = len(c) - 1
    return [
        sum(Fraction(comb(i, k), comb(n, k)) * c[k] for k in range(i + 1))
        for i in range(n + 1)
    ]


def _map_axis0(mat, fn):
    cols = [fn([row[j] for row in mat]) for j in range(len(mat[0]))]
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]


def _map_axis1(mat, fn):
    return [fn(list(row)) for row in mat]


@dataclass(frozen=True)
class BernsteinBox:
    """Exact tensor Bernstein coefficients of a bivariate polynomial on a box.

    All coefficients >= 0 proves the polynomial nonnegative on the closed
    box; the corner coefficients equal the polynomial's corner values.
    """

    box: Box
    coeffs: tuple[tuple[Fraction, ...], ...]

    @property
    def min_coefficient(self) -> Fraction:
        return min(min(row) for row in self.coeffs)

    def split(self) -> tuple["BernsteinBox", "BernsteinBox"]:
        """Halve along the longer side (ties split the t axis) by de Casteljau."""
        mat = [list(row) for row in self.coeffs]
        box = self.box
        half = Fraction(1, 2)
        if box.width_t >= box.width_r:
            mid = (box.t_lo + box.t_hi) / 2
            pieces = [_subdivide([row[j] for row in mat], half) for j in range(len(mat[0]))]
            n = len(mat)
            left = [[pieces[j][0][i] for j in range(len(pieces))] for i in range(n)]
            right = [[pieces[j][1][i] for j in range(len(pieces))] for i in range(n)]
            return (
                BernsteinBox(Box(box.t_lo, mid, box.r_lo, box.r_hi), _freeze(left)),
                BernsteinBox(Box(mid, box.t_hi, box.r_lo, box.r_hi), _freeze(right)),
            )
        mid = (box.r_lo + box.r_hi) / 2
        pieces = [_subdivide(list(row), half) for row in mat]
        left = [piece[0] for piece in pieces]
        right = [piece[1] for piece in pieces]
        return (
            BernsteinBox(Box(box.t_lo, box.t_hi, box.r_lo, mid), _freeze(left)),
            BernsteinBox(Box(box.t_lo, box.t_hi, mid, box.r_hi), _freeze(right)),
        )


def _freeze(mat) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(row) for row in mat)


def bernstein_tensor(bp: BiPoly, box: Box = UNIT_BOX) -> BernsteinBox:
    """Exact tensor Bernstein coefficients of bp restricted to box."""
    if bp.is_zero:
        return BernsteinBox(box, ((Fraction(0),),))
    mat = [list(row) for row in bp.coeffs]
    mat = _map_axis0(mat, _power_to_bernstein)
    mat = _map_axis1(mat, _power_to_bernstein)
    mat = _map_axis0(mat, lambda col: _restrict(col, box.t_lo, box.t_hi))
    mat = _map_axis1(mat, lambda row: _restrict(row, box.r_lo, box.r_hi))
    return BernsteinBox(box, _freeze(mat))


# -- verdicts and budgets ----------------------------------------------------


class RatioStatus(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Budget:
    """Search budgets: dyadic grid depth for refutation, box count for certification."""

    grid_depth: int = 10
    max_boxes: int = 16384


DEFAULT_BUDGET = Budget()

Certificate = Union[str, tuple[Box, ...], None]


@dataclass(frozen=True)
class RatioVerdict:
    status: RatioStatus
    witness: Optional[ConeWitness] = None
    certificate: Certificate = None
    budget_spent: dict = field(default_factory=dict)


# -- refutation --------------------------------------------------------------


class _GridScan:
    """Resume state of _scan_grid: the compactified form, its float
    prefilter (None when a coefficient is beyond float range) and the
    deepest level scanned so far."""

    def __init__(self, bp: BiPoly):
        self.bp = bp
        self.level = 0
        self.cmat = None
        if bp.is_zero:
            return
        try:
            cmat = np.array([[float(c) for c in row] for row in bp.coeffs], dtype=float)
        except OverflowError:
            return
        if np.all(np.isfinite(cmat)):
            self.cmat = cmat
            self.cabs = np.abs(cmat)
            nt, nr = cmat.shape
            # generous bound on float evaluation error relative to sum of |terms|
            self.gamma = 256.0 * nt * nr * 2.0**-53


def _scan_grid(
    p: Polynomial, budget: Budget, scan: Optional[_GridScan] = None
) -> tuple[Optional[ConeWitness], dict]:
    """Dyadic grid search for P < 0 on (0,1] x (0,1), exact sign decisions.

    Floats only pre-filter: any point whose float value cannot be proven
    nonnegative (via a rigorous rounding-error bound) is re-evaluated with
    exact arithmetic in lexicographic (t, r) order, so the reported witness
    is the coarsest-level lexicographic-first negative grid point, exactly
    as an all-exact scan would report.

    A given scan state resumes after its last level and is advanced; either
    way the search stops after level budget.grid_depth.  The counters are
    this call's work: levels scanned and exact evaluations.
    """
    counters = {"grid_levels": 0, "grid_exact_checks": 0}
    if scan is None:
        scan = _GridScan(compactify(p))
    bp, cmat = scan.bp, scan.cmat
    if bp.is_zero:
        return None, counters
    for level in range(scan.level + 1, budget.grid_depth + 1):
        scan.level = level
        counters["grid_levels"] += 1
        n = 1 << level
        if cmat is None:
            candidates = ((i, j) for i in range(n) for j in range(n - 1))
        else:
            nt, nr = cmat.shape
            ts = np.arange(1, n + 1, dtype=float) / n
            rs = np.arange(1, n, dtype=float) / n
            tpow = ts[:, None] ** np.arange(nt)
            rpow = rs[:, None] ** np.arange(nr)
            vals = tpow @ cmat @ rpow.T
            margin = scan.gamma * (tpow @ scan.cabs @ rpow.T)
            candidates = np.argwhere(vals < margin)  # row-major == lex (t, r)
        for i, j in candidates:
            t = Fraction(int(i) + 1, n)
            r = Fraction(int(j) + 1, n)
            counters["grid_exact_checks"] += 1
            if bp.eval(t, r) < 0:
                rho = r / (1 - r)
                mu = t * rho
                value = ratio_value(p, rho, mu)
                assert value < 0 and 0 < mu <= rho
                return ConeWitness(rho=rho, mu=mu, value=value), counters
    return None, counters


def refute_ratio(p: Polynomial, budget: Budget = DEFAULT_BUDGET) -> Optional[ConeWitness]:
    """Search dyadic grids of doubling resolution for an exact violation.

    Edge negatives (t = 0 or r = 0) are never produced: the grid lives on
    (0,1] x (0,1), where every point maps back to a valid cone point.
    """
    return _scan_grid(p, budget)[0]


# -- certification -----------------------------------------------------------


def _nonneg_on_unit_interval(q: Polynomial) -> bool:
    """Exact test of q >= 0 on [0, 1].

    With both endpoint values nonnegative and no odd-multiplicity root
    strictly inside, the sign is constant on (0, 1) apart from touch points,
    so one interior non-root sample decides.
    """
    if q.is_zero:
        return True
    if q(0) < 0 or q(1) < 0:
        return False
    if count_unit_roots(odd_part_vector(integer_vector(q))) > 0:
        return False
    x = Fraction(1, 2)
    while q(x) == 0:
        x = x / 2
    return q(x) > 0


def _edge_polynomials(bp: BiPoly) -> list[tuple[str, Polynomial]]:
    rows = bp.coeffs
    return [
        ("r=0", Polynomial(row[0] for row in rows)),
        ("t=0", Polynomial(rows[0])),
        ("r=1", Polynomial(sum(row) for row in rows)),
        ("t=1", Polynomial(sum(col) for col in zip(*rows))),
    ]


class _BoxSearch:
    """Resume state of certify_ratio: the breadth-first box queue (None
    until the edges are checked), the boxes certified and processed so far,
    and the side below which a call pauses (0: never)."""

    def __init__(self, bp: BiPoly):
        self.bp = bp
        self.queue: Optional[deque] = None
        self.edge_negative: Optional[str] = None
        self.certified: list[Box] = []
        self.processed = 0
        self.min_side = Fraction(0)


def certify_ratio(
    p: Polynomial, budget: Budget = DEFAULT_BUDGET, search: Optional[_BoxSearch] = None
) -> RatioVerdict:
    """Certify P >= 0 on the unit square, or give up within budget.

    The four edges are discharged by exact univariate checks; the interior
    by breadth-first box subdivision, a box being discharged when all its
    tensor Bernstein coefficients are >= 0.  Never returns FAILS.

    A given search state resumes where it stopped and is advanced; the call
    returns UNKNOWN when the next box has a side below search.min_side.  The
    counters are this call's work; max_boxes bounds the search's total.
    """
    counters = {"boxes_processed": 0, "boxes_certified": 0}
    if search is None:
        search = _BoxSearch(compactify(p))
    bp = search.bp
    if bp.is_zero:
        return RatioVerdict(RatioStatus.HOLDS, certificate="zero-ratio-form",
                            budget_spent=counters)
    if search.edge_negative is not None:
        return RatioVerdict(RatioStatus.UNKNOWN, budget_spent=counters)
    if search.queue is None:
        for name, edge in _edge_polynomials(bp):
            if not _nonneg_on_unit_interval(edge):
                search.edge_negative = name
                counters[f"edge_negative[{name}]"] = 1
                return RatioVerdict(RatioStatus.UNKNOWN, budget_spent=counters)
        search.queue = deque([bernstein_tensor(bp, UNIT_BOX)])
    queue = search.queue
    while queue:
        box = queue[0].box
        if min(box.width_t, box.width_r) < search.min_side:
            return RatioVerdict(RatioStatus.UNKNOWN, budget_spent=counters)
        if search.processed >= budget.max_boxes:
            return RatioVerdict(RatioStatus.UNKNOWN, budget_spent=counters)
        bb = queue.popleft()
        search.processed += 1
        counters["boxes_processed"] += 1
        if bb.min_coefficient >= 0:
            search.certified.append(bb.box)
            counters["boxes_certified"] += 1
        else:
            queue.extend(bb.split())
    return RatioVerdict(RatioStatus.HOLDS, certificate=tuple(search.certified),
                        budget_spent=counters)


# -- the three-valued decision ----------------------------------------------

# grid levels by which the certifier's box side trails the grid's spacing
_CERTIFIER_LAG = 2


def _add_spent(counters: dict, spent: dict) -> None:
    for key, value in spent.items():
        counters[key] = counters.get(key, 0) + value


def check_ratio(p: Polynomial, budget: Budget = DEFAULT_BUDGET) -> RatioVerdict:
    """Full pipeline: fast paths, then refutation and certification in lockstep.

    Fast paths (exact):
      * p = c*x or p = 0: P is identically zero.
      * all a_k >= 0 for k != 1: every surviving basis term of P is
        nonnegative on the square.
      * odd part equal to c*x and even part nonnegative on the half line:
        the odd part contributes exactly zero to the cone value.

    Then, for L = 1 .. grid_depth: scan grid level L and return FAILS on its
    first negative point; otherwise let the certifier process the boxes
    with sides >= 2^-(L-2) and return HOLDS once its queue is empty.  When
    the grid depth is spent the certifier runs on to its box budget.  The
    status, witness and certificate are those of the full grid scan
    followed by certification (see the module docstring); the grid and box
    counters are the work actually done.
    """
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
    bp = compactify(p)
    scan, search = _GridScan(bp), _BoxSearch(bp)
    for level in range(1, budget.grid_depth + 1):
        witness, spent = _scan_grid(p, replace(budget, grid_depth=level), scan)
        _add_spent(counters, spent)
        if witness is not None:
            return RatioVerdict(RatioStatus.FAILS, witness=witness, budget_spent=counters)
        if level >= _CERTIFIER_LAG:
            search.min_side = Fraction(1, 2 ** (level - _CERTIFIER_LAG))
            certified = certify_ratio(p, budget, search)
            _add_spent(counters, certified.budget_spent)
            if certified.status is RatioStatus.HOLDS:
                return RatioVerdict(RatioStatus.HOLDS, certificate=certified.certificate,
                                    budget_spent=counters)
    search.min_side = Fraction(0)
    certified = certify_ratio(p, budget, search)
    _add_spent(counters, certified.budget_spent)
    return RatioVerdict(certified.status, certificate=certified.certificate,
                        budget_spent=counters)
