"""Test-only reference: the tensor Bernstein box certifier of the cone.

It proves P >= 0 on the unit square, where P(t, r) is the compactified cone
form of ``nppreserve.cone``, built as a bivariate polynomial by
``compactify`` below: the four edges by exact univariate checks, the
interior by breadth-first box subdivision, a box being discharged when all
its tensor Bernstein coefficients are >= 0.  It never
refutes, and it gives up when an edge is negative or its box budget runs
out.  The tests compare the exact cone decision against it wherever it is
decisive.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from nppreserve import Polynomial, RatioStatus, RatioVerdict
from nppreserve.polynomial import count_unit_roots, integer_vector, odd_part_vector

# the status of a search that gave up: an edge is negative or the budget ran out
GAVE_UP = "gave-up"

DEFAULT_MAX_BOXES = 16384


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

    def eval(self, t, r) -> Fraction:
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
    """Map p to P(t, r) on the unit square (see the docstring of nppreserve.cone).

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


def _subdivide(b, s):
    """Split Bernstein coefficients at parameter s into left/right segments
    (de Casteljau)."""
    rows = [list(b)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([(1 - s) * prev[i] + s * prev[i + 1] for i in range(len(prev) - 1)])
    n = len(b) - 1
    return [rows[k][0] for k in range(n + 1)], [rows[n - k][k] for k in range(n + 1)]


def _restrict(b, lo, hi):
    """Bernstein coefficients on [0,1] -> coefficients on [lo, hi]."""
    if lo > 0:
        b = _subdivide(b, lo)[1]
    if hi < 1:
        b = _subdivide(b, (hi - lo) / (1 - lo))[0]
    return list(b)


def _power_to_bernstein(c):
    n = len(c) - 1
    return [sum(Fraction(comb(i, k), comb(n, k)) * c[k] for k in range(i + 1))
            for i in range(n + 1)]


def _map_columns(mat, fn):
    cols = [fn([row[j] for row in mat]) for j in range(len(mat[0]))]
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]


def _map_rows(mat, fn):
    return [fn(list(row)) for row in mat]


def _freeze(mat):
    return tuple(tuple(row) for row in mat)


@dataclass(frozen=True)
class BernsteinBox:
    """Exact tensor Bernstein coefficients of a bivariate polynomial on a box.

    All coefficients >= 0 proves the polynomial nonnegative on the closed
    box; the corner coefficients equal the polynomial's corner values.
    """

    box: Box
    coeffs: tuple

    @property
    def min_coefficient(self) -> Fraction:
        return min(min(row) for row in self.coeffs)

    def split(self):
        """Halve along the longer side (ties split the t axis)."""
        mat, box, half = self.coeffs, self.box, Fraction(1, 2)
        if box.width_t >= box.width_r:
            mid = (box.t_lo + box.t_hi) / 2
            pieces = [_subdivide([row[j] for row in mat], half) for j in range(len(mat[0]))]
            left = [[piece[0][i] for piece in pieces] for i in range(len(mat))]
            right = [[piece[1][i] for piece in pieces] for i in range(len(mat))]
            return (BernsteinBox(Box(box.t_lo, mid, box.r_lo, box.r_hi), _freeze(left)),
                    BernsteinBox(Box(mid, box.t_hi, box.r_lo, box.r_hi), _freeze(right)))
        mid = (box.r_lo + box.r_hi) / 2
        pieces = [_subdivide(row, half) for row in mat]
        left = [piece[0] for piece in pieces]
        right = [piece[1] for piece in pieces]
        return (BernsteinBox(Box(box.t_lo, box.t_hi, box.r_lo, mid), _freeze(left)),
                BernsteinBox(Box(box.t_lo, box.t_hi, mid, box.r_hi), _freeze(right)))


def bernstein_tensor(bp: BiPoly, box: Box = UNIT_BOX) -> BernsteinBox:
    """Exact tensor Bernstein coefficients of bp restricted to box."""
    if bp.is_zero:
        return BernsteinBox(box, ((Fraction(0),),))
    mat = [list(row) for row in bp.coeffs]
    mat = _map_columns(mat, _power_to_bernstein)
    mat = _map_rows(mat, _power_to_bernstein)
    mat = _map_columns(mat, lambda col: _restrict(col, box.t_lo, box.t_hi))
    mat = _map_rows(mat, lambda row: _restrict(row, box.r_lo, box.r_hi))
    return BernsteinBox(box, _freeze(mat))


def nonneg_on_unit_interval(q: Polynomial) -> bool:
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


def _edge_polynomials(bp: BiPoly):
    rows = bp.coeffs
    return [
        ("r=0", Polynomial(row[0] for row in rows)),
        ("t=0", Polynomial(rows[0])),
        ("r=1", Polynomial(sum(row) for row in rows)),
        ("t=1", Polynomial(sum(col) for col in zip(*rows))),
    ]


def certify_boxes(p: Polynomial, max_boxes: int = DEFAULT_MAX_BOXES) -> RatioVerdict:
    """HOLDS with the certified boxes, which tile the unit square, or
    GAVE_UP.  The counters are boxes processed and certified, and the
    negative edge when there is one."""
    counters = {"boxes_processed": 0, "boxes_certified": 0}
    bp = compactify(p)
    if bp.is_zero:
        return RatioVerdict(RatioStatus.HOLDS, certificate="zero-ratio-form",
                            budget_spent=counters)
    for name, edge in _edge_polynomials(bp):
        if not nonneg_on_unit_interval(edge):
            counters[f"edge_negative[{name}]"] = 1
            return RatioVerdict(GAVE_UP, budget_spent=counters)
    certified = []
    queue = deque([bernstein_tensor(bp)])
    while queue:
        if counters["boxes_processed"] >= max_boxes:
            return RatioVerdict(GAVE_UP, budget_spent=counters)
        bb = queue.popleft()
        counters["boxes_processed"] += 1
        if bb.min_coefficient >= 0:
            certified.append(bb.box)
            counters["boxes_certified"] += 1
        else:
            queue.extend(bb.split())
    return RatioVerdict(RatioStatus.HOLDS, certificate=tuple(certified), budget_spent=counters)
