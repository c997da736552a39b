"""Exact-decision geometric primitives.

Combinatorial decisions (orientation, in-circle, cone classification) are
exact: a fast floating-point evaluation with a conservative error bound is
tried first, and borderline cases fall back to rational arithmetic.  Doubles
are dyadic rationals, so ``fractions.Fraction`` evaluates the same expression
without error.

Metric quantities (bisector lengths, triangle corners) are plain doubles;
comparisons on them use a relative tolerance of ``METRIC_RTOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Relative tolerance for metric (non-combinatorial) comparisons.
METRIC_RTOL = 1e-12

_EPS = math.ulp(1.0) / 2  # 2^-53
# Static filter constants in the style of Shewchuk's predicates.
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS

SQRT3 = math.sqrt(3.0)
TAN30 = SQRT3 / 3.0

# Unit bisector direction of cone i (cones are numbered clockwise, cone 0
# pointing straight up, each spanning 60 degrees).
CONE_BISECTORS = (
    (0.0, 1.0),
    (SQRT3 / 2, 0.5),
    (SQRT3 / 2, -0.5),
    (0.0, -1.0),
    (-SQRT3 / 2, -0.5),
    (-SQRT3 / 2, 0.5),
)


class DegeneratePairError(ValueError):
    """Raised when an operation requires two distinct points."""


class Point(NamedTuple):
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class PointSet:
    """Immutable planar point set with contiguous integer ids."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("coordinate arrays differ in length")
        for v in self.xs + self.ys:
            if not math.isfinite(v):
                raise ValueError("coordinates must be finite")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "PointSet":
        pts = [(float(x), float(y)) for x, y in pairs]
        return cls(tuple(x for x, _ in pts), tuple(y for _, y in pts))

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i: int) -> Point:
        return Point(i, self.xs[i], self.ys[i])

    def __iter__(self):
        for i in range(len(self.xs)):
            yield Point(i, self.xs[i], self.ys[i])

    def coords(self) -> np.ndarray:
        return np.column_stack([self.xs, self.ys])


def _sign(v) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def orient(a, b, c) -> int:
    """Sign of the orientation of c against directed line a->b.

    +1 if c is strictly left, -1 if strictly right, 0 if collinear.
    """
    detleft = (a.x - c.x) * (b.y - c.y)
    detright = (a.y - c.y) * (b.x - c.x)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if abs(det) > _ORIENT_BOUND * detsum:
        return _sign(det)
    ax, ay = Fraction(a.x), Fraction(a.y)
    bx, by = Fraction(b.x), Fraction(b.y)
    cx, cy = Fraction(c.x), Fraction(c.y)
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def in_circle(a, b, c, d) -> int:
    """Sign of the in-circle test of d against the circle through a, b, c.

    Requires a, b, c in counter-clockwise order.  +1 if d is strictly
    inside, -1 strictly outside, 0 cocircular.
    """
    adx = a.x - d.x
    ady = a.y - d.y
    bdx = b.x - d.x
    bdy = b.y - d.y
    cdx = c.x - d.x
    cdy = c.y - d.y

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady
    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy
    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    if abs(det) > _INCIRCLE_BOUND * permanent:
        return _sign(det)
    return _in_circle_exact(a, b, c, d)


def _in_circle_exact(a, b, c, d) -> int:
    adx = Fraction(a.x) - Fraction(d.x)
    ady = Fraction(a.y) - Fraction(d.y)
    bdx = Fraction(b.x) - Fraction(d.x)
    bdy = Fraction(b.y) - Fraction(d.y)
    cdx = Fraction(c.x) - Fraction(d.x)
    cdy = Fraction(c.y) - Fraction(d.y)
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return _sign(det)


def _cmp_sq3(dy: float, dx: float) -> int:
    """Exact comparison of dy^2 against 3*dx^2."""
    lhs = dy * dy
    rhs = 3.0 * dx * dx
    # Generous filter: only escalate when the doubles are suspiciously close.
    if lhs > rhs * (1 + 1e-9) + 1e-300:
        return 1
    if rhs > lhs * (1 + 1e-9) + 1e-300:
        return -1
    fy, fx = Fraction(dy), Fraction(dx)
    return _sign(fy * fy - 3 * fx * fx)


def cone_index_dir(dx: float, dy: float) -> int:
    """Cone containing direction (dx, dy).

    Cone 0 points straight up, numbering proceeds clockwise and each cone
    spans 60 degrees.  The counter-clockwise boundary ray of a cone belongs
    to that cone.  Classification is exact: the cone boundary slopes 0 and
    +-sqrt(3) reduce to the rational comparison dy^2 vs 3*dx^2.  Doubles are
    rational, so dy^2 = 3*dx^2 only holds for dx = dy = 0: no direction lies
    on a +-sqrt(3) boundary ray.
    """
    if dx == 0.0 and dy == 0.0:
        raise DegeneratePairError("degenerate pair")
    if dy > 0.0:
        if _cmp_sq3(dy, dx) > 0:
            return 0
        return 1 if dx > 0 else 5
    if dy == 0.0:
        return 2 if dx > 0 else 5
    if _cmp_sq3(dy, dx) > 0:
        return 3
    return 2 if dx > 0 else 4


def cone_index(p, q) -> int:
    """Cone of p containing q."""
    return cone_index_dir(q.x - p.x, q.y - p.y)


def bisector_distance(p, q) -> float:
    """Length of the projection of q onto the bisector ray of p's cone of q.

    Symmetric: the value computed from p in cone i equals the value computed
    from q in cone i+3, because opposite bisectors are exactly antiparallel.
    """
    dx = q.x - p.x
    dy = q.y - p.y
    ux, uy = CONE_BISECTORS[cone_index_dir(dx, dy)]
    return dx * ux + dy * uy


@dataclass(frozen=True)
class CanonicalTriangle:
    """Equilateral triangle with one corner at the apex, contained in the
    apex's cone of q, with height equal to the bisector length."""

    apex: Point
    cone: int
    height: float
    a: tuple[float, float]  # left corner, seen from the apex
    b: tuple[float, float]  # right corner


def canonical_triangle(p, q) -> CanonicalTriangle:
    i = cone_index(p, q)
    h = bisector_distance(p, q)
    ux, uy = CONE_BISECTORS[i]
    # Left of the bisector direction is the rotated vector (-uy, ux).
    lx, ly = -uy, ux
    a = (p.x + h * (ux + TAN30 * lx), p.y + h * (uy + TAN30 * ly))
    b = (p.x + h * (ux - TAN30 * lx), p.y + h * (uy - TAN30 * ly))
    return CanonicalTriangle(apex=Point(p.id, p.x, p.y), cone=i, height=h, a=a, b=b)


def euclid(p, q) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


def circumcircle(a, b, c) -> tuple[float, float, float]:
    """Floating-point circumcenter and squared radius of a non-degenerate
    triangle; used only as a prefilter ahead of the exact in-circle test."""
    ax, ay = a.x - c.x, a.y - c.y
    bx, by = b.x - c.x, b.y - c.y
    d = 2.0 * (ax * by - ay * bx)
    la = ax * ax + ay * ay
    lb = bx * bx + by * by
    ux = c.x + (by * la - ay * lb) / d
    uy = c.y + (ax * lb - bx * la) / d
    r2 = (a.x - ux) ** 2 + (a.y - uy) ** 2
    return ux, uy, r2


# ---------------------------------------------------------------------------
# General position


@dataclass(frozen=True)
class Violation:
    kind: str  # coincident | slope | collinear | cocircular
    ids: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.ids}"


@dataclass
class GeneralPositionReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class GeneralPositionError(ValueError):
    def __init__(self, violations: list[Violation]):
        super().__init__(
            "point set violates general position: "
            + ", ".join(str(v) for v in violations[:10])
        )
        self.violations = violations


def check_general_position(ps: PointSet) -> GeneralPositionReport:
    """Screen the set for coincident points and pairs at slope 0.

    These are the degeneracies no later step catches: the construction needs
    distinct points with no two on a cone-boundary slope.  Of those slopes
    only 0 needs a check: +-sqrt(3) is irrational, so no two distinct points
    with double coordinates are aligned at it.  Sorting the ids on (y, x, id)
    puts each run of equal y together, in (x, id) order; each pair of
    consecutive members of a run is reported, ``coincident`` where x is equal
    too and ``slope`` otherwise, so a run of k points gives k - 1 violations
    and the report is O(n log n) for any input.

    Collinear and cocircular points are not screened: they leave the
    Delaunay triangulation unique unless the whole set is collinear or four
    points lie on an empty circle, and ``build_dt`` rejects those two cases
    exactly.  ``build_dt`` and ``generate`` both run this screen.
    """
    xs = np.asarray(ps.xs)
    ys = np.asarray(ps.ys)
    order = np.lexsort((xs, ys))  # stable, so ties in (y, x) keep id order
    violations = []
    for k in np.flatnonzero(ys[order[1:]] == ys[order[:-1]]):
        a, b = int(order[k]), int(order[k + 1])
        kind = "coincident" if xs[a] == xs[b] else "slope"
        violations.append(Violation(kind, (min(a, b), max(a, b))))
    violations.sort(key=lambda v: v.ids)
    return GeneralPositionReport(violations)
