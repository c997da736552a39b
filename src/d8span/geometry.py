"""Exact-decision geometric primitives.

Combinatorial decisions (orientation, in-circle, cone classification) are
exact: a fast floating-point evaluation with a conservative error bound is
tried first, and borderline cases fall back to rational arithmetic.  Doubles
are dyadic rationals, so ``fractions.Fraction`` evaluates the same expression
without error.

Metric quantities (bisector lengths) are plain doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class PointSet:
    """Immutable planar point set with contiguous integer ids: ``xs`` and
    ``ys`` are read-only float64 arrays, ``ps[i]`` is a ``Point`` of Python
    floats, and equality is by value."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("coordinate arrays differ in length")
        xy = np.array([self.xs, self.ys], dtype=np.float64)
        if not np.isfinite(xy).all():
            raise ValueError("coordinates must be finite")
        xy.flags.writeable = False
        object.__setattr__(self, "xs", xy[0])
        object.__setattr__(self, "ys", xy[1])

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "PointSet":
        """The points of a sequence of pairs (x, y) or an (n, 2) array."""
        xy = np.array(pairs, dtype=np.float64).reshape(len(pairs), 2)
        return cls(xy[:, 0], xy[:, 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return np.array_equal(self.xs, other.xs) and np.array_equal(self.ys, other.ys)

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i: int) -> Point:
        return Point(i, float(self.xs[i]), float(self.ys[i]))

    def __iter__(self):
        return map(Point, range(len(self)), self.xs.tolist(), self.ys.tolist())

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


#: Entries evaluated per block by the array predicates, so that their
#: temporaries stay small.
_PREDICATE_BLOCK = 1 << 14


def _filtered_signs(det, bound) -> tuple[np.ndarray, np.ndarray]:
    """Signs of det as int8 where |det| > bound decides them, with the
    undecided entries: overflow and NaN fail the test, so they are among
    them."""
    decided = np.abs(det) > bound
    signs = (det > 0).astype(np.int8) - (det < 0)
    return signs, np.flatnonzero(~decided)


def orient_signs(xs, ys, a, b, c) -> np.ndarray:
    """``orient`` of each (a[k], b[k], c[k]), ids into the float arrays xs and
    ys, as int8.  The same static filter, evaluated the same way, decides
    each entry; only the entries it leaves undecided go to ``orient``."""
    out = np.empty(len(a), dtype=np.int8)
    for lo in range(0, len(a), _PREDICATE_BLOCK):
        k = slice(lo, lo + _PREDICATE_BLOCK)
        ia, ib, ic = a[k], b[k], c[k]
        ax, ay, bx, by, cx, cy = xs[ia], ys[ia], xs[ib], ys[ib], xs[ic], ys[ic]
        with np.errstate(over="ignore", invalid="ignore"):
            detleft = (ax - cx) * (by - cy)
            detright = (ay - cy) * (bx - cx)
            det = detleft - detright
            detsum = np.abs(detleft) + np.abs(detright)
            signs, undecided = _filtered_signs(det, _ORIENT_BOUND * detsum)
        for j in undecided.tolist():
            p, q, r = int(ia[j]), int(ib[j]), int(ic[j])
            signs[j] = orient(
                Point(p, float(xs[p]), float(ys[p])),
                Point(q, float(xs[q]), float(ys[q])),
                Point(r, float(xs[r]), float(ys[r])),
            )
        out[k] = signs
    return out


def in_circle_signs(xs, ys, a, b, c, d) -> np.ndarray:
    """``in_circle`` of each (a[k], b[k], c[k], d[k]), ids into the float
    arrays xs and ys, as int8.  The same static filter, evaluated the same
    way, decides each entry; only the entries it leaves undecided go to
    ``_in_circle_exact``."""
    out = np.empty(len(a), dtype=np.int8)
    for lo in range(0, len(a), _PREDICATE_BLOCK):
        k = slice(lo, lo + _PREDICATE_BLOCK)
        ids = a[k], b[k], c[k], d[k]
        with np.errstate(over="ignore", invalid="ignore"):
            dx, dy = xs[ids[3]], ys[ids[3]]
            adx, ady = xs[ids[0]] - dx, ys[ids[0]] - dy
            bdx, bdy = xs[ids[1]] - dx, ys[ids[1]] - dy
            cdx, cdy = xs[ids[2]] - dx, ys[ids[2]] - dy
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
                (np.abs(bdxcdy) + np.abs(cdxbdy)) * alift
                + (np.abs(cdxady) + np.abs(adxcdy)) * blift
                + (np.abs(adxbdy) + np.abs(bdxady)) * clift
            )
            signs, undecided = _filtered_signs(det, _INCIRCLE_BOUND * permanent)
        for j in undecided.tolist():
            pts = [int(i[j]) for i in ids]
            signs[j] = _in_circle_exact(
                *(Point(p, float(xs[p]), float(ys[p])) for p in pts)
            )
        out[k] = signs
    return out


def _cmp_sq3(dy: float, dx: float) -> int:
    """Exact comparison of dy^2 against 3*dx^2."""
    lhs = dy * dy
    rhs = 3.0 * dx * dx
    # Generous filter: only escalate when the doubles are suspiciously close.
    if lhs > rhs * (1 + 1e-9) + 1e-300:
        return 1
    if rhs > lhs * (1 + 1e-9) + 1e-300:
        return -1
    return _cmp_sq3_exact(dy, dx)


def _cmp_sq3_exact(dy: float, dx: float) -> int:
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


def cone_indices(dx, dy) -> np.ndarray:
    """``cone_index_dir`` of each (dx[k], dy[k]) of two 1-D float arrays, as
    int8.  The same float filter decides each steepness test; only the
    entries it leaves undecided are compared exactly."""
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    if np.any((dx == 0.0) & (dy == 0.0)):
        raise DegeneratePairError("degenerate pair")
    with np.errstate(over="ignore"):
        lhs = dy * dy
        rhs = 3.0 * dx * dx
        steep = lhs > rhs * (1 + 1e-9) + 1e-300
        shallow = rhs > lhs * (1 + 1e-9) + 1e-300
    # left undecided by the filter: compare exactly where cone_index_dir
    # compares at all, that is where dy != 0
    for k in np.flatnonzero(~steep & ~shallow & (dy != 0.0)):
        steep[k] = _cmp_sq3_exact(float(dy[k]), float(dx[k])) > 0
    up, flat, right = dy > 0.0, dy == 0.0, dx > 0.0
    out = np.select(
        [up & steep, up, flat, steep],
        [0, np.where(right, 1, 5), np.where(right, 2, 5), 3],
        np.where(right, 2, 4),
    )
    return out.astype(np.int8)


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
    return bisector_in_cone(dx, dy, cone_index_dir(dx, dy))


def bisector_in_cone(dx: float, dy: float, i: int) -> float:
    """Bisector length of direction (dx, dy), known to lie in cone i."""
    ux, uy = CONE_BISECTORS[i]
    return dx * ux + dy * uy


def euclid(p, q) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


# ---------------------------------------------------------------------------
# General position


@dataclass(frozen=True)
class Violation:
    kind: str  # coincident | slope | collinear | cocircular
    ids: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.ids}"


class GeneralPositionError(ValueError):
    def __init__(self, violations: list[Violation]):
        super().__init__(
            "point set violates general position: "
            + ", ".join(str(v) for v in violations[:10])
        )
        self.violations = violations


def check_general_position(ps: PointSet) -> list[Violation]:
    """The coincident points and pairs at slope 0 of the set, as
    ``Violation``s; none when it passes the screen.

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
    xs, ys = ps.xs, ps.ys
    order = np.lexsort((xs, ys))  # stable, so ties in (y, x) keep id order
    violations = []
    for k in np.flatnonzero(ys[order[1:]] == ys[order[:-1]]):
        a, b = int(order[k]), int(order[k + 1])
        kind = "coincident" if xs[a] == xs[b] else "slope"
        violations.append(Violation(kind, (min(a, b), max(a, b))))
    violations.sort(key=lambda v: v.ids)
    return violations
