"""Delaunay triangulation and the neighbourhood queries built on it.

The triangulation itself is produced by Qhull (scipy.spatial.Delaunay) and
then certified exactly by ``certify_delaunay``: a triangulation of the convex
hull whose interior edges all pass one exact in-circle test is the Delaunay
triangulation, so a silent robustness failure in the backend is caught
rather than propagated.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.spatial import Delaunay as _SciPyDelaunay
from scipy.spatial import QhullError

from .geometry import (
    _BISECTORS,
    GeneralPositionError,
    Point,
    PointSet,
    Violation,
    _bisector_lengths,
    check_general_position,
    cone_indices,
    in_circle_signs,
    orient,
    orient_signs,
)


class ConstructionError(RuntimeError):
    """A structural invariant of the construction failed; carries the local
    configuration for diagnosis."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, init=False, eq=False)
class Triangulation:
    """A triangulation of ``points``, held as read-only numpy arrays.

    ``_keys`` are the sorted keys u * n + v of its edges (u, v), u < v, and
    ``_cone`` the cone of u holding v for each key, as int8; ``_tri`` is its
    triangles, an (m, 3) int64 array of sorted triples.  The cone table is
    the one address of a half-edge.  ``_nbr`` holds the far ends of the 2E
    oriented edges grouped by (vertex, cone), clockwise within a group, as
    C ints: group 6p + i is _nbr[_start[6p + i]:_start[6p + i + 1]].
    ``_at`` holds each oriented edge's slot in it: _at[k] of (u, v) of key
    k, _at[len(_keys) + k] of (v, u); ``_slots`` finds them by ``_find``,
    the one key lookup.  _canon[s] is true for the canonical edge
    (_nbr[s], _nbr[s + 1]) of its group.  Scalar readers convert with
    ``tolist``, so no numpy scalar leaves them.

    ``Triangulation(points, keys, tri)`` takes the sorted keys and the
    sorted triples and builds the cone table; ``triangulation_from_triangles``
    derives the keys from a triangle list.  ``edges``, ``triangles`` and
    ``_by_key`` (the edges in key order) are views built on first use."""

    points: PointSet
    _keys: np.ndarray = field(repr=False)
    _cone: np.ndarray = field(repr=False)
    _tri: np.ndarray = field(repr=False)
    _nbr: np.ndarray = field(repr=False)
    _start: np.ndarray = field(repr=False)
    _at: np.ndarray = field(repr=False)
    _canon: np.ndarray = field(repr=False)

    def __init__(self, points: PointSet, keys: np.ndarray, tri: np.ndarray):
        nbr, start, cone, at = _cone_table(points, keys)
        canon = _canonical_mask(tri, keys, cone, at, len(points))
        object.__setattr__(self, "points", points)
        state = zip(
            ("_keys", "_cone", "_tri", "_nbr", "_start", "_at", "_canon"),
            (keys, cone, tri, nbr, start, at, canon),
        )
        for name, a in state:
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @functools.cached_property
    def _by_key(self) -> list[tuple[int, int]]:
        u, v = np.divmod(self._keys, len(self.points))
        return list(zip(u.tolist(), v.tolist()))

    @functools.cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._by_key)

    @functools.cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(*(c.tolist() for c in self._tri.T)))

    def cone(self, p: int, i: int) -> tuple[int, ...]:
        """Neighbours of p in cone i, in clockwise order."""
        lo, hi = self._start[6 * p + i : 6 * p + i + 2].tolist()
        return tuple(self._nbr[lo:hi].tolist())

    def cone_of(self, p: int, q: int) -> int:
        """The cone of p holding its neighbour q."""
        (i,) = cones_of(self, np.array([p]), np.array([q])).tolist()
        if i < 0:
            raise ValueError(f"{q} is not a neighbour of {p}")
        return i

    def is_edge(self, u: int, v: int) -> bool:
        u, v = edge_key(u, v)
        n, keys = len(self.points), self._keys
        if not 0 <= u < v < n:
            return False
        key = u * n + v
        k = int(keys.searchsorted(key))
        return k < len(keys) and int(keys[k]) == key


def _edge_keys(tri: np.ndarray, n: int) -> np.ndarray:
    """Sorted keys u * n + v of the sides (u, v), u < v, of the sorted
    triangles, plus the one edge of a two-point set."""
    keys = [tri[:, a] * n + tri[:, b] for a, b in ((0, 1), (0, 2), (1, 2))]
    if n == 2:
        keys.append(np.ones(1, dtype=np.int64))
    keys = np.sort(np.concatenate(keys))
    return keys[np.diff(keys, prepend=-1) != 0]


#: Oriented edges classified per block in ``_cone_table``, and triangles
#: per block in ``_canonical_mask``, so that the temporaries stay small.
_CLASSIFY_BLOCK = 1 << 13


def _cone_table(ps: PointSet, keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Classify each edge (u, v) of key u * n + v once, and group the far
    ends of the oriented edges by (vertex, cone), clockwise within a group;
    returns the groups, their starts, the cone of u holding v per key, and
    ``at``, the table slot of each oriented edge: ``at[k]`` of (u, v) of key
    k, ``at[len(keys) + k]`` of (v, u).

    One float sort orders the table: the group 6p + i plus a fraction in
    [0.26, 0.74], 0.5 + 0.4 t with the turn t (the tangent of the clockwise
    angle from the cone's bisector) clipped to [-0.6, 0.6], and NaN and
    infinities clamped into it.  While 6n < 2**51 the rounded sum stays
    within its group, so the groups are contiguous; rounding is monotone,
    so two turns are never inverted, only near-equal ones merged.  Exact
    ``orient`` then checks each consecutive pair.  A cone spans 60 degrees,
    so orientation orders a group totally, and a group is re-sorted by it,
    with its slots, when a pair fails: the table is the exact clockwise
    order whatever the float key merged.

    The reverse half-edge (v, u) takes the opposite cone and the same key,
    as classifying it would: its differences and the opposite bisector are
    exact negations, so its steepness test and the key's products see the
    same floats, up to the sign of a zero."""
    n, m = len(ps), len(keys)
    u, v = np.divmod(keys, n)
    xs, ys = ps.xs, ps.ys
    cone = np.empty(m, dtype=np.int8)
    turn = np.empty(m)
    for k in range(0, m, _CLASSIFY_BLOCK):
        block = slice(k, k + _CLASSIFY_BLOCK)
        s, d = u[block], v[block]
        with np.errstate(all="ignore"):
            dx, dy = xs[d] - xs[s], ys[d] - ys[s]
            cone[block] = c = cone_indices(dx, dy)
            ux, uy = _BISECTORS[:, c]
            turn[block] = (dx * uy - dy * ux) / _bisector_lengths(dx, dy, c)
    # fmin and fmax take a NaN to the bound
    turn = 0.5 + 0.4 * np.fmax(np.fmin(turn, 0.6), -0.6)
    key = np.concatenate([6 * u + cone, 6 * v + (cone + 3) % 6], dtype=np.float64)
    key[:m] += turn
    key[m:] += turn
    del turn
    slot = np.argsort(key).astype(np.intc)
    group = key[slot].astype(np.intp)
    del key
    nbr = np.concatenate([v, u]).astype(np.intc)[slot]
    del u, v
    start = np.zeros(6 * n + 1, dtype=np.intc)
    np.cumsum(np.bincount(group, minlength=6 * n), out=start[1:])
    # v precedes w clockwise iff w lies right of apex -> v
    k = np.flatnonzero(group[1:] == group[:-1])
    clockwise = orient_signs(xs, ys, group[k] // 6, nbr[k], nbr[k + 1]) < 0
    for g in np.unique(group[k[~clockwise]]).tolist():
        lo, hi = start[g], start[g + 1]
        apex = ps[g // 6]
        cw = functools.cmp_to_key(lambda e, f: orient(apex, ps[e[0]], ps[f[0]]))
        pairs = sorted(zip(nbr[lo:hi].tolist(), slot[lo:hi].tolist()), key=cw)
        nbr[lo:hi], slot[lo:hi] = np.array(pairs, dtype=np.intc).T
    at = np.empty_like(slot)
    at[slot] = np.arange(len(slot), dtype=np.intc)
    return nbr, start, cone, at


def _canonical_mask(
    triangles: np.ndarray, keys: np.ndarray, cone: np.ndarray, at: np.ndarray, n: int
) -> np.ndarray:
    """Entry k is true when the table's slots k and k + 1 lie in one
    (vertex, cone) group and form a triangle with its vertex.

    Each triangle side is looked up once among the edge keys by ``_find``, a
    block of triangles at a time; a side missing from the edges leaves its
    two corners without a slot.  Each corner's two sides are oriented edges
    out of it, at slots ``at``; when those slots are adjacent and the two
    edges share a cone, the lower slot is canonical.  No coordinate is read.
    A row that is not a sorted triple of distinct ids names no triangle."""
    m = len(keys)
    mask = np.zeros(2 * m, dtype=bool)
    # each corner's two sides, as oriented edges out of it: a -> b and
    # a -> c, b -> a and b -> c, c -> a and c -> b.  ``rev`` holds the
    # slots of the edges that run against their keys; two edges share a
    # cone when their keys' cones differ by ``turn``, 3 where only one
    # runs against its key
    fwd, rev = at[:m], at[m:]
    for lo in range(0, len(triangles), _CLASSIFY_BLOCK):
        a, b, c = triangles[lo : lo + _CLASSIFY_BLOCK].T
        rows = (a < b) & (b < c)
        a, b, c = a[rows], b[rows], c[rows]
        side = np.concatenate([a * n + b, a * n + c, b * n + c])
        ab, ac, bc = _find(keys, side).reshape(3, -1)
        for e, f, s, t, turn in (
            (ab, ac, fwd, fwd, 0), (ab, bc, rev, fwd, 3), (ac, bc, rev, rev, 0)
        ):
            known = (e >= 0) & (f >= 0)
            e, f = e[known], f[known]
            s, t = s[e], t[f]
            adjacent = (np.abs(s - t) == 1) & ((cone[e] + turn) % 6 == cone[f])
            mask[np.minimum(s, t)[adjacent]] = True
    return mask


def certify_delaunay(ps: PointSet, triangles) -> None:
    """Prove exactly that ``triangles`` is the Delaunay triangulation of ps.

    The first checks prove a triangulation of the convex hull: every
    triangle is non-degenerate and, once oriented counter-clockwise, each
    directed edge borders at most one of them; every point is a vertex; the
    directed edges without a twin are exactly the hull's; and there are
    2n - 2 - h triangles for h hull points.  By the Delaunay lemma (de Berg
    et al., *Computational Geometry*, ch. 9) such a triangulation is the
    Delaunay triangulation once every interior edge is locally Delaunay, so
    one in-circle test per interior edge finishes the proof.  An opposite
    vertex inside raises ``ConstructionError``; with none inside, one on
    the circle means four points on an empty circle, which leave the
    Delaunay triangulation non-unique, and raises ``GeneralPositionError``.

    One stable sort of the directed edges, by undirected edge and then
    direction, finds both the repeated directed edges (equal neighbours) and
    the twins (neighbours that differ in direction only).  The predicates
    run as array filters with the exact fallback, and each failure is the
    first one a scan of the triangles in order would meet.
    """
    n = len(ps)
    xs, ys = ps.xs, ps.ys
    tri = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    a, b, c = tri.T
    s = orient_signs(xs, ys, a, b, c)
    b, c = np.where(s < 0, c, b), np.where(s < 0, b, c)
    # the directed edges u -> v with the apex w on their left, in scan order
    u = np.stack([a, b, c], axis=1).ravel()
    v = np.stack([b, c, a], axis=1).ravel()
    w = np.stack([c, a, b], axis=1).ravel()
    del a, b, c
    # one stable sort by undirected edge, then direction: a repeated
    # directed edge meets its copies, and twins differ in the low bit only
    key = 2 * (np.minimum(u, v) * n + np.maximum(u, v)) + (u > v)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    del key
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    first = repeats.min() if len(repeats) else len(ranked)
    degenerate = np.flatnonzero(s == 0)
    if len(degenerate) and 3 * degenerate[0] <= first:
        bad = tuple(tri[degenerate[0]].tolist())
        raise ConstructionError(f"triangle {bad} is degenerate")
    if len(repeats):
        edge = (int(u[first]), int(v[first]))
        raise ConstructionError(f"directed edge {edge} borders two triangles")
    missing = np.flatnonzero(np.bincount(u, minlength=n)[:n] == 0)[:10].tolist()
    if missing:
        raise ConstructionError(f"points in no triangle: {tuple(missing)}")
    hull = np.array(_convex_hull(xs, ys), dtype=np.int64)
    h = len(hull)
    # with no repeats the keys are distinct, so twins are neighbours: the
    # pairs of one undirected edge
    pair = np.flatnonzero(ranked[1:] // 2 == ranked[:-1] // 2)
    twin = np.full(len(ranked), -1, dtype=np.intp)
    twin[order[pair]], twin[order[pair + 1]] = order[pair + 1], order[pair]
    del order, ranked, pair
    lone = twin < 0
    if not np.array_equal(
        np.sort(u[lone] * n + v[lone]), np.unique(hull * n + np.roll(hull, -1))
    ):
        raise ConstructionError("the triangulation's boundary is not the convex hull")
    if len(tri) != 2 * n - 2 - h:
        raise ConstructionError(f"{len(tri)} triangles for n={n}, h={h}")
    inner = np.flatnonzero(~lone & (u < v))
    u, v, w, x = u[inner], v[inner], w[inner], w[twin[inner]]
    del twin, lone, inner
    s = in_circle_signs(xs, ys, u, v, w, x)
    inside = np.flatnonzero(s > 0)
    if len(inside):
        j = inside[0]
        uu, vv, ww, xx = (int(e[j]) for e in (u, v, w, x))
        raise ConstructionError(
            f"edge {(uu, vv)} is not Delaunay: point {xx} inside the "
            f"circumcircle of {(uu, vv, ww)}"
        )
    cocircular = [
        Violation("cocircular", tuple(sorted(int(e[j]) for e in (u, v, w, x))))
        for j in np.flatnonzero(s == 0).tolist()
    ]
    if cocircular:
        raise GeneralPositionError(sorted(cocircular, key=lambda c: c.ids))


def _convex_hull(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Ids of the hull's points counter-clockwise, those inside its edges
    included (Andrew's monotone chain on exact ``orient``).

    The chain skips the points that an Akl-Toussaint test places strictly
    inside the polygon through the extreme points in eight directions.  The
    test is exact ``orient`` against each polygon edge: a point strictly
    left of every edge of a closed polygon through points of the set winds
    inside it, so it lies strictly inside their hull."""
    ids = np.arange(len(xs))
    if len(xs):
        with np.errstate(over="ignore"):
            d, e = xs + ys, ys - xs
        # the extreme points west, south-west, ..., north-west, in
        # counter-clockwise order
        ring = [int(np.argmin(z)) for z in (xs, d, ys, e)]
        ring += [int(np.argmax(z)) for z in (xs, d, ys, e)]
        poly = [p for k, p in enumerate(ring) if p != ring[k - 1]]
        # a polygon through two points has no inside
        if len(set(poly)) > 2:
            inside = ids
            for k in range(len(poly)):
                ends = [np.full(len(inside), p) for p in (poly[k - 1], poly[k])]
                inside = inside[orient_signs(xs, ys, *ends, inside) > 0]
            ids = np.setdiff1d(ids, inside, assume_unique=True)
    ids = ids[np.lexsort((ys[ids], xs[ids]))]
    P = list(map(Point, ids.tolist(), xs[ids].tolist(), ys[ids].tolist()))

    def chain(points):
        out: list[Point] = []
        for p in points:
            while len(out) >= 2 and orient(out[-2], out[-1], p) < 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return [p.id for p in chain(P) + chain(reversed(P))]


def build_dt(ps: PointSet) -> Triangulation:
    """Delaunay triangulation of the point set.

    Coincident points and slope-0 pairs are rejected up front by
    ``check_general_position``.  The two degeneracies that leave no unique
    Delaunay triangulation are rejected exactly afterwards: a set that is
    all collinear when Qhull fails, and four points on an empty circle in
    ``certify_delaunay``.  Collinear triples, and cocircular points with a
    point inside their circle, are accepted.
    """
    n = len(ps)
    violations = check_general_position(ps)
    if violations:
        raise GeneralPositionError(violations)
    if n < 3:
        return triangulation_from_triangles(ps, ())
    try:
        tri = _SciPyDelaunay(ps.coords())
    except QhullError as exc:
        # Points 0 and 1 are distinct once the slope screen has passed.
        a, b = ps[0], ps[1]
        if all(orient(a, b, ps[k]) == 0 for k in range(2, n)):
            raise GeneralPositionError(
                [Violation("collinear", tuple(range(n)))]
            ) from exc
        reason = str(exc).partition("\n")[0]
        raise ConstructionError(
            f"Qhull failed on {n} points that are not all collinear: {reason}"
        ) from exc
    triangles = np.sort(tri.simplices, axis=1)
    del tri
    certify_delaunay(ps, triangles)
    return triangulation_from_triangles(ps, triangles)


def triangulation_from_triangles(ps: PointSet, triangles) -> Triangulation:
    """Assemble a Triangulation from an explicit triangle list or (m, 3) int
    array, each row sorted on the way in: its edges are the triangles'
    sides, plus the one edge of a two-point set.

    No Delaunay property is checked here; ``build_dt`` checks before it
    assembles, and hand-built fixtures and negative controls need not."""
    tri = np.sort(np.asarray(triangles, dtype=np.int64).reshape(-1, 3), axis=1)
    return Triangulation(ps, _edge_keys(tri, len(ps)), tri)


# ---------------------------------------------------------------------------
# Cone neighbourhoods and canonical subgraphs


@dataclass(frozen=True)
class ConeNeighbourhood:
    apex: int
    cone: int
    vertices: tuple[int, ...]  # clockwise order within the cone
    canonical_edges: tuple[tuple[int, int], ...]  # consecutive adjacent pairs


def cone_neighbourhood(T: Triangulation, p: int, i: int) -> ConeNeighbourhood:
    lo, hi = T._start[6 * p + i : 6 * p + i + 2].tolist()
    ring = T._nbr[lo : hi + 1].tolist()  # the group and the entry after it
    canon = tuple(
        (ring[k], ring[k + 1]) for k in np.flatnonzero(T._canon[lo:hi]).tolist()
    )
    return ConeNeighbourhood(
        apex=p, cone=i, vertices=tuple(ring[: hi - lo]), canonical_edges=canon
    )


class CanonicalSubgraph(NamedTuple):
    # one subgraph as Python values, for the witness paths, the
    # counterexamples and the scalar entry points; the builder and the
    # audits read ``canonical_subgraphs``' arrays instead
    apex: int
    anchor: int
    cone: int
    vertices: tuple[int, ...]  # clockwise order
    edges: tuple[tuple[int, int], ...]

    @property
    def first_vertex(self) -> int:
        return self.vertices[0]

    @property
    def last_vertex(self) -> int:
        return self.vertices[-1]

    def is_path(self) -> bool:
        """True if the edges connect the vertex sequence into one simple
        path (vacuously true for a single vertex)."""
        expected = tuple(zip(self.vertices, self.vertices[1:]))
        return self.edges == expected


def canonical_subgraph(T: Triangulation, p: int, r: int) -> CanonicalSubgraph:
    """Subsequence of p's cone neighbourhood at bisector distance >= [pr],
    with its surviving canonical edges: the one-edge form of
    ``canonical_subgraphs``."""
    if not T.is_edge(p, r):
        raise ValueError(f"({p},{r}) is not a triangulation edge")
    (b,) = canonical_subgraphs(T, np.array([p]), np.array([r]))
    s = b.canonical[: b.edges[0]]
    return CanonicalSubgraph(
        apex=p, anchor=r, cone=int(b.cone[0]),
        vertices=tuple(b.members[: b.kept[0]].tolist()),
        edges=tuple(zip(T._nbr[s].tolist(), T._nbr[s + 1].tolist())),
    )


def edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    """The ends u and v of a collection of pairs (u, v), as two int arrays
    in its iteration order."""
    uv = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges))
    return uv[0::2], uv[1::2]


#: Oriented edges per block of ``canonical_subgraphs``' ragged scan: a
#: block's temporaries span its vertices' cones.
_SCAN_BLOCK = 1 << 12


def _ragged(lo: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot of the runs [lo[k], lo[k] + size[k]) in turn, with its run k."""
    owner = np.repeat(np.arange(len(lo)), size)
    first = np.cumsum(size) - size
    return owner, np.arange(len(owner)) + (lo - first)[owner]


def _find(keys: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The index of each entry of ``key`` in the sorted array ``keys``, or -1
    where it is absent: the one key lookup.  The needles are searched in
    sorted order, which keeps the search in cache, and the answers scattered
    back."""
    order = np.argsort(key)
    ranked = key[order]
    at = np.searchsorted(keys, ranked)
    hit = np.flatnonzero(at < len(keys))
    hit = hit[keys[at[hit]] == ranked[hit]]
    out = np.full(len(key), -1, dtype=np.intp)
    out[order[hit]] = at[hit]
    return out


def _edge_index(T: Triangulation, p, q) -> tuple[np.ndarray, ...]:
    """The pairs k of (p[k], q[k]), ids below n, that are edges, with the
    index e of each one's key and whether it is given as (high, low)."""
    # an int64 n keeps the keys of C int ids from wrapping
    n = np.int64(len(T.points))
    e = _find(T._keys, np.minimum(p, q) * n + np.maximum(p, q))
    k = np.flatnonzero(e >= 0)
    return k, e[k], p[k] > q[k]


def cones_of(T: Triangulation, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``cone_of`` for arrays of pairs of ids below n: the cone of p[k]
    holding q[k], or -1 where q[k] is not a neighbour of p[k].  The edge is
    found by its key, and a pair given as (high, low) takes the opposite of
    the edge's cone."""
    k, e, high = _edge_index(T, p, q)
    out = np.full(len(p), -1, dtype=np.int8)
    out[k] = (T._cone[e] + 3 * high) % 6
    return out


def _slots(T: Triangulation, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The cone-table slot of each half-edge (p[k], q[k]) of ids below n, or
    -1 where it is no edge."""
    k, e, high = _edge_index(T, p, q)
    out = np.full(len(p), -1, dtype=np.intp)
    out[k] = T._at[e + len(T._keys) * high]
    return out


class SubgraphBlock(NamedTuple):
    """The canonical subgraphs of a block of oriented edges (p[k], r[k]), as
    arrays.  ``members`` holds each subgraph's ``kept`` vertices in turn,
    clockwise; ``canonical`` holds each subgraph's ``edges`` surviving
    canonical edges in turn, clockwise, as slots s of the cone table, the edge
    being (_nbr[s], _nbr[s + 1]).  ``first_edge`` and ``last_edge`` are such
    slots too, -1 for a subgraph without edges."""

    p: np.ndarray
    r: np.ndarray
    cone: np.ndarray
    kept: np.ndarray
    members: np.ndarray
    first: np.ndarray  # first and last kept member
    last: np.ndarray
    edges: np.ndarray
    canonical: np.ndarray
    first_edge: np.ndarray
    last_edge: np.ndarray

    @property
    def is_path(self) -> np.ndarray:
        # every surviving edge joins two members adjacent in the cone, so
        # there are at most kept - 1 of them, and kept - 1 make a path
        return self.edges == self.kept - 1


def canonical_subgraphs(
    T: Triangulation, u: np.ndarray, v: np.ndarray, cones: np.ndarray | None = None
) -> Iterator[SubgraphBlock]:
    """The canonical subgraphs of (u[k], v[k]) and then of (v[k], u[k]) for
    each triangulation edge (u[k], v[k]), in blocks of ``_SCAN_BLOCK``
    oriented edges, so that no array spans all of them.  ``cones``, when
    given, is ``cones_of(T, u, v)`` of the caller; the cone of v[k] holding
    u[k] is the opposite one.

    This is the one place the keep rule is written: a member is kept when
    its bisector length, the float that ``bisector_in_cone`` computes, is at
    least the anchor's, or when it is the anchor itself; a canonical edge
    survives when both ends are kept."""
    nbr, start, canon = T._nbr, T._start, T._canon
    xs, ys = T.points.xs, T.points.ys
    step = _SCAN_BLOCK // 2
    for k in range(0, len(u), step):
        a, b = u[k : k + step], v[k : k + step]
        p, r = np.stack([a, b], axis=1).ravel(), np.stack([b, a], axis=1).ravel()
        c = cones_of(T, a, b) if cones is None else cones[k : k + step]
        if (c < 0).any():
            j = int(np.argmax(c < 0))
            raise ValueError(f"({a[j]},{b[j]}) is not a triangulation edge")
        cone = np.stack([c, (c + 3) % 6], axis=1).ravel()
        g = 6 * p + cone
        lo = start[g]
        size = start[g + 1] - lo
        owner, slot = _ragged(lo, size)
        w, c = nbr[slot], cone[owner]
        px, py = xs[p], ys[p]
        with np.errstate(all="ignore"):
            length = _bisector_lengths(xs[w] - px[owner], ys[w] - py[owner], c)
            threshold = _bisector_lengths(xs[r] - px, ys[r] - py, cone)
        keep = (length >= threshold[owner]) | (w == r[owner])
        # a group's last slot is never canonical, so no edge joins two groups
        survive = keep & canon[slot]
        survive[:-1] &= keep[1:]
        first_slot = np.cumsum(size) - size
        kept = np.add.reduceat(keep, first_slot, dtype=np.intp)
        count = np.add.reduceat(survive, first_slot, dtype=np.intp)
        members, canonical = w[keep], slot[survive]
        at = np.cumsum(kept) - kept
        first_edge = np.cumsum(count) - count
        padded = np.append(canonical, -1)  # indexable where count is 0
        yield SubgraphBlock(
            p, r, cone, kept, members, members[at], members[at + kept - 1],
            count, canonical,
            np.where(count > 0, padded[first_edge], -1),
            np.where(count > 0, padded[first_edge + count - 1], -1),
        )


def extremal_ends(T: Triangulation, b: SubgraphBlock, rows: np.ndarray) -> list:
    """The last edge (y, z) of each subgraph ``rows`` of b, which must have
    edges, and then its first edge reversed: each as arrays y and z and the
    cone j of z holding y."""
    nbr = T._nbr
    last, first = b.last_edge[rows], b.first_edge[rows]
    ends = [(nbr[last], nbr[last + 1]), (nbr[first + 1], nbr[first])]
    return [(y, z, cones_of(T, z, y)) for y, z in ends]
