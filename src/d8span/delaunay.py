"""Delaunay triangulation and the neighbourhood queries built on it.

The triangulation itself is produced by Qhull (scipy.spatial.Delaunay); an
independent brute-force oracle (`dt_oracle`) recomputes the edge set from the
empty-circumcircle characterisation and is used by the test suite to validate
the construction.  Every triangle of the returned triangulation is also
verified against the exact in-circle predicate, so a silent robustness
failure in the backend is caught rather than propagated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay as _SciPyDelaunay
from scipy.spatial import QhullError

from .geometry import (
    GeneralPositionError,
    PointSet,
    Violation,
    bisector_in_cone,
    check_general_position,
    circumcircle,
    cone_index_dir,
    cone_indices,
    in_circle,
    orient,
)


class ConstructionError(RuntimeError):
    """A structural invariant of the construction failed; carries the local
    configuration for diagnosis."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Triangulation:
    points: PointSet
    edges: frozenset[tuple[int, int]]
    triangles: tuple[tuple[int, int, int], ...]  # sorted triples
    # Cone table: the far ends of the 2E oriented edges grouped by (vertex,
    # cone), clockwise within a group; group 6p + i is
    # _nbr[_start[6p + i]:_start[6p + i + 1]].
    _nbr: np.ndarray = field(init=False, repr=False, compare=False)
    _start: np.ndarray = field(init=False, repr=False, compare=False)
    _triangle_set: frozenset[tuple[int, int, int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        nbr, start = _cone_table(self.points, self.edges)
        object.__setattr__(self, "_nbr", nbr)
        object.__setattr__(self, "_start", start)
        object.__setattr__(self, "_triangle_set", frozenset(self.triangles))

    def cone(self, p: int, i: int) -> tuple[int, ...]:
        """Neighbours of p in cone i, in clockwise order."""
        g = 6 * p + i
        return tuple(self._nbr[self._start[g] : self._start[g + 1]].tolist())

    def is_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def has_triangle(self, a: int, b: int, c: int) -> bool:
        return tuple(sorted((a, b, c))) in self._triangle_set


#: Oriented edges classified per block in ``_cone_table``, so that the
#: float temporaries stay small.
_CLASSIFY_BLOCK = 1 << 14


def _cone_table(ps: PointSet, edges) -> tuple[np.ndarray, np.ndarray]:
    """Classify each oriented edge's cone once and group the far ends by
    (vertex, cone).  A cone spans 60 degrees, so the exact orientation test
    orders each group clockwise."""
    n, m = len(ps), len(edges)
    ends = np.fromiter(
        itertools.chain.from_iterable(edges), dtype=np.int32, count=2 * m
    ).reshape(m, 2)
    src = ends.T.ravel()  # u of every (u, v), then v
    dst = ends[:, ::-1].T.ravel()
    del ends
    xs, ys = np.asarray(ps.xs), np.asarray(ps.ys)
    group = 6 * src
    for k in range(0, 2 * m, _CLASSIFY_BLOCK):
        block = slice(k, k + _CLASSIFY_BLOCK)
        s, d = src[block], dst[block]
        with np.errstate(over="ignore"):
            group[block] += cone_indices(xs[d] - xs[s], ys[d] - ys[s])
    del src
    nbr = dst[np.argsort(group, kind="stable")]
    start = np.zeros(6 * n + 1, dtype=np.int32)
    np.cumsum(np.bincount(group, minlength=6 * n), out=start[1:])
    for g in np.flatnonzero(np.diff(start) > 1).tolist():
        lo, hi = start[g], start[g + 1]
        apex = ps[g // 6]
        # v precedes w clockwise iff w lies right of apex -> v
        cw = functools.cmp_to_key(lambda v, w: orient(apex, ps[v], ps[w]))
        nbr[lo:hi] = sorted(nbr[lo:hi].tolist(), key=cw)
    return nbr, start


def _verify_delaunay_triangles(ps: PointSet, triangles) -> None:
    """Exact empty-circle check of every triangle against every point."""
    n = len(ps)
    xs = np.asarray(ps.xs)
    ys = np.asarray(ps.ys)
    for tri in triangles:
        a, b, c = (ps[i] for i in tri)
        if orient(a, b, c) < 0:
            b, c = c, b
        # Float circumcircle with margin; escalate borderline points.
        cx, cy, r2 = circumcircle(a, b, c)
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        suspects = np.flatnonzero(d2 <= r2 * (1 + 1e-9))
        for m in suspects:
            m = int(m)
            if m in tri:
                continue
            s = in_circle(a, b, c, ps[m])
            if s > 0:
                raise ConstructionError(
                    f"triangle {tri} is not Delaunay: point {m} inside circumcircle"
                )
            if s == 0:
                raise GeneralPositionError(
                    [Violation("cocircular", tuple(sorted(tri + (m,))))]
                )


def build_dt(ps: PointSet) -> Triangulation:
    """Delaunay triangulation of the point set.

    Coincident points and slope-0 pairs are rejected up front by
    ``check_general_position``.  The two degeneracies that leave no unique
    Delaunay triangulation are rejected exactly afterwards: a set that is
    all collinear when Qhull fails, and four points on an empty circle in
    the exact per-triangle verification.  Collinear triples, and cocircular
    points with a point inside their circle, are accepted.
    """
    n = len(ps)
    report = check_general_position(ps)
    if not report.ok:
        raise GeneralPositionError(report.violations)
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
    if tri.coplanar.size:
        ids = tuple(int(i) for i in tri.coplanar[:, 0])
        raise GeneralPositionError([Violation("cocircular", ids)])
    triangles = tuple(
        tuple(sorted(int(v) for v in simplex)) for simplex in tri.simplices
    )
    _verify_delaunay_triangles(ps, triangles)
    return triangulation_from_triangles(ps, triangles)


def triangulation_from_triangles(ps: PointSet, triangles) -> Triangulation:
    """Assemble a Triangulation from an explicit triangle list: its edges are
    the triangles' sides, plus the one edge of a two-point set.

    No Delaunay property is checked here; ``build_dt`` checks before it
    assembles, and hand-built fixtures and negative controls need not."""
    tris = tuple(tuple(sorted(t)) for t in triangles)
    edges = set()
    for a, b, c in tris:
        edges.update([(a, b), (a, c), (b, c)])
    if len(ps) == 2:
        edges.add((0, 1))
    return Triangulation(ps, frozenset(edges), tris)


def dt_oracle(ps: PointSet, *, cap: int = 1000) -> Triangulation:
    """Independent brute-force Delaunay edge set.

    An edge (p, q) is included iff some circle through p and q is empty of
    the other points, decided by testing the circumcircle of every triple
    (p, q, r).  Quartic; refuses inputs above ``cap`` points.
    """
    n = len(ps)
    if n > cap:
        raise ValueError(f"dt_oracle cap exceeded: {n} > {cap}")
    if n < 3:
        return triangulation_from_triangles(ps, ())
    xs = np.asarray(ps.xs)
    ys = np.asarray(ps.ys)
    edges = set()
    for p, q in itertools.combinations(range(n), 2):
        a, b = ps[p], ps[q]
        for r in range(n):
            if r == p or r == q:
                continue
            c = ps[r]
            o = orient(a, b, c)
            if o == 0:
                continue
            aa, bb, cc = (a, b, c) if o > 0 else (a, c, b)
            ccx, ccy, r2 = circumcircle(aa, bb, cc)
            d2 = (xs - ccx) ** 2 + (ys - ccy) ** 2
            inside = np.flatnonzero(d2 < r2 * (1 + 1e-9))
            ok = True
            for m in inside:
                m = int(m)
                if m in (p, q, r):
                    continue
                if in_circle(aa, bb, cc, ps[m]) >= 0:
                    ok = False
                    break
            if ok:
                edges.add((p, q))
                break
    # Triangles: triples whose three edges are all present and whose
    # circumcircle is empty.
    triangles = []
    for a, b, c in itertools.combinations(range(n), 3):
        if (a, b) in edges and (a, c) in edges and (b, c) in edges:
            pa, pb, pc = ps[a], ps[b], ps[c]
            o = orient(pa, pb, pc)
            if o == 0:
                continue
            if o < 0:
                pb, pc = pc, pb
            empty = True
            for m in range(n):
                if m in (a, b, c):
                    continue
                if in_circle(pa, pb, pc, ps[m]) > 0:
                    empty = False
                    break
            if empty:
                triangles.append((a, b, c))
    return Triangulation(ps, frozenset(edges), tuple(triangles))


# ---------------------------------------------------------------------------
# Cone neighbourhoods and canonical subgraphs


@dataclass(frozen=True)
class ConeNeighbourhood:
    apex: int
    cone: int
    vertices: tuple[int, ...]  # clockwise order within the cone
    canonical_edges: tuple[tuple[int, int], ...]  # consecutive adjacent pairs


def cone_neighbourhood(T: Triangulation, p: int, i: int) -> ConeNeighbourhood:
    vertices = T.cone(p, i)
    canon = tuple(
        (u, v) for u, v in zip(vertices, vertices[1:]) if T.has_triangle(p, u, v)
    )
    return ConeNeighbourhood(apex=p, cone=i, vertices=vertices, canonical_edges=canon)


@dataclass(frozen=True)
class CanonicalSubgraph:
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
    with its surviving canonical edges."""
    if not T.is_edge(p, r):
        raise ValueError(f"({p},{r}) is not a triangulation edge")
    xs, ys = T.points.xs, T.points.ys
    px, py = xs[p], ys[p]
    dx, dy = xs[r] - px, ys[r] - py
    i = cone_index_dir(dx, dy)
    nb = cone_neighbourhood(T, p, i)
    threshold = bisector_in_cone(dx, dy, i)
    keep = [
        v
        for v in nb.vertices
        if v == r or bisector_in_cone(xs[v] - px, ys[v] - py, i) >= threshold
    ]
    keep_set = set(keep)
    edges = tuple(
        (u, v)
        for u, v in nb.canonical_edges
        if u in keep_set and v in keep_set
    )
    return CanonicalSubgraph(
        apex=p, anchor=r, cone=i, vertices=tuple(keep), edges=edges
    )
