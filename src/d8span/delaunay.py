"""Delaunay triangulation and the neighbourhood queries built on it.

The triangulation itself is produced by Qhull (scipy.spatial.Delaunay) and
then certified exactly by ``certify_delaunay``: a triangulation of the convex
hull whose interior edges all pass one exact in-circle test is the Delaunay
triangulation, so a silent robustness failure in the backend is caught
rather than propagated.
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
    # _nbr[_start[6p + i]:_start[6p + i + 1]].  _canon[k] marks the
    # canonical edge (_nbr[k], _nbr[k + 1]) of its group.
    _nbr: np.ndarray = field(init=False, repr=False, compare=False)
    _start: np.ndarray = field(init=False, repr=False, compare=False)
    _canon: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nbr, start = _cone_table(self.points, self.edges)
        object.__setattr__(self, "_nbr", nbr)
        object.__setattr__(self, "_start", start)
        object.__setattr__(self, "_canon", _canonical_mask(self.triangles, nbr, start))

    def cone(self, p: int, i: int) -> tuple[int, ...]:
        """Neighbours of p in cone i, in clockwise order."""
        g = 6 * p + i
        return tuple(self._nbr[self._start[g] : self._start[g + 1]].tolist())

    def cone_sizes(self) -> np.ndarray:
        """Number of neighbours in each cone, at index 6p + i."""
        return np.diff(self._start)

    def is_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges


#: Oriented edges classified per block in ``_cone_table`` and
#: ``_canonical_mask``, so that the temporaries stay small.
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


#: Below this n, triangle keys (a*n + b)*n + c and n**3 fit in int64.
_INT64_KEYS = 1 << 21


def _canonical_mask(triangles, nbr: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Entry k is true when nbr[k] and nbr[k + 1] lie in one (vertex, cone)
    group and form a triangle with its vertex.  Membership is a lookup among
    the sorted keys of the triangles, so no coordinate is read."""
    n = (len(start) - 1) // 6
    dtype = np.int64 if n < _INT64_KEYS else object
    t = np.array(triangles, dtype=dtype).reshape(-1, 3)
    # n**3 exceeds every key, so each search lands inside the array
    keys = np.append(np.sort((t[:, 0] * n + t[:, 1]) * n + t[:, 2]), n**3)
    mask = np.zeros(len(nbr), dtype=bool)
    for lo in range(0, len(nbr) - 1, _CLASSIFY_BLOCK):
        k = np.arange(lo, min(lo + _CLASSIFY_BLOCK, len(nbr) - 1))
        g = np.searchsorted(start, k, side="right") - 1
        tri = np.sort(np.stack([g // 6, nbr[k], nbr[k + 1]]).astype(dtype), axis=0)
        q = (tri[0] * n + tri[1]) * n + tri[2]
        mask[k] = (keys[np.searchsorted(keys, q)] == q) & (start[g + 1] > k + 1)
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
    """
    n, P = len(ps), list(ps)
    left: dict[tuple[int, int], int] = {}  # directed edge -> apex on its left
    for tri in triangles:
        a, b, c = tri
        s = orient(P[a], P[b], P[c])
        if s == 0:
            raise ConstructionError(f"triangle {tri} is degenerate")
        if s < 0:
            b, c = c, b
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            if (u, v) in left:
                raise ConstructionError(
                    f"directed edge {(u, v)} borders two triangles"
                )
            left[u, v] = w
    missing = sorted(set(range(n)).difference(u for u, _ in left))
    if missing:
        raise ConstructionError(f"points in no triangle: {tuple(missing[:10])}")
    hull = _convex_hull(P)
    h = len(hull)
    boundary = {e for e in left if e[::-1] not in left}
    if boundary != set(zip(hull, hull[1:] + hull[:1])):
        raise ConstructionError("the triangulation's boundary is not the convex hull")
    if len(triangles) != 2 * n - 2 - h:
        raise ConstructionError(f"{len(triangles)} triangles for n={n}, h={h}")
    cocircular = []
    for (u, v), w in left.items():
        x = left.get((v, u))
        if u > v or x is None:
            continue
        s = in_circle(P[u], P[v], P[w], P[x])
        if s > 0:
            raise ConstructionError(
                f"edge {(u, v)} is not Delaunay: point {x} inside the "
                f"circumcircle of {(u, v, w)}"
            )
        if s == 0:
            cocircular.append(Violation("cocircular", tuple(sorted((u, v, w, x)))))
    if cocircular:
        raise GeneralPositionError(sorted(cocircular, key=lambda c: c.ids))


def _convex_hull(P) -> list[int]:
    """Ids of the hull's points counter-clockwise, those inside its edges
    included (Andrew's monotone chain on exact ``orient``)."""
    order = sorted(range(len(P)), key=lambda i: (P[i].x, P[i].y))

    def chain(ids):
        out: list[int] = []
        for i in ids:
            while len(out) >= 2 and orient(P[out[-2]], P[out[-1]], P[i]) < 0:
                out.pop()
            out.append(i)
        return out[:-1]

    return chain(order) + chain(reversed(order))


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
    triangles = tuple(map(tuple, np.sort(tri.simplices, axis=1).tolist()))
    certify_delaunay(ps, triangles)
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


# ---------------------------------------------------------------------------
# Cone neighbourhoods and canonical subgraphs


@dataclass(frozen=True)
class ConeNeighbourhood:
    apex: int
    cone: int
    vertices: tuple[int, ...]  # clockwise order within the cone
    canonical_edges: tuple[tuple[int, int], ...]  # consecutive adjacent pairs


def cone_neighbourhood(T: Triangulation, p: int, i: int) -> ConeNeighbourhood:
    lo, hi = T._start[6 * p + i], T._start[6 * p + i + 1]
    ring = T._nbr[lo : hi + 1].tolist()  # the group and the entry after it
    canon = tuple(
        (ring[k], ring[k + 1]) for k, c in enumerate(T._canon[lo:hi].tolist()) if c
    )
    return ConeNeighbourhood(
        apex=p, cone=i, vertices=tuple(ring[: hi - lo]), canonical_edges=canon
    )


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
