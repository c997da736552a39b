"""Per-instance verification of the construction's guarantees.

Degree and planarity audits, stretch measurement against the triangulation
and the complete graph, per-edge path bounds with canonical-triangle
comparisons, constructive witness paths, and structural audits of the claims
the degree proof rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .builder import _STEPS, ConstructionError, EdgeSelection, e_a_occupant
from .delaunay import (
    Triangulation,
    _ragged,
    canonical_subgraph,
    canonical_subgraphs,
    cones_of,
    edge_arrays,
    edge_key,
    extremal_ends,
)
from .geometry import (
    CONE_BISECTORS,
    TAN30,
    PointSet,
    bisector_distance,
    cone_index,
    euclid,
)

THETA = math.pi / 3
#: theta / sin(theta) = 2*pi / (3*sqrt(3))
PATH_FACTOR = THETA / math.sin(THETA)
#: per-edge stretch bound 1 + theta/sin(theta), about 2.2092
STRETCH_BOUND = 1.0 + PATH_FACTOR

#: Xia's bound on the Delaunay triangulation's stretch ("The stretch factor
#: of the Delaunay triangulation is less than 1.998", SIAM J. Comput. 2013).
#: Times STRETCH_BOUND it bounds the spanner's stretch against the complete
#: graph: the paper's headline of about 4.414.
DT_STRETCH = 1.998

BOUND_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Shortest paths


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each (dx[k], dy[k]): the floats ``euclid`` and
    ``math.dist`` give."""
    return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), np.float64, len(dx))


def _graph(xs: np.ndarray, ys: np.ndarray, u: np.ndarray, v: np.ndarray) -> csr_matrix:
    """Symmetric sparse n x n adjacency over the edges (u[k], v[k]) of the
    points (xs, ys) with Euclidean weights: each pair once whichever way
    round or however often it is given, and no loops."""
    n = len(xs)
    lo, hi = np.divmod(np.unique(np.minimum(u, v) * n + np.maximum(u, v)), n)
    lo, hi = lo[lo < hi], hi[lo < hi]
    with np.errstate(over="ignore"):
        dx, dy = xs[hi] - xs[lo], ys[hi] - ys[lo]
    w = _hypot(dx, dy)
    return csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(n, n),
    )


def distance_matrix(ps: PointSet, edges) -> np.ndarray:
    """All-pairs shortest-path matrix over the given edges with Euclidean
    weights."""
    if len(ps) == 0:
        return np.zeros((0, 0))
    g = _graph(ps.xs, ps.ys, *edge_arrays(edges))
    return _csgraph_dijkstra(g, directed=True)


# ---------------------------------------------------------------------------
# Degree and subgraph audits


def degree_audit(T: Triangulation, sel: EdgeSelection):
    """Degree histogram and maxima of the selected graph (and of the
    incident-only subset)."""
    n = len(T.points)
    (u, v), (cu, cv) = sel.edge_arrays
    deg_a = np.bincount(np.concatenate([u, v]), minlength=n)
    # E_CAN - E_A, the rest of the union, by the keys of the pairs as given;
    # n * n exceeds every key, so each search lands inside the array
    e_a = np.append(np.sort(u * n + v), n * n)
    key = cu * n + cv
    rest = e_a[np.searchsorted(e_a, key)] != key
    deg = deg_a + np.bincount(np.concatenate([cu[rest], cv[rest]]), minlength=n)
    hist = np.bincount(deg)
    degrees = np.flatnonzero(hist)
    return {
        "histogram": dict(zip(degrees.tolist(), hist[degrees].tolist())),
        "max_degree": int(deg.max(initial=0)),
        "e_a_max_degree": int(deg_a.max(initial=0)),
    }


def subgraph_audit(T: Triangulation, sel: EdgeSelection):
    """Verify the selection is a subset of the triangulation's edges.  That
    also proves it plane: ``build_dt`` certifies the triangulation, and no
    two edges of a triangulation cross.

    Each pair, as given, is looked up by its key among the triangulation's;
    only a failing selection reads the tuple views, for its offenders in
    the order of ``sel.d8_edges``."""
    n = len(T.points)
    # n * n exceeds every key of two ids below n, so each search lands
    # inside the array
    keys = np.append(T._keys, n * n)
    for u, v in sel.edge_arrays:
        key = np.minimum(u * n + v, n * n)
        found = keys[np.searchsorted(keys, key)] == key
        if not (found & (0 <= u) & (u < n) & (0 <= v) & (v < n)).all():
            offenders = [e for e in sel.d8_edges if e not in T.edges]
            return {"passed": False, "non_dt_edges": offenders}
    return {"passed": True, "non_dt_edges": []}


# ---------------------------------------------------------------------------
# Stretch


@dataclass
class EdgeStretch:
    path_length: float
    euclidean: float
    euclid_bound: float
    canonical_bound: float


@dataclass(init=False, eq=False)
class StretchReport:
    """The stretch figures, the per-edge ones held as arrays.

    ``ends`` holds the DT edges (u, v) as two int arrays; ``path``,
    ``euclidean`` and ``canonical_bound`` hold each edge's spanner path
    length, Euclidean length and canonical bound as float64 arrays, in units
    of 2**``exponent``: the frame ``stretch_vs_dt`` computes them in, where
    no distance overflows or underflows.  ``ok`` runs its per-edge gates in
    that frame.  Each edge's Euclidean bound is ``STRETCH_BOUND`` times its
    Euclidean length.

    ``per_dt_edge`` is a view built on first use, the figures scaled back by
    ``np.ldexp``.  ``StretchReport(per_dt_edge, ...)`` assembles one from a
    dict of ``EdgeStretch``, which is then its view; ``stretch_vs_dt``
    assembles one from arrays."""

    max_edge_ratio: float
    all_pairs_max_ratio_vs_dt: float
    all_pairs_max_ratio_vs_euclid: float
    connected: bool
    ends: tuple[np.ndarray, np.ndarray] = field(repr=False)
    path: np.ndarray = field(repr=False)
    euclidean: np.ndarray = field(repr=False)
    canonical_bound: np.ndarray = field(repr=False)
    exponent: int = field(repr=False)

    def __init__(
        self,
        per_dt_edge: dict[tuple[int, int], EdgeStretch],
        max_edge_ratio: float,
        all_pairs_max_ratio_vs_dt: float,
        all_pairs_max_ratio_vs_euclid: float,
        connected: bool,
    ):
        rows = [
            (s.path_length, s.euclidean, s.canonical_bound) for s in per_dt_edge.values()
        ]
        figures = np.array(rows, dtype=np.float64).reshape(-1, 3).T
        self._assemble(
            edge_arrays(per_dt_edge), *figures, 0,
            (max_edge_ratio, all_pairs_max_ratio_vs_dt, all_pairs_max_ratio_vs_euclid),
            connected,
        )
        self.__dict__["per_dt_edge"] = per_dt_edge

    @classmethod
    def _from_arrays(cls, ends, path, euclidean, canonical_bound, exponent, maxima):
        s = cls.__new__(cls)
        s._assemble(ends, path, euclidean, canonical_bound, exponent, maxima, True)
        return s

    def _assemble(
        self, ends, path, euclidean, canonical_bound, exponent, maxima, connected
    ) -> None:
        for a in (*ends, path, euclidean, canonical_bound):
            a.flags.writeable = False
        self.ends, self.path, self.exponent = ends, path, exponent
        self.euclidean, self.canonical_bound = euclidean, canonical_bound
        (self.max_edge_ratio, self.all_pairs_max_ratio_vs_dt,
         self.all_pairs_max_ratio_vs_euclid) = maxima
        self.connected = connected

    @cached_property
    def per_dt_edge(self) -> dict[tuple[int, int], EdgeStretch]:
        # a figure beyond the float range reads inf
        with np.errstate(over="ignore"):
            path, d, canon = (
                np.ldexp(a, self.exponent)
                for a in (self.path, self.euclidean, self.canonical_bound)
            )
            figures = path, d, STRETCH_BOUND * d, canon
        edges = zip(*(c.tolist() for c in self.ends))
        return dict(zip(edges, map(EdgeStretch, *(f.tolist() for f in figures))))

    @property
    def ok(self) -> bool:
        if not self.connected:
            return False
        path, d, canon = self.path, self.euclidean, self.canonical_bound
        # a NaN figure passes its gate, as it fails no comparison
        with np.errstate(over="ignore"):
            if (path > canon * (1 + BOUND_RTOL)).any():
                return False
            if (canon > STRETCH_BOUND * d * (1 + BOUND_RTOL)).any():
                return False
        return (
            self.all_pairs_max_ratio_vs_dt <= STRETCH_BOUND + BOUND_RTOL
            and self.all_pairs_max_ratio_vs_euclid
            <= DT_STRETCH * STRETCH_BOUND + BOUND_RTOL
        )


def canonical_bound(ps: PointSet, p: int, q: int) -> float:
    """max{|pa| + (theta/sin theta)|aq|, |pb| + (theta/sin theta)|bq|} over
    the corners a, b of the canonical triangle of (p, q)."""
    u, v = np.array([p]), np.array([q])
    cone = np.array([cone_index(ps[p], ps[q])])
    return float(_canonical_bounds(ps.xs, ps.ys, u, v, cone)[0])


def _canonical_bounds(xs, ys, u, v, cone) -> np.ndarray:
    """``canonical_bound`` of each pair (u[k], v[k]) of the points (xs, ys),
    v[k] in cone cone[k] of u[k]: the arithmetic of ``canonical_corners``
    and ``math.dist``, elementwise in the same order."""
    px, py, qx, qy = xs[u], ys[u], xs[v], ys[v]
    ux, uy = np.array(CONE_BISECTORS)[cone].T
    # left of the bisector direction is the rotated vector (-uy, ux)
    lx, ly = -uy, ux
    h = (qx - px) * ux + (qy - py) * uy
    ax, ay = px + h * (ux + TAN30 * lx), py + h * (uy + TAN30 * ly)
    bx, by = px + h * (ux - TAN30 * lx), py + h * (uy - TAN30 * ly)
    via_a = _hypot(px - ax, py - ay) + PATH_FACTOR * _hypot(ax - qx, ay - qy)
    via_b = _hypot(px - bx, py - by) + PATH_FACTOR * _hypot(bx - qx, by - qy)
    # max(via_a, via_b): via_a unless via_b is greater
    return np.where(via_b > via_a, via_b, via_a)


#: Cells per block of source rows in ``stretch_vs_dt``: each array of a block
#: holds about this many (source, target) entries, so memory is O(n).
_BLOCK_CELLS = 1 << 17

#: Relative margin of ``stretch_vs_dt``'s landmark certificate.
_MARGIN = 1e-9

#: Added to each scaled landmark distance, so that a certified pair's two
#: sides are normal floats, each within a relative 2**-53 of its exact value.
_FLOOR = 2.0**-1001

#: The edge pass's Dijkstra from u reaches this many times u's longest DT
#: edge, above STRETCH_BOUND, so that it settles every DT edge of a valid
#: spanner.
_EDGE_REACH = 2.3


def _rows(n: int) -> int:
    """Sources per Dijkstra call on n vertices: each call's distance array
    holds about ``_BLOCK_CELLS`` entries."""
    return max(1, _BLOCK_CELLS // n)


def _max_ratio(num: np.ndarray, den: np.ndarray, where) -> float:
    """Largest num/den over the cells selected by ``where`` (-inf if none);
    a zero denominator makes the result NaN."""
    with np.errstate(invalid="ignore"):
        ratio = num / np.where(den > 0, den, np.nan)
    return float(np.max(ratio, where=where, initial=-np.inf))


def _norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``np.sqrt(dx**2 + dy**2)``, in place in dx: the same floats for every
    caller."""
    # in place: dx * dx is dx**2, bit for bit
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _euclid(xs, ys, s, t) -> np.ndarray:
    """The Euclidean distances from the points s to the points t, index
    arrays broadcast against each other."""
    return _norm(xs[s] - xs[t], ys[s] - ys[t])


def _every_row(g8, xs, ys, dt_u, dt_v) -> tuple[np.ndarray, float]:
    """One full Dijkstra row per source on the spanner g8: the spanner
    distance of each DT edge (dt_u[k], dt_v[k]), and the largest ratio of
    spanner to Euclidean distance over all pairs; each pair read from the
    row of its lower id."""
    n = len(xs)
    d8 = _csgraph_dijkstra(g8, directed=True)
    upper = np.arange(1, n)[None, :] > np.arange(n)[:, None]
    ed = _euclid(xs, ys, np.arange(n)[:, None], np.arange(1, n)[None, :])
    return d8[dt_u, dt_v], _max_ratio(d8[:, 1:], ed, upper)


def _grouped(g8, sources, limits, row, col) -> np.ndarray:
    """``_settled`` without the full rows: Dijkstra from the sources in
    order of limit, in groups of at most ``_rows(n)`` whose limits lie
    within a factor 2, each group bounded at its largest; inf where a
    target lies beyond."""
    rows = _rows(g8.shape[0])
    out = np.empty(len(row))
    order = np.argsort(limits, kind="stable")
    ranked = limits[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # the pairs by the rank of their source, so that a group's are a run,
    # with the start of each rank's run
    by = np.argsort(rank[row], kind="stable")
    runs = np.cumsum(np.bincount(row, minlength=len(order))[order])
    runs = np.concatenate([[0], runs])
    k = 0
    while k < len(order):
        end = int(np.searchsorted(ranked, 2 * ranked[k], "right"))
        end = min(max(k + 1, end), k + rows)
        pairs = by[runs[k] : runs[end]]
        # indexed at once, so that no group's rows outlive its call
        out[pairs] = _csgraph_dijkstra(
            g8, directed=True, indices=sources[order[k:end]], limit=ranked[end - 1]
        )[rank[row[pairs]] - k, col[pairs]]
        k = end
    return out


def _settled(g8, sources, limits, row, col) -> np.ndarray:
    """The spanner distance from sources[row[k]] to col[k], for each k, by
    Dijkstra from the sources on g8, each bounded at no less than its own
    limit (``_grouped``).  A source that leaves one of its targets
    unsettled gets its full row, again at most ``_rows(n)`` sources a
    call."""
    out = _grouped(g8, sources, limits, row, col)
    late = np.flatnonzero(np.isinf(out))
    if len(late):
        need, at = np.unique(row[late], return_inverse=True)
        full = np.full(len(need), np.inf)
        out[late] = _grouped(g8, sources[need], full, at, col[late])
    return out


def _edge_paths(g8, xs, ys, dt_u, dt_v) -> np.ndarray:
    """The spanner distance of each DT edge (dt_u[k], dt_v[k]), dt_u
    non-decreasing, from the row of its low end: one ``_settled`` over every
    low end, each bounded at ``_EDGE_REACH`` times its own longest edge."""
    ends, first, row = np.unique(dt_u, return_index=True, return_inverse=True)
    length = np.hypot(xs[dt_v] - xs[dt_u], ys[dt_v] - ys[dt_u])
    reach = np.maximum.reduceat(length, first) * _EDGE_REACH
    return _settled(g8, ends, reach, row, dt_v)


def _cells(xs, ys) -> list[np.ndarray]:
    """The points in about 4 sqrt(n) cells of equal count, by density: equal
    shares of the points by x, each cut into equal shares by y; each cell's
    ids ascending, and no cell empty.  Each cell costs one full Dijkstra
    row, and the bounded ones reach further as cells grow: the two balance
    at cells of a size proportional to sqrt(n)."""
    side = max(1, round(2 * len(xs) ** 0.25))
    cells = []
    for strip in np.array_split(np.argsort(xs, kind="stable"), side):
        by_y = strip[np.argsort(ys[strip], kind="stable")]
        cells += [np.sort(c) for c in np.array_split(by_y, side) if len(c)]
    return cells


def _computed(g8, xs, ys, keys: list, worst: float) -> float:
    """The compute pass: ``worst`` raised to the largest ratio of the pairs
    lo * n + hi in ``keys``, each distance from one ``_settled`` over their
    low ends, each bounded at worst (1 + _MARGIN) times its longest pair."""
    if not sum(map(len, keys)):
        return worst
    lo = np.concatenate(keys)
    lo.sort()
    # int32 ends, and lo gone before the Dijkstra: the pass holds its
    # pairs' arrays beside each call's rows
    hi = (lo % len(xs)).astype(np.int32)
    lo //= len(xs)
    ed = _euclid(xs, ys, lo, hi)
    # lo is non-decreasing: each source's pairs are one run
    runs = np.flatnonzero(np.diff(lo, prepend=-1))
    row = np.repeat(np.arange(len(runs), dtype=np.int32), np.diff(runs, append=len(lo)))
    sources = lo[runs]
    del lo
    limits = worst * np.maximum.reduceat(ed, runs) * (1 + _MARGIN)
    d = _settled(g8, sources, limits, row, hi)
    return float(np.maximum(worst, _max_ratio(d, ed, True)))


def _sweep(g8, xs, ys, rows, worst: float) -> float:
    """The largest ratio of spanner to Euclidean distance over all pairs (s,
    t), s < t, read from the row of s, given a lower bound ``worst`` that is
    one pair's ratio: a certify pass, then a compute pass.

    Certify.  Each cell, in ``_cells`` order, has a landmark a, its point
    nearest the cell's centroid, with one full Dijkstra row r, and q = r /
    (worst (1 - _MARGIN) / (1 + _MARGIN)) + _FLOOR.  A pair is certified
    when q[s] + q[t] < |st|, for then its ratio cannot exceed ``worst``;
    the pair belongs to its ends' cells, the earlier one's landmark first.
    For each block of at most ``rows`` sources of the cell and each cell B
    from this one on, one test q[s] + max_B q < |s, box(B)| certifies every
    pair (s, t in B) at once, with box(B) the bounding box of B and |s,
    box(B)| the distance to s clamped into it.  Each clamped coordinate
    difference is at most each member's in magnitude and rounding is
    monotone, so the float box distance is at most each member's float
    |st|, and fl(q[s] + q[t]) <= fl(q[s] + max_B q).  Only the (s, B) that
    fail are tested pair by pair.  A pair that survives and has its other
    end in a later cell waits, as the key lo * n + hi, for that cell's
    landmark to test it again: the same walk bound, read from a full row
    out of another vertex.  A pair neither landmark certifies is needed.

    Compute.  The needed pairs, by lower id, get one ``_settled`` over
    their low ends, each bounded at worst (1 + _MARGIN) times its longest
    |st|, and raise ``worst``.  Once more than ``_BLOCK_CELLS`` pairs wait or
    are needed, all of them are computed at once, the waiting ones without
    their second test, so memory stays O(n).  ``worst`` only grows, so each
    certificate holds for the final value, which is the largest computed
    ratio, bit for bit."""
    if worst != worst:
        return worst  # a NaN ratio: the maximum is NaN
    n = len(xs)
    cells = _cells(xs, ys)
    size = np.array([len(c) for c in cells])
    start = np.cumsum(size) - size
    members = np.concatenate(cells)
    cell_of = np.empty(n, dtype=np.intp)
    cell_of[members] = np.repeat(np.arange(len(cells)), size)
    x0, x1, y0, y1 = (
        f.reduceat(c[members], start)
        for c in (xs, ys)
        for f in (np.minimum, np.maximum)
    )
    waiting = [[] for _ in cells]
    needed, held = [], 0
    for b, cell in enumerate(cells):
        cx, cy = xs[cell].mean(), ys[cell].mean()
        a = cell[np.argmin((xs[cell] - cx) ** 2 + (ys[cell] - cy) ** 2)]
        scale = worst * (1 - _MARGIN) / (1 + _MARGIN)
        q = _csgraph_dijkstra(g8, directed=True, indices=a) / scale + _FLOOR
        if waiting[b]:
            key = np.concatenate(waiting[b])
            waiting[b] = []
            lo, hi = np.divmod(key, n)
            key = key[~(q[lo] + q[hi] < _euclid(xs, ys, lo, hi))]
            needed.append(key)
            held -= len(lo) - len(key)
        q_max = np.maximum.reduceat(q[members], start)[b:]
        for k in range(0, len(cell), rows):
            s = cell[k : k + rows, None]
            box = _norm(
                xs[s] - np.clip(xs[s], x0[b:], x1[b:]),
                ys[s] - np.clip(ys[s], y0[b:], y1[b:]),
            )
            # by cell, so that each later cell's survivors are one run
            j, i = np.nonzero(~(q[s] + q_max < box).T)
            owner, slot = _ragged(start[b + j], size[b + j])
            src, t = s[i[owner], 0], members[slot]
            keep = ~(q[src] + q[t] < _euclid(xs, ys, src, t))
            # in this cell only the pairs s < t are this block's
            keep &= (j[owner] > 0) | (src < t)
            src, t = src[keep], t[keep]
            key = np.minimum(src, t) * n + np.maximum(src, t)
            later = cell_of[t]
            cut = np.flatnonzero(np.diff(later, prepend=b, append=-1))
            # a copy, so that the block's array goes once its waiting runs do
            needed.append(key[: cut[0]].copy())
            for lo, hi in zip(cut[:-1].tolist(), cut[1:].tolist()):
                waiting[later[lo]].append(key[lo:hi])
            held += len(key)
            if held > _BLOCK_CELLS:
                needed += [w for ws in waiting for w in ws]
                worst = _computed(g8, xs, ys, needed, worst)
                waiting = [[] for _ in cells]
                needed, held = [], 0
                if worst != worst:
                    return worst
    return _computed(g8, xs, ys, needed, worst)


def stretch_vs_dt(T: Triangulation, sel: EdgeSelection) -> StretchReport:
    """Spanner distances against DT and Euclidean distances: per DT edge and
    the maxima over all vertex pairs.

    Dijkstra on the spanner only, in this process, with no n x n array ever
    held.  When one block of ``_BLOCK_CELLS`` holds every source, one
    Dijkstra per source gives every pair.  Otherwise certify or compute:

    - the edge pass gives each DT edge's path length, from Dijkstra rows
      bounded near the edges (``_edge_paths``), and so the largest DT-edge
      ratio to the Euclidean distance, one pair's ratio, as the starting
      maximum M;
    - the sweep (``_sweep``) certifies whole cells of pairs at once by a box
      test, then single pairs, from the landmark of either end's cell, each
      when its bound lies below M times the Euclidean distance; one compute
      pass gives the pairs neither landmark certifies and raises M.

    The coordinates are first divided by the power of two that brings the
    largest |coordinate| into [1/2, 1), so a set's scale alone cannot make a
    distance overflow or underflow.  Where neither happened unscaled, the
    division is exact and every float is the unscaled one times a power of
    two.  The per-edge figures (path length, Euclidean length by
    ``math.hypot``, canonical bound) and their gates stay in that frame, and
    the report holds the exponent that scales them back.

    Every float is the one a full Dijkstra row from the pair's lower id
    gives.  Dijkstra's distance from s to v is the least float path length,
    summed edge by edge from s, over all walks; it depends neither on the
    other sources of the call nor on the order in which the edges are
    scanned.  A bounded Dijkstra settles every vertex whose distance is at
    most its limit, since every vertex on that vertex's least walk is
    nearer, and leaves the others unsettled; an unsettled target gets a full
    row.  The certificate is sound: the walk from s through the landmark a
    to t has at most 2n - 2 edges, so its float sum from s, which bounds
    d(s, t), exceeds r[s] + r[t], the float sums of a's row, by a factor of
    at most about 1 + 3n 2**-53 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 4.2).  With the certificate's own six
    roundings that stays below the margin's (1 + 1e-9) / (1 - 1e-9) up to n
    of about 6 10**6.  The argument holds for any landmark's full row, so
    for the second cell's as for the first.  The box test only passes when
    every pair of its cell would (see ``_sweep``).  M only grows, so a pair
    certified under an earlier M stays below the final one, which is
    therefore the largest computed ratio, bit for bit.

    ``all_pairs_max_ratio_vs_dt`` is ``max_edge_ratio``, so no Dijkstra runs
    on the triangulation. A DT shortest path between two vertices is a chain
    of DT edges. By the triangle inequality, the spanner distance between its
    ends is at most the sum of the spanner distances between the ends of each
    edge; by the mediant inequality, the ratio of that sum to the chain's
    length is at most the worst edge's ratio. A DT edge's own DT distance is
    its length, so the maximum is attained. Nothing here uses the
    construction, so this holds for any selection, hand-written ones
    included.
    """
    ps = T.points
    n = len(ps)
    if n < 2:
        return StretchReport({}, 1.0, 1.0, 1.0, connected=True)
    # the largest |coordinate| scaled into [1/2, 1) by a power of two
    e = int(np.frexp(max(np.abs(ps.xs).max(), np.abs(ps.ys).max()))[1])
    xs, ys = np.ldexp(ps.xs, -e), np.ldexp(ps.ys, -e)
    (u, v), (cu, cv) = sel.edge_arrays
    g8 = _graph(xs, ys, np.concatenate([u, cu]), np.concatenate([v, cv]))
    if connected_components(g8, directed=False, return_labels=False) > 1:
        return StretchReport({}, math.inf, math.inf, math.inf, connected=False)
    # u is non-decreasing in key order, so the edges at a low end are a slice
    dt_u, dt_v = np.divmod(T._keys, n)
    rows = _rows(n)
    if rows >= n:
        path, vs_euclid = _every_row(g8, xs, ys, dt_u, dt_v)
    else:
        path = _edge_paths(g8, xs, ys, dt_u, dt_v)
        ed = _euclid(xs, ys, dt_u, dt_v)
        vs_euclid = _sweep(g8, xs, ys, rows, _max_ratio(path, ed, True))
    d = _hypot(xs[dt_v] - xs[dt_u], ys[dt_v] - ys[dt_u])
    bound = _canonical_bounds(xs, ys, dt_u, dt_v, T._cone)
    # max over the edges of length / d from 1.0, as Python's max folds it:
    # fmax skips a NaN ratio
    max_edge_ratio = float(np.fmax.reduce(path[d > 0] / d[d > 0], initial=1.0))
    return StretchReport._from_arrays(
        (dt_u, dt_v), path, d, bound, e, (max_edge_ratio, max_edge_ratio, vs_euclid)
    )


# ---------------------------------------------------------------------------
# Witness paths


@dataclass
class WitnessPath:
    source: int
    target: int
    vertices: list[int]
    length: float
    trace: list[str] = field(default_factory=list)


def _walk(T, sel, can, a: int, b: int) -> list[int]:
    """Vertices from a to b along the canonical subgraph, asserting every
    step is a selected edge."""
    vs = can.vertices
    ia, ib = vs.index(a), vs.index(b)
    step = 1 if ib >= ia else -1
    out = [vs[k] for k in range(ia, ib + step, step)]
    edge_pairs = {frozenset(e) for e in can.edges}
    for u, v in zip(out, out[1:]):
        if frozenset((u, v)) not in edge_pairs:
            raise ConstructionError(
                f"walk {a}->{b} in subgraph of apex {can.apex}: ({u},{v}) is "
                f"not a canonical edge of {can.vertices}"
            )
        if not sel.has_d8_edge(u, v):
            raise ConstructionError(
                f"walk {a}->{b} in subgraph of apex {can.apex}: ({u},{v}) "
                f"was not selected"
            )
    return out


def _path_length(ps, vertices) -> float:
    return sum(euclid(ps[u], ps[v]) for u, v in zip(vertices, vertices[1:]))


def witness_path(
    T: Triangulation, sel: EdgeSelection, p: int, q: int, *, _depth: int = 0
) -> WitnessPath:
    """Constructive short path for a triangulation edge (p, q).

    Follows the case analysis of the spanner argument: direct edge, ideal
    path through the canonical subgraph, concatenation of two ideal paths
    meeting at the shared neighbour, or recursion on a strictly smaller
    canonical triangle.  Raises ConstructionError when no case applies.
    """
    ps = T.points
    if not T.is_edge(p, q):
        raise ValueError(f"({p},{q}) is not a triangulation edge")
    if _depth > len(ps):
        raise ConstructionError(f"witness recursion exceeded depth for ({p},{q})")
    if sel.has_d8_edge(p, q):
        return WitnessPath(p, q, [p, q], euclid(ps[p], ps[q]), ["direct"])
    i = T.cone_of(p, q)
    lpq = bisector_distance(ps[p], ps[q])
    r = e_a_occupant(T, sel.e_a, p, i)
    if r is not None and bisector_distance(ps[p], ps[r]) <= lpq * (1 + BOUND_RTOL):
        return _witness_from(T, sel, p, q, r, i, _depth)
    u = e_a_occupant(T, sel.e_a, q, (i + 3) % 6)
    if u is not None and bisector_distance(ps[q], ps[u]) <= lpq * (1 + BOUND_RTOL):
        w = _witness_from(T, sel, q, p, u, (i + 3) % 6, _depth)
        return WitnessPath(
            p, q, list(reversed(w.vertices)), w.length, w.trace + ["reversed"]
        )
    raise ConstructionError(
        f"({p},{q}) not selected but neither endpoint has a shorter incident "
        f"edge in the facing cones"
    )


def _witness_from(T, sel, p, q, r, i, depth) -> WitnessPath:
    """Witness for (p, q) given the selected edge (p, r) in the same cone of
    p, with [pr] <= [pq]."""
    ps = T.points
    can = canonical_subgraph(T, p, r)
    if q not in can.vertices:
        raise ConstructionError(
            f"target {q} missing from canonical subgraph {can.vertices} "
            f"(apex {p}, anchor {r})"
        )
    if q == r:
        return WitnessPath(p, q, [p, r], euclid(ps[p], ps[r]), ["anchor"])
    idx = can.vertices.index(q)
    interior = 0 < idx < len(can.vertices) - 1
    if interior:
        verts = [p] + _walk(T, sel, can, r, q)
        return WitnessPath(p, q, verts, _path_length(ps, verts), ["ideal"])
    last = idx == len(can.vertices) - 1
    if not can.edges:
        raise ConstructionError(
            f"end vertex {q} unreachable: subgraph of apex {p} anchored at "
            f"{r} has no edges"
        )
    y_expect = can.edges[-1][0] if last else can.edges[0][1]
    z_expect = can.edges[-1][1] if last else can.edges[0][0]
    if z_expect != q:
        raise ConstructionError(
            f"extremal edge of subgraph (apex {p}, anchor {r}) does not end "
            f"at {q}: edges {can.edges}"
        )
    y = y_expect
    j = T.cone_of(q, y)
    rel = (j - i) % 6
    if sel.has_d8_edge(y, q):
        verts = [p] + _walk(T, sel, can, r, q)
        return WitnessPath(p, q, verts, _path_length(ps, verts), [f"ideal-end({rel})"])
    inner = 4 if last else 2
    if rel == inner:
        u2 = e_a_occupant(T, sel.e_a, q, j)
        if u2 is None or u2 == y:
            raise ConstructionError(
                f"extremal edge ({y},{q}) unselected with no competing "
                f"incident edge at {q} in cone {j}"
            )
        can2 = canonical_subgraph(T, q, u2)
        if y not in can2.vertices:
            raise ConstructionError(
                f"meeting vertex {y} missing from subgraph of apex {q} "
                f"anchored at {u2}"
            )
        part_a = [p] + _walk(T, sel, can, r, y)
        part_b = [q] + _walk(T, sel, can2, u2, y)
        verts = part_a + list(reversed(part_b))[1:]
        return WitnessPath(p, q, verts, _path_length(ps, verts), ["concat"])
    if rel == 3:
        s = y
        lsq = bisector_distance(ps[s], ps[q])
        lpq = bisector_distance(ps[p], ps[q])
        if lsq > lpq * (1 + BOUND_RTOL):
            raise ConstructionError(
                f"recursion on ({s},{q}) does not shrink the canonical "
                f"triangle: {lsq} > {lpq}"
            )
        part_a = [p] + _walk(T, sel, can, r, s)
        sub = witness_path(T, sel, s, q, _depth=depth + 1)
        verts = part_a + sub.vertices[1:]
        return WitnessPath(
            p, q, verts, _path_length(ps, verts), ["recurse"] + sub.trace
        )
    raise ConstructionError(
        f"extremal edge ({y},{q}) in unexpected cone {j} relative to cone "
        f"{i} of apex {p}"
    )


# ---------------------------------------------------------------------------
# Structural audits


@dataclass
class AuditVerdict:
    name: str
    passed: bool
    counterexample: Optional[dict] = None


def _angle(ps, a: int, x: int, b: int) -> float:
    """Angle at x between rays to a and b (the one below pi)."""
    v1 = (ps[a].x - ps[x].x, ps[a].y - ps[x].y)
    v2 = (ps[b].x - ps[x].x, ps[b].y - ps[x].y)
    dot = v1[0] * v2[0] + v1[1] * v2[1]
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    return abs(math.atan2(cross, dot))


def _keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Sorted keys u * n + v of the pairs with 0 <= u < v < n: those an
    ``edge_key`` of two vertices can equal."""
    return np.sort((u * n + v)[(0 <= u) & (u < v) & (v < n)])


def _dt_cones(T, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pairs (u[k], v[k]) that are triangulation edges, either way
    round, and the cone of u[k] holding v[k]."""
    n = len(T.points)
    cone = np.full(len(u), -1, dtype=np.int8)
    ids = (0 <= u) & (u < n) & (0 <= v) & (v < n)
    cone[ids] = cones_of(T, u[ids], v[ids])
    dt = cone >= 0
    return u[dt], v[dt], cone[dt]


def _selected_cones(T, u: np.ndarray, v: np.ndarray, cone: np.ndarray) -> np.ndarray:
    """Entry 6w + i is true when a selected edge leaves w into cone i; the
    selection is the triangulation edges (u[k], v[k]) with v[k] in cone[k]
    of u[k], of which only those with u[k] < v[k] count, as in
    ``has_d8_edge``."""
    selected = np.zeros(6 * len(T.points), dtype=bool)
    low = u < v
    u, v, cone = u[low], v[low], cone[low]
    selected[6 * u + cone] = True
    # negating a direction moves cone_indices to the opposite cone
    selected[6 * v + (cone + 3) % 6] = True
    return selected


def _subgraph_lemmas(T, sel) -> list[AuditVerdict]:
    """The canonical-path, anchor-cone and extremal-cone verdicts, from the
    canonical subgraph of each oriented E_A edge, computed once as arrays by
    ``canonical_subgraphs`` from T and the selection's arrays alone.  Each
    keeps its first counterexample in the order of ``sel.e_a``, each edge
    (u, v) as (u, v) and then (v, u); a non-DT edge is skipped, the subgraph
    audit reports it.  The pass runs in key order, and only a selection it
    rejects is scanned again in the order of ``sel.e_a``, for the first
    counterexamples, rebuilt with the scalar ``canonical_subgraph``."""
    (u, v), _ = sel.edge_arrays
    found = _lemma_scan(T, sel, u, v, stop=1)
    if found:
        found = _lemma_scan(T, sel, *edge_arrays(sel.e_a), stop=3)
    return [
        AuditVerdict(name, name not in found, found.get(name))
        for name in ("canonical_path", "anchor_cones", "extremal_cone")
    ]


def _lemma_scan(T, sel, u, v, stop: int) -> dict[str, dict]:
    """The first counterexample of each lemma over the E_A pairs (u[k],
    v[k]) in turn, by name; the scan ends once ``stop`` lemmas have one."""
    n = len(T.points)
    _, (cu, cv) = sel.edge_arrays
    # n * n exceeds every key, so each search lands inside the array
    e_a = np.append(_keys(u, v, n), n * n)
    u, v, cone = _dt_cones(T, u, v)
    selected = _selected_cones(T, u, v, cone) | _selected_cones(T, *_dt_cones(T, cu, cv))
    found: dict[str, dict] = {}
    for b in canonical_subgraphs(T, u, v, cone):
        p, r, i = b.p, b.r, b.cone
        if "canonical_path" not in found and not b.is_path.all():
            k = int(np.argmin(b.is_path))
            can = canonical_subgraph(T, int(p[k]), int(r[k]))
            found["canonical_path"] = {
                "apex": can.apex, "anchor": can.anchor,
                "vertices": can.vertices, "edges": can.edges,
            }
        if "anchor_cones" not in found:
            left = selected[6 * r + (i + 2) % 6]
            right = selected[6 * r + (i + 4) % 6]
            inner = (r != b.first) & (r != b.last)
            bad = np.where(inner, left | right, (b.kept > 1) & left & right)
            if bad.any():
                k = int(np.argmax(bad))
                pk, rk, ik = int(p[k]), int(r[k]), int(i[k])
                found["anchor_cones"] = {
                    "apex": pk, "anchor": rk, "cone": ik,
                    "left": _selected_in(T, sel, rk, (ik + 2) % 6),
                    "right": _selected_in(T, sel, rk, (ik + 4) % 6),
                }
        if "extremal_cone" not in found:
            has = np.flatnonzero(b.edges)
            a, anchor, cone = p[has], r[has], i[has]
            ends = extremal_ends(T, b, has)
            bad = []
            for y, z, j in ends:
                key = np.minimum(a, z) * n + np.maximum(a, z)
                direct = e_a[np.searchsorted(e_a, key)] == key
                bad.append((z != anchor) & ~direct & (j == cone))
            either = bad[0] | bad[1]
            if either.any():
                k = int(np.argmax(either))
                y, z, _ = ends[0] if bad[0][k] else ends[1]
                found["extremal_cone"] = {
                    "apex": int(a[k]), "anchor": int(anchor[k]),
                    "edge": (int(y[k]), int(z[k])), "cone": int(cone[k]),
                }
        if len(found) >= stop:
            break
    return found


def _selected_in(T, sel, v: int, i: int) -> list[int]:
    """The neighbours w of v in cone i with (v, w) selected."""
    return [w for w in T.cone(v, i) if sel.has_d8_edge(v, w)]


def audit_canonical_paths(T, sel) -> AuditVerdict:
    """Every canonical subgraph of a selected incident edge is one simple
    path."""
    return _subgraph_lemmas(T, sel)[0]


def audit_anchor_cones(T, sel) -> AuditVerdict:
    """For a selected edge (p, r): when r is an inner anchor, the two cones
    of r flanking the one facing p are free of selected edges; when r is an
    end vertex with company, at least one of them is."""
    return _subgraph_lemmas(T, sel)[1]


def audit_extremal_cone(T, sel) -> AuditVerdict:
    """The extremal edge of a canonical subgraph never points back into the
    apex cone at its end vertex (unless that end vertex is directly
    selected)."""
    return _subgraph_lemmas(T, sel)[2]


#: Slack of the array filter in ``audit_wedge_angles``: far above the few
#: ulps by which ``np.arctan2`` and ``math.atan2`` may differ.
_WEDGE_MARGIN = 1e-12
#: Angle pairs computed per block in ``audit_wedge_angles``.
_WEDGE_BLOCK = 1 << 14


def _angles(xs, ys, a, x, b) -> np.ndarray:
    """``_angle`` for arrays of ids: the same float operations in turn."""
    v1x, v1y = xs[a] - xs[x], ys[a] - ys[x]
    v2x, v2y = xs[b] - xs[x], ys[b] - ys[x]
    return np.abs(np.arctan2(v1x * v2y - v1y * v2x, v1x * v2x + v1y * v2y))


def audit_wedge_angles(T, sel=None) -> AuditVerdict:
    """For any strictly intermediate neighbour x in a cone of p, the angle at
    x facing p (the interior angle of the quadrilateral p, r, x, q, possibly
    reflex) exceeds 2*pi/3.

    Float addition is monotone, so angle(a, x, p) plus the least angle(p, x,
    b) over later b is within the limit exactly when some b's sum is.  One
    ragged pass over the intermediate members x of every cone, a block of
    them at a time, computes those sums as arrays and flags the pairs (a, x)
    within ``_WEDGE_MARGIN`` of the limit; the scalar rule then decides the
    flagged pairs in (cone, a, x) order, so the verdict and the reported
    angle are those of ``_angle``."""
    limit = 2 * math.pi / 3 - 1e-9
    xs, ys = T.points.xs, T.points.ys
    nbr = np.frombuffer(T._nbr, dtype=np.intc)
    start = np.frombuffer(T._start, dtype=np.intc).astype(np.intp)
    g = np.flatnonzero(np.diff(start) > 2)
    # one row per intermediate member x: its slot and its group's bounds
    owner, x = _ragged(start[g] + 1, np.diff(start)[g] - 2)
    g, lo, hi = g[owner], start[g][owner], start[g + 1][owner]
    # row x pairs with each of the other members: each later b, each earlier a
    cost = np.cumsum(hi - lo - 1)
    found = None  # (slot of a, slot of x, counterexample)
    begin = 0
    # every pair of a later block has its a at or after its first row's group
    while begin < len(x) and (found is None or lo[begin] <= found[0]):
        done = cost[begin - 1] if begin else 0
        stop = max(begin + 1, int(np.searchsorted(cost, done + _WEDGE_BLOCK, "right")))
        rows = slice(begin, stop)
        begin = stop
        s, p, later = x[rows], g[rows] // 6, hi[rows] - 1 - x[rows]
        with np.errstate(all="ignore"):
            # the angle at x between p and each later member b
            row, b = _ragged(s + 1, later)
            far = _angles(xs, ys, p[row], nbr[s][row], nbr[b])
            # a NaN angle never qualifies; every row has a later member
            least = np.fmin.reduceat(far, np.cumsum(later) - later)
            # the angle at x between each earlier member a and p
            row, a = _ragged(lo[rows], s - lo[rows])
            near = _angles(xs, ys, nbr[a], nbr[s][row], p[row])
            flagged = np.flatnonzero(near + least[row] <= limit + _WEDGE_MARGIN)
        a, row = a[flagged], row[flagged]
        order = np.lexsort((s[row], a))
        pairs = (c[order].tolist() for c in (a, s[row], g[rows][row]))
        for a_slot, x_slot, group in zip(*pairs):
            if found is not None and (a_slot, x_slot) >= found[:2]:
                break
            cx = _wedge_at(T, group, a_slot, x_slot, limit)
            if cx is not None:
                found = (a_slot, x_slot, cx)
                break
    if found is None:
        return AuditVerdict("wedge_angle", True)
    return AuditVerdict("wedge_angle", False, found[2])


def _wedge_at(T, g: int, a_slot: int, x_slot: int, limit: float):
    """The scalar wedge rule at the members in the cone-table slots a_slot <
    x_slot of group g: the counterexample, or None."""
    p, i = divmod(g, 6)
    members = T.cone(p, i)
    a, x = a_slot - T._start[g], x_slot - T._start[g]
    ps = T.points
    row = [_angle(ps, p, members[x], w) for w in members[x + 1 :]]
    near = _angle(ps, members[a], members[x], p)
    # a NaN angle never qualifies
    if not near + min((f for f in row if f == f), default=math.inf) <= limit:
        return None
    k = next(k for k, f in enumerate(row) if near + f <= limit)
    triple = (members[a], members[x], members[x + 1 + k])
    return {"apex": p, "cone": i, "triple": triple, "angle": near + row[k]}


def audit_shared_triangles(T, sel=None) -> AuditVerdict:
    """No triangle lies in the cone neighbourhoods of all three corners, and
    no edge is the base of more than one shared triangle.

    Corner c of a triangle is a member when its two other corners share a
    cone of c.  In a triangulation they are then consecutive in that cone,
    so each member is one canonical slot k of the cone table, with apex c
    and triangle {c, _nbr[k], _nbr[k + 1]}; ``_cone_table`` classifies the
    same float differences as a scan of the corners would.  Members are
    counted per triangle as arrays; only a failure reads ``T.triangles``,
    for the first counterexample in its order."""
    n = len(T.points)
    nbr = np.frombuffer(T._nbr, dtype=np.intc)
    start = np.frombuffer(T._start, dtype=np.intc)
    k = np.flatnonzero(np.frombuffer(T._canon, dtype=np.bool_))
    corner = (np.searchsorted(start, k, side="right") - 1) // 6
    tri = np.sort(np.stack([corner, nbr[k], nbr[k + 1]]), axis=0)
    order = np.lexsort(tri[::-1])
    tri, corner = tri[:, order], corner[order]
    # runs of one triangle's members
    new = np.ones(len(k), dtype=bool)
    new[1:] = (tri[:, 1:] != tri[:, :-1]).any(axis=0)
    first = np.flatnonzero(new)
    size = np.diff(np.append(first, len(k)))
    three = first[size == 3]
    if len(three):
        bad = set(map(tuple, tri[:, three].T.tolist()))
        tri = next(t for t in T.triangles if t in bad)
        return AuditVerdict(
            "shared_triangle", False, {"triangle": tri, "reason": "three cones"}
        )
    two = first[size == 2]
    base = np.sort(np.stack([corner[two], corner[two + 1]]), axis=0)
    key = base[0] * n + base[1]
    ranked = np.sort(key)
    twice = ranked[1:][ranked[1:] == ranked[:-1]]
    if not len(twice):
        return AuditVerdict("shared_triangle", True)
    # each shared triangle's base; the first base met in T.triangles order
    shared = np.isin(key, twice)
    base_of = dict(
        zip(
            map(tuple, tri[:, two[shared]].T.tolist()),
            map(tuple, base[:, shared].T.tolist()),
        )
    )
    by_base: dict[tuple[int, int], list] = {}
    for t in T.triangles:
        if t in base_of:
            by_base.setdefault(base_of[t], []).append(t)
    base, tris = next(iter(by_base.items()))
    return AuditVerdict(
        "shared_triangle",
        False,
        {"base": base, "triangles": tris, "reason": "base shared twice"},
    )


#: The code of step 4b in ``EdgeSelection.events``.
_STEP_4B = _STEPS.index("4b")


def audit_charged_cones(T, sel) -> AuditVerdict:
    """Edges recorded as boundary-cone additions (step 4b) must occupy a cone
    of their end vertex that holds no selected incident edge.

    The step 4b events are checked against the cones E_A occupies, as
    arrays; only a failing selection reads ``sel.provenance``, for its first
    counterexample."""
    n = len(T.points)
    (u, v), _ = sel.edge_arrays
    occupied = _selected_cones(T, *_dt_cones(T, u, v))
    e = sel.events
    four_b = e.step == _STEP_4B
    z, cone = e.end[four_b], e.cone[four_b]
    fine = (0 <= z) & (z < n) & (0 <= cone) & (cone < 6)
    fine[fine] = ~occupied[6 * z[fine] + cone[fine]]
    if fine.all():
        return AuditVerdict("charged_cones", True)
    for edge, provs in sel.provenance.items():
        for prov in provs:
            if prov.step != "4b":
                continue
            z, cone = prov.end_vertex, prov.cone
            occupied = [w for w in T.cone(z, cone) if edge_key(z, w) in sel.e_a]
            if occupied:
                return AuditVerdict(
                    "charged_cones",
                    False,
                    {"edge": edge, "end_vertex": z, "cone": cone, "e_a": occupied},
                )
    return AuditVerdict("charged_cones", True)


def lemma_audits(T: Triangulation, sel: EdgeSelection) -> list[AuditVerdict]:
    paths, anchors, extremal = _subgraph_lemmas(T, sel)
    return [
        paths,
        audit_wedge_angles(T, sel),
        audit_shared_triangles(T, sel),
        anchors,
        extremal,
        audit_charged_cones(T, sel),
    ]


# ---------------------------------------------------------------------------
# Combined report


@dataclass
class AuditReport:
    degrees: dict
    subgraph: dict
    lemmas: list[AuditVerdict]
    stretch: Optional[StretchReport]

    @property
    def ok(self) -> bool:
        if self.degrees["max_degree"] > 8 or self.degrees["e_a_max_degree"] > 6:
            return False
        if not self.subgraph["passed"]:
            return False
        if any(not v.passed for v in self.lemmas):
            return False
        if self.stretch is not None and not self.stretch.ok:
            return False
        return True


def run_audits(
    T: Triangulation,
    sel: EdgeSelection,
    *,
    with_stretch: bool = True,
) -> AuditReport:
    return AuditReport(
        degrees=degree_audit(T, sel),
        subgraph=subgraph_audit(T, sel),
        lemmas=lemma_audits(T, sel),
        stretch=stretch_vs_dt(T, sel) if with_stretch else None,
    )
