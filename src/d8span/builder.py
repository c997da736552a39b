"""Edge selection: greedy incident edges, canonical completion, and the
full bounded-degree construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .delaunay import (
    CanonicalSubgraph,
    ConstructionError,
    Triangulation,
    build_dt,
    canonical_subgraph,
    cone_neighbourhood,
    edge_key,
)
from .geometry import CONE_BISECTORS, PointSet


class SortedEdges(NamedTuple):
    """The triangulation's edges (u, v), u < v, by non-decreasing bisector
    length, ties broken lexicographically on (u, v); ``cone`` is the cone of
    u holding v."""

    u: np.ndarray
    v: np.ndarray
    cone: np.ndarray
    length: np.ndarray


def sort_edges(T: Triangulation) -> SortedEdges:
    """Every edge with its cone, read from the cone table, and its bisector
    length ``bisector_in_cone`` computes, as arrays in sorted order."""
    nbr = np.frombuffer(T._nbr, dtype=np.intc)
    group = np.repeat(np.arange(6 * len(T.points)), T.cone_sizes())
    src = group // 6
    forward = src < nbr
    u, v, cone = src[forward], nbr[forward], group[forward] % 6
    del nbr, group, src, forward
    xs, ys = np.asarray(T.points.xs), np.asarray(T.points.ys)
    ux, uy = np.array(CONE_BISECTORS)[cone].T
    with np.errstate(over="ignore"):
        dx, dy = xs[v] - xs[u], ys[v] - ys[u]
        length = dx * ux + dy * uy
    order = np.lexsort((v, u, length))
    return SortedEdges(u[order], v[order], cone[order], length[order])


class IncidentEdges(NamedTuple):
    """The greedy selection: the accepted edges in sorted order, and at
    6p + i the far end of the accepted edge leaving p into cone i, or -1."""

    edges: list[tuple[int, int]]
    occupant: list[int]


def add_incident(T: Triangulation, L: SortedEdges) -> IncidentEdges:
    """Greedy scan of the sorted edge list.

    An edge (p, q), with q in cone i of p, is accepted iff no already
    accepted edge leaves p into cone i and no already accepted edge leaves q
    into cone i+3.  At most one accepted edge per vertex-cone pair, hence
    degree at most 6.
    """
    occupant = [-1] * (6 * len(T.points))
    edges: list[tuple[int, int]] = []
    for p, q, i in zip(L.u.tolist(), L.v.tolist(), L.cone.tolist()):
        sp, sq = 6 * p + i, 6 * q + (i + 3) % 6
        if occupant[sp] < 0 and occupant[sq] < 0:
            edges.append((p, q))
            occupant[sp] = q
            occupant[sq] = p
    return IncidentEdges(edges, occupant)


@dataclass(frozen=True)
class Provenance:
    step: str  # "2" | "3" | "4a" | "4b" | "4c"
    apex: int
    anchor: int
    end_vertex: int | None = None  # the extremal vertex processed in step 4
    cone: int | None = None  # cone of the end vertex examined in step 4


@dataclass
class EdgeSelection:
    e_a: frozenset[tuple[int, int]]
    e_can: frozenset[tuple[int, int]]
    provenance: dict[tuple[int, int], list[Provenance]] = field(default_factory=dict)

    @property
    def d8_edges(self) -> frozenset[tuple[int, int]]:
        return self.e_a | self.e_can

    def has_d8_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.e_a or edge_key(u, v) in self.e_can


def e_a_occupant(T: Triangulation, e_a, v: int, cone: int) -> int | None:
    """The far end of the selected incident edge leaving v into the given
    cone, if any; the first one clockwise should there be several."""
    for w in T.cone(v, cone):
        if edge_key(v, w) in e_a:
            return w
    return None


def add_canonical(
    T: Triangulation,
    occupant: list[int],
    p: int,
    r: int,
) -> list[tuple[tuple[int, int], Provenance]]:
    """Edges contributed for the selected edge (p, r) with r in cone i of p;
    ``occupant`` is ``add_incident``'s record of the selection.

    Cone indices below follow the construction stated for i = 0 and are
    rotated by i; the first extremal edge is handled with the mirrored cone
    indices of the last one.
    """
    can = canonical_subgraph(T, p, r)
    i = can.cone
    if occupant[6 * p + i] != r:
        raise ValueError(f"({p},{r}) not in the selected incident set")
    out: list[tuple[tuple[int, int], Provenance]] = []

    # Step 2: all non-extremal canonical edges, when there are at least 3.
    if len(can.edges) >= 3:
        for s, t in can.edges[1:-1]:
            out.append((edge_key(s, t), Provenance("2", p, r)))

    # Step 3: the edge incident to the anchor, when the anchor is extremal
    # and there is more than one edge.
    if len(can.edges) > 1:
        if r == can.first_vertex:
            out.append((edge_key(*can.edges[0]), Provenance("3", p, r)))
        elif r == can.last_vertex:
            out.append((edge_key(*can.edges[-1]), Provenance("3", p, r)))

    # Step 4: the extremal edges.  A single canonical edge is both first and
    # last and is examined under both orientations.
    if can.edges:
        _process_extremal(T, occupant, can, i, last=True, out=out)
        _process_extremal(T, occupant, can, i, last=False, out=out)
    return out


def _process_extremal(
    T, occupant, can: CanonicalSubgraph, i: int, *, last: bool, out
):
    """Step 4 for one extremal edge.

    For the last edge (y, z) the relevant cones of z are i+5 (add the edge),
    and i+4 (add it when no selected incident edge occupies that cone of z,
    otherwise add the unique canonical edge of z with endpoint y there).  The
    first edge is the mirror image: cones i+1 and i+2.
    """
    p, r = can.apex, can.anchor
    if last:
        y, z = can.edges[-1]
        outer, inner = (i + 5) % 6, (i + 4) % 6
    else:
        z, y = can.edges[0]
        outer, inner = (i + 1) % 6, (i + 2) % 6
    j = T.cone_of(z, y)
    prov = lambda step: Provenance(step, p, r, end_vertex=z, cone=j)
    if j == outer:
        out.append((edge_key(y, z), prov("4a")))
    elif j == inner:
        u = occupant[6 * z + inner]
        if u < 0:
            out.append((edge_key(y, z), prov("4b")))
        elif u == y:
            pass  # (y, z) is itself a selected incident edge; nothing to add
        else:
            nb = cone_neighbourhood(T, z, inner)
            candidates = [e for e in nb.canonical_edges if y in e]
            if len(candidates) != 1:
                raise ConstructionError(
                    f"expected exactly one canonical edge of {z} with endpoint "
                    f"{y} in cone {inner}; found {candidates} "
                    f"(apex {p}, anchor {r}, subgraph {can.vertices})"
                )
            w, yy = candidates[0]
            out.append((edge_key(w, yy), prov("4c")))
    # Otherwise the edge lies in the cone facing the apex and nothing is
    # added for this end.


def select_edges(T: Triangulation) -> EdgeSelection:
    """Sorted edge list, greedy incident selection, then canonical
    completion from both endpoints of every selected edge in sorted order."""
    e_a, occupant = add_incident(T, sort_edges(T))
    e_can: set[tuple[int, int]] = set()
    provenance: dict[tuple[int, int], list[Provenance]] = {}
    for p, q in e_a:
        for apex, anchor in ((p, q), (q, p)):
            for edge, prov in add_canonical(T, occupant, apex, anchor):
                e_can.add(edge)
                provenance.setdefault(edge, []).append(prov)
    return EdgeSelection(
        e_a=frozenset(e_a), e_can=frozenset(e_can), provenance=provenance
    )


def construct_d8(ps: PointSet) -> tuple[Triangulation, EdgeSelection]:
    """Full construction: the triangulation, then ``select_edges``."""
    T = build_dt(ps)
    return T, select_edges(T)
