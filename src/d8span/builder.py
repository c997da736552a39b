"""Edge selection: greedy incident edges, canonical completion, and the
full bounded-degree construction."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .delaunay import (
    ConstructionError,
    Triangulation,
    _ragged,
    build_dt,
    canonical_subgraph,
    canonical_subgraphs,
    cone_neighbourhood,
    edge_arrays,
    edge_key,
    extremal_ends,
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
    """Every edge with its cone, from the triangulation, and its bisector
    length ``bisector_in_cone`` computes, as arrays in sorted order."""
    u, v = np.divmod(T._keys, len(T.points))
    cone = T._cone
    xs, ys = T.points.xs, T.points.ys
    ux, uy = np.array(CONE_BISECTORS)[cone].T
    with np.errstate(over="ignore"):
        dx, dy = xs[v] - xs[u], ys[v] - ys[u]
        length = dx * ux + dy * uy
    # the keys are sorted, so a stable sort breaks ties on (u, v)
    order = np.argsort(length, kind="stable")
    return SortedEdges(u[order], v[order], cone[order], length[order])


class IncidentEdges(NamedTuple):
    """The greedy selection: the accepted edges (u, v), u < v, as the rows
    of an int array in the order taken, and at 6p + i the far end of the
    accepted edge leaving p into cone i, or -1."""

    ends: np.ndarray
    occupant: array

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The accepted edges as tuples, in the order taken."""
        return list(map(tuple, self.ends.tolist()))


def add_incident(T: Triangulation, L: SortedEdges) -> IncidentEdges:
    """Greedy scan of the sorted edge list.

    An edge (p, q), with q in cone i of p, is accepted iff no already
    accepted edge leaves p into cone i and no already accepted edge leaves q
    into cone i+3.  At most one accepted edge per vertex-cone pair, hence
    degree at most 6.

    The scan is a greedy matching on the slots 6p + i, and it runs in
    rounds of locally dominant edges (Preis, STACS 1999; Manne and
    Bisseling, PPAM 2007).  Sorted edge k holds the slots 6p + i and
    6q + (i + 3) % 6.  A round accepts every live edge whose k is the least
    live k at both of its slots, then drops every live edge that touches a
    filled slot.  Each drop is the scan's rejection: the edge that filled
    the slot was the least live k there, so it comes earlier.  Each
    acceptance is the scan's too: every earlier edge at its slots is dead,
    and by induction the scan rejected it.  A round accepts at least the
    earliest live edge.  Once a round removes fewer than half of the live
    edges, ``_scan`` finishes the rest in order: no accepted edge shares a
    slot with one still live, so ``occupant`` holds what the scan would.
    """
    n, m = len(T.points), len(L.u)
    occupant = array("i", [-1]) * (6 * n)
    occ = np.frombuffer(occupant, dtype=np.intc)
    a = (6 * L.u + L.cone).astype(np.intc)
    b = (6 * L.v + (L.cone + 3) % 6).astype(np.intc)
    least = np.full(6 * n, m, dtype=np.intc)
    live = np.arange(m, dtype=np.intc)
    while len(live):
        sa, sb = a[live], b[live]
        least[sa] = least[sb] = m
        np.minimum.at(least, sa, live)
        np.minimum.at(least, sb, live)
        win = (least[sa] == live) & (least[sb] == live)
        k = live[win]
        occ[a[k]], occ[b[k]] = L.v[k], L.u[k]
        rest = live[(occ[sa] < 0) & (occ[sb] < 0)]
        done = 2 * len(rest) > len(live)
        live = rest
        if done:
            break
    _scan(occupant, live, a, b, L)
    u, v, _ = _accepted(L, occupant)
    return IncidentEdges(np.stack([u, v], axis=1), occupant)


def _scan(occupant: array, rows: np.ndarray, a, b, L: SortedEdges) -> None:
    """The greedy scan over the given rows of L, in order, with their slots
    a and b, on Python ints: it fills ``occupant`` for each edge it accepts."""
    columns = (a[rows], b[rows], L.u[rows], L.v[rows])
    for sp, sq, p, q in zip(*(c.tolist() for c in columns)):
        if occupant[sp] < 0 and occupant[sq] < 0:
            occupant[sp] = q
            occupant[sq] = p


@dataclass(frozen=True)
class Provenance:
    step: str  # "2" | "3" | "4a" | "4b" | "4c"
    apex: int
    anchor: int
    end_vertex: int | None = None  # the extremal vertex processed in step 4
    cone: int | None = None  # cone of the end vertex examined in step 4


#: Provenance steps by code, in the order one selected edge adds them.
_STEPS = ("2", "3", "4a", "4b", "4c")


class Events(NamedTuple):
    """Provenance as parallel arrays, one entry per event: the edge (u, v)
    it adds, its step as an index into ``_STEPS``, the selected edge's apex
    and anchor, and from step 4 on the end vertex and its cone, else -1."""

    u: np.ndarray
    v: np.ndarray
    step: np.ndarray
    apex: np.ndarray
    anchor: np.ndarray
    end: np.ndarray
    cone: np.ndarray


_EVENT_TYPES = Events(np.intp, np.intp, np.int8, np.intp, np.intp, np.intp, np.int8)


def _events(blocks) -> Events:
    """The events of the given Events blocks in turn, as one Events."""
    empty = (np.empty(0, dtype=t) for t in _EVENT_TYPES)
    return Events(*map(np.concatenate, zip(empty, *blocks)))


def _provenance_items(events: Events):
    """Each event as (edge, Provenance), in turn, in Python ints."""
    for s, t, code, p, r, z, j in zip(*(c.tolist() for c in events)):
        if code < 2:
            yield (s, t), Provenance(_STEPS[code], p, r)
        else:
            yield (s, t), Provenance(_STEPS[code], p, r, z, j)


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _pairs(u: np.ndarray, v: np.ndarray) -> frozenset[tuple[int, int]]:
    return frozenset(zip(u.tolist(), v.tolist()))


@dataclass(frozen=True, init=False, eq=False)
class EdgeSelection:
    """The selected edges and the provenance of E_CAN, held as arrays.

    ``edge_arrays`` holds the pairs (u, v) of E_A and then of E_CAN, each
    as two read-only int arrays in key order (by u, then by v); ``events``
    holds the provenance, one event per (edge, step) the completion added,
    in the order it added them.

    ``e_a``, ``e_can``, ``d8_edges`` and ``provenance`` are views built on
    first use.  ``EdgeSelection(e_a, e_can, provenance)`` assembles one from
    Python collections, which are then its views, pairs as given;
    ``select_edges`` assembles one from arrays."""

    edge_arrays: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    events: Events = field(repr=False)

    def __init__(self, e_a, e_can, provenance=None):
        e_a, e_can = frozenset(e_a), frozenset(e_can)
        provenance = {} if provenance is None else provenance
        code = {step: k for k, step in enumerate(_STEPS)}
        rows = [
            (*edge, code.get(p.step, -1), p.apex, p.anchor,
             -1 if p.end_vertex is None else p.end_vertex,
             -1 if p.cone is None else p.cone)
            for edge, provs in provenance.items()
            for p in provs
        ]
        columns = np.array(rows, dtype=np.intp).reshape(-1, 7).T
        events = Events(*(c.astype(t) for c, t in zip(columns, _EVENT_TYPES)))
        ends = []
        for edges in (e_a, e_can):
            u, v = edge_arrays(edges)
            order = np.lexsort((v, u))
            ends.append((u[order], v[order]))
        self._assemble(*ends, events)
        self.__dict__.update(e_a=e_a, e_can=e_can, provenance=provenance)

    @classmethod
    def _from_arrays(cls, e_a, e_can, events: Events):
        sel = cls.__new__(cls)
        sel._assemble(e_a, e_can, events)
        return sel

    def _assemble(self, e_a, e_can, events) -> None:
        object.__setattr__(self, "edge_arrays", (_frozen(*e_a), _frozen(*e_can)))
        object.__setattr__(self, "events", Events(*_frozen(*events)))

    @cached_property
    def e_a(self) -> frozenset[tuple[int, int]]:
        return _pairs(*self.edge_arrays[0])

    @cached_property
    def e_can(self) -> frozenset[tuple[int, int]]:
        return _pairs(*self.edge_arrays[1])

    @cached_property
    def d8_edges(self) -> frozenset[tuple[int, int]]:
        return self.e_a | self.e_can

    @cached_property
    def provenance(self) -> dict[tuple[int, int], list[Provenance]]:
        out: dict[tuple[int, int], list[Provenance]] = {}
        for edge, prov in _provenance_items(self.events):
            out.setdefault(edge, []).append(prov)
        return out

    def has_d8_edge(self, u: int, v: int) -> bool:
        u, v = edge_key(u, v)
        for us, vs in self.edge_arrays:
            lo, hi = us.searchsorted(u), us.searchsorted(u, side="right")
            k = lo + vs[lo:hi].searchsorted(v)
            if k < hi and vs[k] == v:
                return True
        return False


def e_a_occupant(T: Triangulation, e_a, v: int, cone: int) -> int | None:
    """The far end of the selected incident edge leaving v into the given
    cone, if any; the first one clockwise should there be several."""
    for w in T.cone(v, cone):
        if edge_key(v, w) in e_a:
            return w
    return None


def add_canonical(
    T: Triangulation,
    occupant: array,
    p: int,
    r: int,
) -> list[tuple[tuple[int, int], Provenance]]:
    """Edges contributed for the selected edge (p, r) with r in cone i of p;
    ``occupant`` is ``add_incident``'s record of the selection.  The one-edge
    form of ``select_edges``' completion."""
    if not T.is_edge(p, r):
        raise ValueError(f"({p},{r}) is not a triangulation edge")
    (b,) = canonical_subgraphs(T, np.array([p]), np.array([r]))
    if occupant[6 * p + int(b.cone[0])] != r:
        raise ValueError(f"({p},{r}) not in the selected incident set")
    events = _completion(T, occupant, b, pick=np.array([True, False]))
    return list(_provenance_items(events))


def _completion(T, occupant, b, pick: np.ndarray) -> Events:
    """Steps 2-4 for the selected edges (p, r) of block b that the mask
    ``pick`` marks, as events: edge by edge, and for each the step 2 edges
    clockwise, the step 3 edge, then step 4 for the last and for the first
    extremal edge.

    Cone indices below follow the construction stated for i = 0 and are
    rotated by i; the first extremal edge is handled with the mirrored cone
    indices of the last one.
    """
    nbr = np.frombuffer(T._nbr, dtype=np.intc)
    occ = np.asarray(occupant)
    # per event: its edge's row, its step and its (y, z), where z is the end
    # vertex and j the cone of z holding y in step 4
    row, step, y, z, j = [], [], [], [], []

    def add(k, code, s, t, cone=-1):
        row.append(k)
        step.append(np.broadcast_to(code, len(k)))
        y.append(s)
        z.append(t)
        j.append(np.broadcast_to(cone, len(k)))

    # Step 2: all non-extremal canonical edges, when there are at least 3.
    owner = np.repeat(np.arange(len(b.p)), b.edges)
    rank = np.arange(len(owner)) - (np.cumsum(b.edges) - b.edges)[owner]
    middle = pick[owner] & (rank > 0) & (rank < b.edges[owner] - 1)
    s = b.canonical[middle]
    add(owner[middle], 0, nbr[s], nbr[s + 1])

    # Step 3: the edge incident to the anchor, when the anchor is extremal
    # and there is more than one edge.
    k = np.flatnonzero(pick & (b.edges > 1) & ((b.r == b.first) | (b.r == b.last)))
    s = np.where(b.r[k] == b.first[k], b.first_edge[k], b.last_edge[k])
    add(k, 1, nbr[s], nbr[s + 1])

    # Step 4: the extremal edges.  A single canonical edge is both first and
    # last and is examined under both orientations.  For the last edge (y,
    # z) the relevant cones of z are i+5 (add the edge), and i+4 (add it when
    # no selected incident edge occupies that cone of z, otherwise add the
    # unique canonical edge of z with endpoint y there, unless (y, z) is that
    # incident edge).  The first edge is the mirror image: cones i+1 and i+2.
    # Otherwise the edge lies in the cone facing the apex and adds nothing.
    k = np.flatnonzero(pick & (b.edges > 0))
    i = b.cone[k]
    for (ye, ze, je), outer, side in zip(extremal_ends(T, b, k), (5, 1), (4, 2)):
        outer, side = (i + outer) % 6, (i + side) % 6
        u = occ[6 * ze + side]
        code = np.select(
            [je == outer, (je == side) & (u < 0), (je == side) & (u != ye)],
            [2, 3, 4], -1,
        )
        e = code >= 0
        add(k[e], code[e], ye[e], ze[e], je[e])

    row = np.concatenate(row)
    order = np.argsort(row, kind="stable")
    row = row[order]
    step, y, z, j = (np.concatenate(x)[order] for x in (step, y, z, j))
    step, j = step.astype(np.int8), j.astype(np.int8)
    s, t = y.astype(np.intp), z.astype(np.intp)
    apex, anchor = b.p[row], b.r[row]
    later = step >= 2
    end, cone = np.where(later, t, -1), np.where(later, j, np.int8(-1))
    # Step 4c: the canonical edge of z in cone j with end y.  It is at the
    # slot before y's in group 6z + j or at y's own, and exactly one of the
    # two must be canonical; the first event where that fails raises.
    k = np.flatnonzero(step == 4)
    if len(k):
        start = np.frombuffer(T._start, dtype=np.intc)
        canon = np.frombuffer(T._canon, dtype=np.bool_)
        g = 6 * t[k] + j[k]
        lo = start[g]
        owner, slot = _ragged(lo, start[g + 1] - lo)
        at = slot[nbr[slot] == s[k][owner]]
        before = (at > lo) & canon[at - 1]
        bad = before == canon[at]
        if bad.any():
            f = int(k[np.argmax(bad)])
            raise _step_4c_error(T, *(int(x[f]) for x in (apex, anchor, s, t, j)))
        t[k] = nbr[np.where(before, at - 1, at + 1)]
    return Events(np.minimum(s, t), np.maximum(s, t), step, apex, anchor, end, cone)


def _step_4c_error(T, p: int, r: int, y: int, z: int, cone: int) -> ConstructionError:
    """The error of a step 4c event for the selected edge (p, r) that finds
    other than one canonical edge of z in the given cone with endpoint y."""
    candidates = [e for e in cone_neighbourhood(T, z, cone).canonical_edges if y in e]
    vertices = canonical_subgraph(T, p, r).vertices
    return ConstructionError(
        f"expected exactly one canonical edge of {z} with endpoint "
        f"{y} in cone {cone}; found {candidates} "
        f"(apex {p}, anchor {r}, subgraph {vertices})"
    )


def _accepted(L: SortedEdges, occupant: array) -> tuple[np.ndarray, ...]:
    """The rows (u, v, cone) of L that ``add_incident`` accepted, in the
    order it took them: each is the one edge that set the slot of its low
    end and its cone."""
    taken = np.frombuffer(occupant, dtype=np.intc)[6 * L.u + L.cone] == L.v
    return L.u[taken], L.v[taken], L.cone[taken]


def select_edges(T: Triangulation) -> EdgeSelection:
    """Sorted edge list, greedy incident selection, then canonical
    completion from both endpoints of every selected edge in sorted order.

    The canonical subgraphs come as arrays from ``canonical_subgraphs``, and
    the completion decides on them, a block at a time; only step 4c and a
    failure read a cone again.  E_A and E_CAN are kept as arrays in key
    order and the provenance as events: no tuple is built."""
    n = len(T.points)
    L = sort_edges(T)
    occupant = add_incident(T, L).occupant
    u, v, cone = _accepted(L, occupant)
    del L  # free the sorted list before the completion
    events = _events(
        _completion(T, occupant, b, np.ones(len(b.p), dtype=bool))
        for b in canonical_subgraphs(T, u, v, cone)
    )
    e_a = np.divmod(np.sort(u * n + v), n)
    e_can = np.divmod(np.unique(events.u * n + events.v), n)
    return EdgeSelection._from_arrays(e_a, e_can, events)


def construct_d8(ps: PointSet) -> tuple[Triangulation, EdgeSelection]:
    """Full construction: the triangulation, then ``select_edges``."""
    T = build_dt(ps)
    return T, select_edges(T)
