"""Reference oracles the test suite checks the library against.

None is used by the library: ``build_dt`` certifies its triangulation
locally, a subset of a certified triangulation is plane, the cone table marks
canonical edges with a vectorised lookup, and the wedge-angle audit is
quadratic per cone.  The brute-force oracles recompute the same facts from
their definitions.  The scalar references (``reference_certify``,
``reference_selection``) are the construction as it ran before it moved to
arrays: one predicate call per triangle, edge or vertex, on ``Point``
objects.  ``reference_subgraph_lemmas`` is the subgraph-lemma audit as it ran
before it moved to arrays: one scalar canonical subgraph per oriented E_A
edge; ``reference_degree_audit`` and ``reference_subgraph_audit`` are the
degree and subgraph audits as Python loops over the selection, and
``set_degree_audit`` the degree audit on a set difference of the selection's
tuples.  ``shared_triangles`` is the shared-triangle audit as a scan of the
triangles that classifies each corner's cones itself.
``reference_canonical_bound`` is one pair's canonical bound as it ran before
the stretch audit moved to arrays, on Python floats, from the triangle
corners of ``canonical_corners``.  ``e_a_occupant`` is a cone's E_A edge and
``reference_charged_cones`` the charged-cones audit as they ran before the
selection's marks: a scan of the cone against the set of E_A pairs, and a
scan of ``sel.provenance``.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from d8span.analysis import PATH_FACTOR, AuditVerdict, _angle
from d8span.builder import Provenance
from d8span.delaunay import (
    CanonicalSubgraph,
    ConstructionError,
    canonical_subgraph,
    cone_neighbourhood,
    edge_arrays,
    edge_key,
)
from d8span.geometry import (
    CONE_BISECTORS,
    TAN30,
    GeneralPositionError,
    Violation,
    bisector_distance,
    bisector_in_cone,
    cone_index,
    cone_index_dir,
    cone_indices,
    in_circle,
    orient,
)


def _circumcircle(a, b, c) -> tuple[float, float, float]:
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


def dt_oracle(ps, *, cap: int = 1000) -> frozenset[tuple[int, int]]:
    """Independent brute-force Delaunay edge set, pairs (p, q) with p < q.

    An edge (p, q) is included iff some circle through p and q is empty of
    the other points, decided by testing the circumcircle of every triple
    (p, q, r); the one pair of a two-point set is an edge.  Quartic; refuses
    inputs above ``cap`` points.
    """
    n = len(ps)
    if n > cap:
        raise ValueError(f"dt_oracle cap exceeded: {n} > {cap}")
    if n < 3:
        return frozenset({(0, 1)} if n == 2 else ())
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
            ccx, ccy, r2 = _circumcircle(aa, bb, cc)
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
    return frozenset(edges)


def crossings(ps, edges) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every pair of edges whose segments cross properly, with no shared
    endpoint: an O(E^2) planarity check."""
    edges = sorted(edges)
    out = []
    for k, (u, v) in enumerate(edges):
        for x, y in edges[k + 1 :]:
            if len({u, v, x, y}) < 4:
                continue
            a, b, c, d = ps[u], ps[v], ps[x], ps[y]
            if (
                orient(a, b, c) * orient(a, b, d) < 0
                and orient(c, d, a) * orient(c, d, b) < 0
            ):
                out.append(((u, v), (x, y)))
    return out


def canonical_edges(T, p: int, i: int, triangles=None) -> tuple[tuple[int, int], ...]:
    """Consecutive members of cone i of p that form a triangle with p, looked
    up in the triangle list; ``triangles``, when given, is ``set(T.triangles)``
    of the caller."""
    triangles = set(T.triangles) if triangles is None else triangles
    vs = T.cone(p, i)
    return tuple(
        (u, v) for u, v in zip(vs, vs[1:]) if tuple(sorted((p, u, v))) in triangles
    )


def wedge_angles(T) -> AuditVerdict:
    """The wedge-angle audit by trying every triple (a, x, b) of a cone in
    order: cubic per cone."""
    ps = T.points
    limit = 2 * math.pi / 3 - 1e-9
    for p in range(len(ps)):
        for i in range(6):
            members = T.cone(p, i)
            for a, x, b in itertools.combinations(members, 3):
                ang = _angle(ps, a, x, p) + _angle(ps, p, x, b)
                if ang <= limit:
                    return AuditVerdict(
                        "wedge_angle",
                        False,
                        {"apex": p, "cone": i, "triple": (a, x, b), "angle": ang},
                    )
    return AuditVerdict("wedge_angle", True)


#: Triangles classified per block in ``shared_triangles``.
_TRIANGLE_BLOCK = 1 << 13
# The six half-edges of a sorted triple: corner k to each other corner.
_CORNER = [0, 0, 1, 1, 2, 2]
_OTHER = [1, 2, 0, 2, 0, 1]


def shared_triangles(T) -> AuditVerdict:
    """The shared-triangle audit as a scan of ``T.triangles`` in order: the
    cones of each corner's two other corners from ``cone_indices``, a dict
    of the shared triangles by base."""
    xs, ys = np.asarray(T.points.xs), np.asarray(T.points.ys)
    base_counts: dict[tuple[int, int], list] = {}
    for start in range(0, len(T.triangles), _TRIANGLE_BLOCK):
        block = T.triangles[start : start + _TRIANGLE_BLOCK]
        t = np.array(block, dtype=np.intp)
        c, o = t[:, _CORNER].ravel(), t[:, _OTHER].ravel()
        with np.errstate(over="ignore"):
            cones = cone_indices(xs[o] - xs[c], ys[o] - ys[c]).reshape(-1, 3, 2)
        # corner k is a member when its two other corners share a cone of it
        member = cones[:, :, 0] == cones[:, :, 1]
        for k in np.flatnonzero(member.any(axis=1)).tolist():
            tri = block[k]
            members = [tri[j] for j in range(3) if member[k, j]]
            if len(members) == 3:
                return AuditVerdict(
                    "shared_triangle", False, {"triangle": tri, "reason": "three cones"}
                )
            if len(members) == 2:
                base_counts.setdefault(edge_key(*members), []).append(tri)
    for base, tris in base_counts.items():
        if len(tris) > 1:
            return AuditVerdict(
                "shared_triangle",
                False,
                {"base": base, "triangles": tris, "reason": "base shared twice"},
            )
    return AuditVerdict("shared_triangle", True)


# ---------------------------------------------------------------------------
# Scalar references


def reference_hull(ps) -> list[int]:
    """Andrew's monotone chain on exact ``orient`` over every point."""
    P = list(ps)
    order = sorted(range(len(P)), key=lambda i: (P[i].x, P[i].y))

    def chain(ids):
        out: list[int] = []
        for i in ids:
            while len(out) >= 2 and orient(P[out[-2]], P[out[-1]], P[i]) < 0:
                out.pop()
            out.append(i)
        return out[:-1]

    return chain(order) + chain(reversed(order))


def reference_certify(ps, triangles) -> None:
    """``certify_delaunay`` as a scan: a dict of directed edges, one
    ``orient`` per triangle and one ``in_circle`` per interior edge."""
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
    hull = reference_hull(ps)
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


@dataclass(frozen=True)
class SortedEdge:
    edge: tuple[int, int]
    length: float  # bisector length, symmetric in the endpoints


def reference_sort(T) -> list[SortedEdge]:
    """Every edge by (bisector length, edge), one ``bisector_distance`` each."""
    ps = T.points
    entries = [
        SortedEdge(edge=e, length=bisector_distance(ps[e[0]], ps[e[1]]))
        for e in T.edges
    ]
    entries.sort(key=lambda se: (se.length, se.edge))
    return entries


def reference_incident(T, L) -> set[tuple[int, int]]:
    """The greedy scan with one ``cone_index`` per edge."""
    ps = T.points
    occupied: set[tuple[int, int]] = set()  # (vertex, cone)
    e_a: set[tuple[int, int]] = set()
    for se in L:
        p, q = se.edge
        i = cone_index(ps[p], ps[q])
        j = (i + 3) % 6
        if (p, i) not in occupied and (q, j) not in occupied:
            e_a.add(se.edge)
            occupied.add((p, i))
            occupied.add((q, j))
    return e_a


def reference_subgraph(T, p: int, r: int) -> CanonicalSubgraph:
    """The canonical subgraph from ``cone_index_dir`` and the cone
    neighbourhood, thresholded on ``bisector_in_cone``."""
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
    edges = tuple(
        (u, v) for u, v in nb.canonical_edges if u in keep and v in keep
    )
    return CanonicalSubgraph(p, r, i, tuple(keep), edges)


def _reference_canonical(T, e_a, p: int, r: int) -> list:
    can = reference_subgraph(T, p, r)
    i = can.cone
    out = []
    if len(can.edges) >= 3:
        for s, t in can.edges[1:-1]:
            out.append((edge_key(s, t), Provenance("2", p, r)))
    if len(can.edges) > 1:
        if r == can.first_vertex:
            out.append((edge_key(*can.edges[0]), Provenance("3", p, r)))
        elif r == can.last_vertex:
            out.append((edge_key(*can.edges[-1]), Provenance("3", p, r)))
    if can.edges:
        _reference_extremal(T, e_a, can, i, last=True, out=out)
        _reference_extremal(T, e_a, can, i, last=False, out=out)
    return out


def e_a_occupant(T, e_a, v: int, cone: int) -> int | None:
    """The far end of the E_A edge leaving v into the given cone, if any;
    the first one clockwise should there be several.  ``e_a`` is a set of
    pairs, each looked up low end first."""
    for w in T.cone(v, cone):
        if edge_key(v, w) in e_a:
            return w
    return None


def reference_charged_cones(T, sel) -> AuditVerdict:
    """The charged-cones audit: the first step 4b event of
    ``sel.provenance`` whose cone of its end vertex holds an E_A edge."""
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


def _reference_extremal(T, e_a, can, i: int, *, last: bool, out) -> None:
    ps = T.points
    p, r = can.apex, can.anchor
    if last:
        y, z = can.edges[-1]
        outer, inner = (i + 5) % 6, (i + 4) % 6
    else:
        z, y = can.edges[0]
        outer, inner = (i + 1) % 6, (i + 2) % 6
    j = cone_index(ps[z], ps[y])
    prov = lambda step: Provenance(step, p, r, end_vertex=z, cone=j)
    if j == outer:
        out.append((edge_key(y, z), prov("4a")))
    elif j == inner:
        u = e_a_occupant(T, e_a, z, inner)
        if u is None:
            out.append((edge_key(y, z), prov("4b")))
        elif u != y:
            nb = cone_neighbourhood(T, z, inner)
            candidates = [e for e in nb.canonical_edges if y in e]
            if len(candidates) != 1:
                raise ConstructionError(
                    f"expected exactly one canonical edge of {z} with endpoint "
                    f"{y} in cone {inner}; found {candidates} "
                    f"(apex {p}, anchor {r}, subgraph {can.vertices})"
                )
            out.append((edge_key(*candidates[0]), prov("4c")))


def reference_selection(T) -> tuple[set, set, dict]:
    """E_A, E_CAN and the provenance lists, edge by edge on ``Point``s: the
    sets of pairs and a dict of the lists by edge, in the order added."""
    L = reference_sort(T)
    e_a = reference_incident(T, L)
    e_can: set[tuple[int, int]] = set()
    provenance: dict = {}
    for se in L:
        if se.edge not in e_a:
            continue
        p, q = se.edge
        for apex, anchor in ((p, q), (q, p)):
            for edge, prov in _reference_canonical(T, e_a, apex, anchor):
                e_can.add(edge)
                provenance.setdefault(edge, []).append(prov)
    return e_a, e_can, provenance


def _oriented_e_a(sel, T):
    for u, v in sel.e_a:
        if not T.is_edge(u, v):
            continue  # non-DT edge; the subgraph audit reports it
        yield u, v
        yield v, u


def reference_subgraph_lemmas(T, sel) -> list[AuditVerdict]:
    """The canonical-path, anchor-cone and extremal-cone verdicts from one
    scalar ``canonical_subgraph`` per oriented E_A edge, each with its first
    counterexample in ``_oriented_e_a`` order."""
    found: dict[str, dict] = {}
    for p, r in _oriented_e_a(sel, T):
        can = canonical_subgraph(T, p, r)
        i = can.cone
        if "canonical_path" not in found and not can.is_path():
            found["canonical_path"] = {
                "apex": p, "anchor": r, "vertices": can.vertices, "edges": can.edges
            }
        if "anchor_cones" not in found:
            left = [w for w in T.cone(r, (i + 2) % 6) if sel.has_d8_edge(r, w)]
            right = [w for w in T.cone(r, (i + 4) % 6) if sel.has_d8_edge(r, w)]
            if r not in (can.first_vertex, can.last_vertex):
                bad = left or right
            else:
                bad = len(can.vertices) > 1 and left and right
            if bad:
                found["anchor_cones"] = {
                    "apex": p, "anchor": r, "cone": i, "left": left, "right": right
                }
        if "extremal_cone" not in found and can.edges:
            for y, z in (can.edges[-1], can.edges[0][::-1]):
                if z == r or edge_key(p, z) in sel.e_a:
                    continue
                if T.cone_of(z, y) == i:
                    cx = {"apex": p, "anchor": r, "edge": (y, z), "cone": i}
                    found["extremal_cone"] = cx
                    break
        if len(found) == 3:
            break
    return [
        AuditVerdict(name, name not in found, found.get(name))
        for name in ("canonical_path", "anchor_cones", "extremal_cone")
    ]


def reference_degree_audit(T, sel) -> dict:
    """``degree_audit`` as it ran before it moved to arrays: one loop over
    the union of E_A and E_CAN and one over E_A."""
    n = len(T.points)
    deg = [0] * n
    for u, v in sel.d8_edges:
        deg[u] += 1
        deg[v] += 1
    deg_a = [0] * n
    for u, v in sel.e_a:
        deg_a[u] += 1
        deg_a[v] += 1
    hist: dict[int, int] = {}
    for d in deg:
        hist[d] = hist.get(d, 0) + 1
    return {
        "histogram": dict(sorted(hist.items())),
        "max_degree": max(deg, default=0),
        "e_a_max_degree": max(deg_a, default=0),
    }


def set_degree_audit(T, sel) -> dict:
    """``degree_audit`` on the sets: degrees by ``np.bincount`` over E_A and
    over the set difference E_CAN - E_A, each converted to arrays."""
    n = len(T.points)
    deg_a = np.bincount(np.concatenate(edge_arrays(sel.e_a)), minlength=n)
    rest = np.concatenate(edge_arrays(sel.e_can - sel.e_a))
    deg = deg_a + np.bincount(rest, minlength=n)
    hist = np.bincount(deg)
    degrees = np.flatnonzero(hist)
    return {
        "histogram": dict(zip(degrees.tolist(), hist[degrees].tolist())),
        "max_degree": int(deg.max(initial=0)),
        "e_a_max_degree": int(deg_a.max(initial=0)),
    }


def reference_subgraph_audit(T, sel) -> dict:
    """``subgraph_audit`` as it ran before it moved to arrays: a set lookup
    per selected pair."""
    offenders = [e for e in sel.d8_edges if e not in T.edges]
    return {"passed": not offenders, "non_dt_edges": offenders}


def canonical_corners(px: float, py: float, qx: float, qy: float, i: int):
    """Height and corners a, b of the canonical triangle of (px, py) and
    (qx, qy), the second point known to lie in cone i of the first: an
    equilateral triangle with one corner at the apex, inside the cone, of
    height the bisector length."""
    h = bisector_in_cone(qx - px, qy - py, i)
    ux, uy = CONE_BISECTORS[i]
    # Left of the bisector direction is the rotated vector (-uy, ux).
    lx, ly = -uy, ux
    a = (px + h * (ux + TAN30 * lx), py + h * (uy + TAN30 * ly))
    b = (px + h * (ux - TAN30 * lx), py + h * (uy - TAN30 * ly))
    return h, a, b


def reference_canonical_bound(px: float, py: float, qx: float, qy: float, i: int) -> float:
    """The canonical bound of the points (px, py) and (qx, qy), the second in
    cone i of the first: the larger of the two paths through a corner of the
    canonical triangle, one ``math.dist`` per side."""
    _, a, b = canonical_corners(px, py, qx, qy, i)
    pa, pb = math.dist((px, py), a), math.dist((px, py), b)
    aq, bq = math.dist(a, (qx, qy)), math.dist(b, (qx, qy))
    return max(pa + PATH_FACTOR * aq, pb + PATH_FACTOR * bq)
