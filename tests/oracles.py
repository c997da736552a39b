"""Brute-force reference oracles the test suite checks the library against.

None is used by the library: ``build_dt`` certifies its triangulation
locally, a subset of a certified triangulation is plane, the cone table marks
canonical edges with a vectorised lookup, and the wedge-angle audit is
quadratic per cone.  These recompute the same facts from their definitions.
"""

import itertools
import math

import numpy as np

from d8span.analysis import AuditVerdict, _angle
from d8span.delaunay import Triangulation, triangulation_from_triangles
from d8span.geometry import in_circle, orient


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


def dt_oracle(ps, *, cap: int = 1000) -> Triangulation:
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


def canonical_edges(T, p: int, i: int) -> tuple[tuple[int, int], ...]:
    """Consecutive members of cone i of p that form a triangle with p, looked
    up in the triangle list."""
    triangles = set(T.triangles)
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
