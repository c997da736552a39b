"""Independent correctness checks for the benchmark's outputs.

Nothing here calls d8span.  Geometric decisions use the benchmark's own exact
integer arithmetic: doubles are dyadic rationals, so scaling every
coordinate by one power of two turns them all into integers, and orientation,
in-circle, cone and bisector-length comparisons become integer sign tests.
Path lengths are floats and are compared with the relative tolerance the
theorem checks allow (``RTOL``).

Each check raises ``CheckFailed`` with a message naming what went wrong.
"""

from __future__ import annotations

import heapq
import math
from functools import cmp_to_key

import numpy as np

# Per-edge stretch bound 1 + theta/sin(theta) for 60-degree cones.
PER_EDGE_BOUND = 1.0 + (math.pi / 3) / math.sin(math.pi / 3)
# The Delaunay triangulation is a 1.998-spanner of the complete graph (Xia,
# 2013), so the spanner's ratio against Euclidean distance is at most
# 1.998 * PER_EDGE_BOUND, the paper's ~4.414.
EUCLID_BOUND = 1.998 * PER_EDGE_BOUND
RTOL = 1e-9

# Twice the bisector projection of (dx, dy) in cone i is
# sqrt(3) * KX[i] * dx + KY[i] * dy (cone 0 points up, numbered clockwise).
KX = (0, 1, 1, 0, -1, -1)
KY = (2, 1, -1, -2, -1, 1)


class CheckFailed(AssertionError):
    """An output of the program violates a property the method guarantees."""


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def exact_coords(xs, ys) -> tuple[list[int], list[int]]:
    """Integer coordinates X = x * 2^k, Y = y * 2^k for one common k."""
    ratios = [float(v).as_integer_ratio() for v in (*xs, *ys)]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (shift - (den.bit_length() - 1)) for num, den in ratios]
    n = len(xs)
    return ints[:n], ints[n:]


def orient(X, Y, a: int, b: int, c: int) -> int:
    """+1 if c is left of the directed line a->b, -1 if right, 0 on it."""
    return _sign(
        (X[b] - X[a]) * (Y[c] - Y[a]) - (Y[b] - Y[a]) * (X[c] - X[a])
    )


def in_circle(X, Y, a: int, b: int, c: int, d: int) -> int:
    """+1 if d is inside the circle through the counter-clockwise a, b, c,
    -1 outside, 0 on it."""
    adx, ady = X[a] - X[d], Y[a] - Y[d]
    bdx, bdy = X[b] - X[d], Y[b] - Y[d]
    cdx, cdy = X[c] - X[d], Y[c] - Y[d]
    return _sign(
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def cone(dx: int, dy: int) -> int:
    """Cone of direction (dx, dy): cone i spans the clockwise angles from
    north in [60i - 30, 60i + 30] and owns its counter-clockwise boundary.

    The boundaries at +-30 and +-150 degrees satisfy dy^2 = 3 dx^2, which has
    no nonzero rational solution, so only the horizontal ones need a rule.
    """
    if dy == 0:
        return 2 if dx > 0 else 5
    steep = dy * dy > 3 * dx * dx
    if dy > 0:
        return 0 if steep else (1 if dx > 0 else 5)
    return 3 if steep else (2 if dx > 0 else 4)


def _sign_sqrt3(a: int, b: int) -> int:
    """Sign of a * sqrt(3) + b."""
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -int(a < 0 or b < 0)
    # Opposite signs; 3a^2 = b^2 is impossible for a != 0.
    return _sign(a) if 3 * a * a > b * b else _sign(b)


def not_longer(X, Y, p: int, i: int, r: int, q: int) -> bool:
    """Bisector length of (p, r) <= that of (p, q), both in cone i of p."""
    return _sign_sqrt3(KX[i] * (X[r] - X[q]), KY[i] * (Y[r] - Y[q])) <= 0


def convex_hull(X, Y) -> list[int]:
    """Hull vertices in counter-clockwise order (Andrew's monotone chain)."""
    order = sorted(range(len(X)), key=lambda i: (X[i], Y[i]))

    def chain(ids):
        out: list[int] = []
        for i in ids:
            while len(out) >= 2 and orient(X, Y, out[-2], out[-1], i) <= 0:
                out.pop()
            out.append(i)
        return out

    lower, upper = chain(order), chain(reversed(order))
    return lower[:-1] + upper[:-1]


def check_points(xs, ys, parsed_xs, parsed_ys) -> None:
    """The point file round-trips bit-exactly; no coincident points and no
    two points at equal y (a horizontal pair lies on a cone boundary)."""
    a = np.array([xs, ys], dtype=np.float64).view(np.uint64)
    b = np.array([parsed_xs, parsed_ys], dtype=np.float64).view(np.uint64)
    if a.shape != b.shape or not np.array_equal(a, b):
        raise CheckFailed("point file does not round-trip bit-exactly")
    n = len(xs)
    if len(set(zip(xs, ys))) != n:
        raise CheckFailed("generated set has coincident points")
    if len(set(ys)) != n:
        raise CheckFailed("generated set has two points at equal y")


def check_triangulation(X, Y, triangles, edges) -> None:
    """The triangles form a valid Delaunay triangulation of all the points.

    Validity: every triangle is non-degenerate and, once oriented
    counter-clockwise, each directed edge borders at most one of them; the
    directed edges without a twin are exactly the convex hull's, and the
    Euler counts 2n-2-h triangles and 3n-3-h edges hold.  Delaunay: every
    interior edge is strictly locally Delaunay, which for a triangulation
    means globally Delaunay with no four cocircular vertices deciding it.
    """
    n = len(X)
    opposite: dict[tuple[int, int], int] = {}  # directed edge -> apex on its left
    for tri in triangles:
        a, b, c = tri
        o = orient(X, Y, a, b, c)
        if o == 0:
            raise CheckFailed(f"degenerate triangle {tri}")
        if o < 0:
            b, c = c, b
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            if (u, v) in opposite:
                raise CheckFailed(f"directed edge {(u, v)} borders two triangles")
            opposite[(u, v)] = w
    tri_edges = {_key(u, v) for u, v in opposite}
    if tri_edges != set(edges):
        raise CheckFailed(
            f"edge set differs from the triangles' edges in "
            f"{len(tri_edges ^ set(edges))} edges"
        )
    hull = convex_hull(X, Y)
    h = len(hull)
    boundary = {e for e in opposite if (e[1], e[0]) not in opposite}
    if boundary != {(hull[k], hull[(k + 1) % h]) for k in range(h)}:
        raise CheckFailed("the triangulation's boundary is not the convex hull")
    if len(triangles) != 2 * n - 2 - h or len(tri_edges) != 3 * n - 3 - h:
        raise CheckFailed(
            f"Euler counts fail: {len(triangles)} triangles and "
            f"{len(tri_edges)} edges for n={n}, h={h}"
        )
    for (u, v), w in opposite.items():
        if u < v and (v, u) in opposite:
            s = in_circle(X, Y, u, v, w, opposite[(v, u)])
            if s >= 0:
                raise CheckFailed(
                    f"edge {(u, v)} is not locally Delaunay "
                    f"({'cocircular' if s == 0 else 'opposite vertex inside'})"
                )


def cone_lists(X, Y, dt_edges) -> dict[tuple[int, int], list[int]]:
    """(vertex, cone) -> its Delaunay neighbours in that cone, clockwise."""
    lists: dict[tuple[int, int], list[int]] = {}
    for u, v in dt_edges:
        lists.setdefault((u, cone(X[v] - X[u], Y[v] - Y[u])), []).append(v)
        lists.setdefault((v, cone(X[u] - X[v], Y[u] - Y[v])), []).append(u)
    for (p, _), vs in lists.items():
        # Within one 60-degree cone, v is clockwise of u iff it is right of p->u.
        vs.sort(key=cmp_to_key(lambda u, v, p=p: orient(X, Y, p, u, v)))
    return lists


def canonical_completion(X, Y, triangles, cones, occupant) -> set[tuple[int, int]]:
    """E_CAN recomputed from E_A by the construction's completion rules.

    For each E_A edge (p, r), from both ends, with r in cone i of p: the
    canonical subgraph keeps p's cone-i neighbours no shorter than r in
    bisector length, joined by consecutive pairs that form a triangle with p.
    Its inner edges are added (step 2), the edge at r when r is extremal
    (step 3), and each extremal edge (y, z) by the cone of z holding y
    (step 4): always in cone i+5 (mirrored: i+1); in cone i+4 (mirrored:
    i+2) when no E_A edge leaves z there, else, unless that edge goes to y,
    z's one canonical edge in that cone with endpoint y.
    """
    tri = {tuple(sorted(t)) for t in triangles}

    def canonical_edges(p, vs):
        return [(u, v) for u, v in zip(vs, vs[1:]) if tuple(sorted((p, u, v))) in tri]

    out: set[tuple[int, int]] = set()
    for (p, i), r in occupant.items():
        nb = cones[(p, i)]
        keep = [v for v in nb if v == r or not_longer(X, Y, p, i, r, v)]
        kept = set(keep)
        edges = [(u, v) for u, v in canonical_edges(p, nb) if u in kept and v in kept]
        out.update(_key(u, v) for u, v in edges[1:-1])
        if len(edges) > 1:
            if r == keep[0]:
                out.add(_key(*edges[0]))
            elif r == keep[-1]:
                out.add(_key(*edges[-1]))
        if not edges:
            continue
        for (y, z), outer, inner in (
            (edges[-1], (i + 5) % 6, (i + 4) % 6),
            (edges[0][::-1], (i + 1) % 6, (i + 2) % 6),
        ):
            j = cone(X[y] - X[z], Y[y] - Y[z])
            if j == outer:
                out.add(_key(y, z))
            elif j == inner:
                u = occupant.get((z, inner))
                if u is None:
                    out.add(_key(y, z))
                elif u != y:
                    found = [e for e in canonical_edges(z, cones[(z, inner)]) if y in e]
                    if len(found) != 1:
                        raise CheckFailed(
                            f"vertex {z} has {len(found)} canonical edges with "
                            f"endpoint {y} in cone {inner}"
                        )
                    out.add(_key(*found[0]))
    return out


def check_selection(X, Y, triangles, dt_edges, e_a, e_can) -> dict:
    """Subset, degree, one-per-cone, greedy-blocker and completion checks.

    Together, "at most one E_A edge per (vertex, cone)" and "every rejected
    Delaunay edge has an E_A edge no longer in bisector length in its cone at
    one of its endpoints" characterise the greedy incident selection; E_CAN
    must then equal ``canonical_completion`` of E_A.  Returns the degree
    summary the audit report must match.
    """
    dt = set(dt_edges)
    d8 = set(e_a) | set(e_can)
    stray = d8 - dt
    if stray:
        raise CheckFailed(
            f"{len(stray)} selected edges are not Delaunay edges, "
            f"e.g. {min(stray)}"
        )
    n = len(X)
    deg, deg_a = [0] * n, [0] * n
    for u, v in d8:
        deg[u] += 1
        deg[v] += 1
    for u, v in e_a:
        deg_a[u] += 1
        deg_a[v] += 1
    if max(deg, default=0) > 8 or max(deg_a, default=0) > 6:
        raise CheckFailed(
            f"degree bound fails: max degree {max(deg)}, on E_A {max(deg_a)}"
        )
    occupant: dict[tuple[int, int], int] = {}  # (vertex, cone) -> E_A neighbour
    for u, v in e_a:
        i = cone(X[v] - X[u], Y[v] - Y[u])
        j = cone(X[u] - X[v], Y[u] - Y[v])
        if j != (i + 3) % 6:
            raise CheckFailed(f"cones of {(u, v)} are not opposite: {i}, {j}")
        for key, other in (((u, i), v), ((v, j), u)):
            if key in occupant:
                raise CheckFailed(
                    f"two E_A edges leave vertex {key[0]} into cone {key[1]}: "
                    f"to {occupant[key]} and {other}"
                )
            occupant[key] = other
    e_a_set = set(e_a)
    for p, q in dt:
        if (p, q) in e_a_set:
            continue
        i = cone(X[q] - X[p], Y[q] - Y[p])
        j = (i + 3) % 6
        r = occupant.get((p, i))
        if r is not None and not_longer(X, Y, p, i, r, q):
            continue
        u = occupant.get((q, j))
        if u is not None and not_longer(X, Y, q, j, u, p):
            continue
        raise CheckFailed(f"Delaunay edge {(p, q)} was rejected with no blocker")
    expected = canonical_completion(X, Y, triangles, cone_lists(X, Y, dt), occupant)
    if expected != set(e_can):
        diff = expected ^ set(e_can)
        raise CheckFailed(
            f"E_CAN differs from the canonical completion of E_A in {len(diff)} "
            f"edges, e.g. {min(diff)}"
        )
    hist: dict[int, int] = {}
    for d in deg:
        hist[d] = hist.get(d, 0) + 1
    return {
        "histogram": hist,
        "max_degree": max(deg, default=0),
        "e_a_max_degree": max(deg_a, default=0),
    }


def check_stretch(xs, ys, dt_edges, d8_edges) -> float:
    """Every Delaunay edge (p, q) has a spanner path of length at most
    PER_EDGE_BOUND * |pq| * (1 + RTOL).

    One Dijkstra per source vertex, cut off at the largest bound among its
    edges.  Returns the largest path-to-edge-length ratio, exact up to float
    summation since every path is found within its bound.
    """
    n = len(xs)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v in d8_edges:
        w = math.hypot(xs[v] - xs[u], ys[v] - ys[u])
        adj[u].append((v, w))
        adj[v].append((u, w))
    targets: dict[int, list[int]] = {}
    for p, q in dt_edges:
        targets.setdefault(p, []).append(q)
    worst = 0.0
    for p, qs in targets.items():
        length = {q: math.hypot(xs[q] - xs[p], ys[q] - ys[p]) for q in qs}
        cutoff = PER_EDGE_BOUND * max(length.values()) * (1 + RTOL)
        dist = {p: 0.0}
        settled: set[int] = set()
        left = len(qs)
        heap = [(0.0, p)]
        while heap and left:
            d, v = heapq.heappop(heap)
            if v in settled:
                continue
            settled.add(v)
            if v in length:
                left -= 1
            for w, l in adj[v]:
                nd = d + l
                if nd <= cutoff and nd < dist.get(w, math.inf):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        for q, lpq in length.items():
            d = dist.get(q, math.inf) if q in settled else math.inf
            if d > PER_EDGE_BOUND * lpq * (1 + RTOL):
                raise CheckFailed(
                    f"Delaunay edge {(p, q)} has no spanner path within "
                    f"{PER_EDGE_BOUND:.6f} * |pq|"
                )
            worst = max(worst, d / lpq)
    return worst


def check_report(doc: dict, degrees: dict, with_stretch: bool, worst: float) -> None:
    """The audit report says ok and agrees with the benchmark's own figures."""
    if doc.get("ok") is not True:
        raise CheckFailed("audit report is not ok")
    got = doc["degrees"]
    if (
        got["max_degree"] != degrees["max_degree"]
        or got["e_a_max_degree"] != degrees["e_a_max_degree"]
        or got["histogram"] != {str(k): v for k, v in sorted(degrees["histogram"].items())}
    ):
        raise CheckFailed(f"report degrees {got} differ from {degrees}")
    s = doc["stretch"]
    if not with_stretch:
        if s is not None:
            raise CheckFailed("report has a stretch section that was not asked for")
        return
    if s is None or s["connected"] is not True:
        raise CheckFailed("report lacks a connected stretch section")
    if not abs(s["max_edge_ratio"] - worst) <= RTOL * worst:
        raise CheckFailed(
            f"report max_edge_ratio {s['max_edge_ratio']!r} differs from the "
            f"benchmark's {worst!r}"
        )
    if not s["all_pairs_max_ratio_vs_euclid"] <= EUCLID_BOUND * (1 + RTOL):
        raise CheckFailed(
            f"all-pairs ratio vs Euclid {s['all_pairs_max_ratio_vs_euclid']!r} "
            f"exceeds {EUCLID_BOUND:.6f}"
        )
