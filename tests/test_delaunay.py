import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay as QhullDelaunay
from scipy.spatial import QhullError

from conftest import arc_fan, converging_rows, random_points
from oracles import (
    canonical_edges,
    dt_oracle,
    reference_certify,
    reference_hull,
    reference_subgraph,
)
from d8span import builder, delaunay
from d8span.analysis import run_audits
from d8span.builder import add_incident, construct_d8, sort_edges
from d8span.delaunay import (
    CanonicalSubgraph,
    ConstructionError,
    Triangulation,
    build_dt,
    canonical_subgraph,
    canonical_subgraphs,
    certify_delaunay,
    cone_neighbourhood,
    cones_of,
    edge_arrays,
    edge_key,
    triangulation_from_triangles,
)
from d8span.geometry import (
    GeneralPositionError,
    PointSet,
    bisector_distance,
    cone_index,
    in_circle,
    orient,
)
from d8span.pointio import RunConfig, generate


def test_two_points_single_edge():
    T = build_dt(PointSet.from_pairs([(0, 0), (1, 2)]))
    assert T.edges == {(0, 1)}
    assert T.triangles == ()


def test_three_points_one_triangle():
    T = build_dt(PointSet.from_pairs([(0, 0), (4, 1), (1, 5)]))
    assert len(T.edges) == 3
    assert T.triangles == ((0, 1, 2),)


def test_one_point():
    T = build_dt(PointSet.from_pairs([(3, 7)]))
    assert T.edges == frozenset()


def test_collinear_input_rejected():
    with pytest.raises(GeneralPositionError):
        build_dt(PointSet.from_pairs([(0, 0), (1, 1), (2, 2), (3, 3)]))


def test_slope_zero_rejected_up_front():
    with pytest.raises(GeneralPositionError):
        build_dt(PointSet.from_pairs([(0, 0), (5, 0), (2, 3)]))


def test_horizontal_run_reports_consecutive_pairs():
    # k points sharing a y give k - 1 violations, not k(k - 1)/2
    ps = PointSet.from_pairs([(float(x), 0.0) for x in range(3000)])
    with pytest.raises(GeneralPositionError) as err:
        build_dt(ps)
    vs = err.value.violations
    assert len(vs) == 2999
    assert {v.kind for v in vs} == {"slope"}
    assert [v.ids for v in vs] == [(i, i + 1) for i in range(2999)]


def test_empty_circle_quadruple_rejected():
    # Qhull splits the square-like quadruple into two triangles without
    # reporting a coplanar point; the certificate rejects it
    ps = PointSet.from_pairs([(3, 4), (4, 3), (-3, -4), (0, 5)])
    with pytest.raises(GeneralPositionError) as err:
        build_dt(ps)
    assert [str(v) for v in err.value.violations] == ["cocircular(0, 1, 2, 3)"]


@pytest.mark.parametrize(
    "pts",
    [
        # collinear triple on the hull
        [(0, 0), (1, 1), (2, 2), (0.3, 1.7)],
        # collinear triple inside the hull
        [(-1, 0), (5, 0.5), (4, 6), (-0.5, 5.5), (1, 1), (2, 2), (3, 3)],
        # four collinear hull points
        [(0, 0), (1, 1), (2, 2), (3, 3), (0.5, 2.7)],
        # cocircular quadruple with a point inside its circle
        [(3, 4), (4, 3), (-3, -4), (0, 5), (0.1, 0.3)],
    ],
    ids=["hull-collinear", "interior-collinear", "four-collinear-hull", "cocircular-filled"],
)
def test_unscreened_degeneracies_build_and_audit(pts):
    # collinear and non-empty cocircular sets leave the Delaunay
    # triangulation unique: the construction and every audit hold on them
    T, sel = construct_d8(PointSet.from_pairs(pts))
    assert run_audits(T, sel).ok


def test_non_delaunay_triangles_raise_construction_error():
    # a convex kite split along its long diagonal (0, 2): vertex 3 lies
    # inside the circumcircle of (0, 1, 2); the short diagonal is Delaunay
    ps = PointSet.from_pairs([(0, 0), (2, -1), (4, 0.5), (2, 1)])
    certify_delaunay(ps, [(0, 1, 3), (1, 2, 3)])
    with pytest.raises(ConstructionError, match="is not Delaunay"):
        certify_delaunay(ps, [(0, 1, 2), (0, 2, 3)])
    assert builder.ConstructionError is ConstructionError


SQUARE_PLUS_CENTER = [(0, 0.1), (10, 0.3), (10.4, 10.1), (0.2, 9.9), (5.1, 5.2)]
SQUARE_FAN = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]


@pytest.mark.parametrize(
    "pts, triangles, error, match",
    [
        (SQUARE_PLUS_CENTER, SQUARE_FAN[:3], ConstructionError, "not the convex hull"),
        (SQUARE_PLUS_CENTER, SQUARE_FAN + [(0, 1, 4)], ConstructionError, "two"),
        (SQUARE_PLUS_CENTER, SQUARE_FAN[:2], ConstructionError, r"no triangle: \(3,"),
        ([(0, 0), (1, 1), (2, 2), (0.3, 1.7)], [(0, 1, 2)], ConstructionError, "degen"),
        # a dart: point 3 is inside the hull (0, 1, 2) but on the boundary
        (
            [(0, 0), (4, 0.5), (2, 4), (2, 1.2)],
            [(0, 1, 3), (1, 2, 3)],
            ConstructionError,
            "not the convex hull",
        ),
        (
            [(3, 4), (4, 3), (-3, -4), (0, 5)],
            [(0, 1, 3), (1, 2, 3)],
            GeneralPositionError,
            r"cocircular\(0, 1, 2, 3\)",
        ),
    ],
    ids=[
        "missing-triangle",
        "edge-twice",
        "missing-vertex",
        "degenerate",
        "dart",
        "empty-circle",
    ],
)
def test_certificate_negative_controls(pts, triangles, error, match):
    with pytest.raises(error, match=match):
        certify_delaunay(PointSet.from_pairs(pts), triangles)


def _outcome(check, ps, triangles):
    try:
        check(ps, triangles)
    except (ConstructionError, GeneralPositionError) as exc:
        return type(exc), str(exc)
    return None


def _corrupted(ps, rng):
    """Qhull's triangles, then damaged copies: shuffled, unsorted, dropped,
    repeated, re-pointed, made degenerate, with an edge flipped, and with
    both a repeat and a degenerate triangle."""
    good = [tuple(t) for t in build_dt(ps).triangles]
    out = [good]
    shuffled = [tuple(rng.permutation(t).tolist()) for t in good]
    rng.shuffle(shuffled)
    out.append(shuffled)
    for _ in range(3):
        k = int(rng.integers(len(good)))
        out.append(good[:k] + good[k + 1 :])
        out.append(good[:k] + [good[int(rng.integers(len(good)))]] + good[k:])
        bad = list(shuffled)
        a, b, _ = bad[k]
        bad[k] = (a, b, int(rng.integers(len(ps))))
        out.append(bad)
    # an edge flip: two triangles on one edge become the other diagonal's
    sides = {}
    for k, t in enumerate(good):
        for e in itertools.combinations(t, 2):
            sides.setdefault(e, []).append(k)
    for e, ks in sorted(sides.items())[:4]:
        if len(ks) == 2:
            c, d = (sum(good[k]) - sum(e) for k in ks)
            rest = [t for k, t in enumerate(good) if k not in ks]
            out.append(rest + [(e[0], c, d), (e[1], c, d)])
    # a repeated directed edge and a degenerate triangle, in each order:
    # the error is the one the scan meets first
    a, b, _ = good[0]
    flat = (a, b, a)
    out.append(good[:1] + good + [flat])
    out.append([flat] + good + good[:1])
    return out


@pytest.mark.parametrize("seed", range(6))
def test_certificate_matches_scalar_reference(seed):
    # the array certificate accepts what the scan accepts and reports the
    # first failure the scan meets, with the same message
    rng = np.random.default_rng(seed)
    for ps in (random_points(seed, 12 + 9 * seed), generate(RunConfig(40, seed=seed))):
        for triangles in _corrupted(ps, rng):
            expected = _outcome(reference_certify, ps, triangles)
            assert _outcome(certify_delaunay, ps, triangles) == expected


def test_certificate_reports_every_cocircular_quadruple():
    # a 3 x 3 grid rotated by (3, 4): integer points, no two at one y, and
    # every unit square's corners on one empty circle
    pts = [(3 * i - 4 * j, 4 * i + 3 * j) for i in range(3) for j in range(3)]
    ps = PointSet.from_pairs(pts)
    simplices = np.sort(QhullDelaunay(ps.coords()).simplices, axis=1)
    triangles = [tuple(t) for t in simplices.tolist()]
    expected = _outcome(reference_certify, ps, triangles)
    assert expected[0] is GeneralPositionError
    assert _outcome(certify_delaunay, ps, triangles) == expected


def _hull_sets():
    rng = np.random.default_rng(3)
    circle = np.linspace(0, 2 * np.pi, 50, endpoint=False) + 0.01
    return {
        "random": rng.uniform(-1, 1, (300, 2)),
        "small": rng.uniform(-1, 1, (4, 2)),
        # collinear points on hull edges, and x ties on the left and right
        "lattice": [(i, 3 * j + i % 3) for i in range(6) for j in range(5)],
        "circle": np.column_stack([np.cos(circle), np.sin(circle)]),
        "annulus": generate(RunConfig(200, seed=1, distribution="annulus")).coords(),
        # x + y and x - y overflow to infinity
        "huge": rng.uniform(-1, 1, (100, 2)) * 1.7e308,
        "tiny": rng.uniform(-1, 1, (100, 2)) * 2.0**-1000,
    }


@pytest.mark.parametrize("name", sorted(_hull_sets()))
def test_hull_filter_keeps_the_chain(name):
    # the chain over the points the extreme-point polygon does not hold
    # strictly inside is the chain over all of them
    ps = PointSet.from_pairs(_hull_sets()[name])
    xs, ys = np.asarray(ps.xs), np.asarray(ps.ys)
    assert delaunay._convex_hull(xs, ys) == reference_hull(ps)


def test_qhull_failure_on_non_collinear_set(monkeypatch):
    # a Qhull failure is reported as collinear only when it is
    def fail(coords):
        raise QhullError("QH6154 Qhull precision error: Initial simplex is flat")

    monkeypatch.setattr(delaunay, "_SciPyDelaunay", fail)
    with pytest.raises(ConstructionError, match="not all collinear"):
        build_dt(random_points(3, 20))
    with pytest.raises(GeneralPositionError, match="collinear"):
        build_dt(PointSet.from_pairs([(0, 0), (1, 1), (2, 2), (3, 3)]))


def test_square_plus_center():
    # perturbed square with center: 4 hull edges + 4 spokes
    pts = SQUARE_PLUS_CENTER
    T = build_dt(PointSet.from_pairs(pts))
    O = dt_oracle(PointSet.from_pairs(pts))
    assert T.edges == O.edges
    assert sorted(T.triangles) == sorted(SQUARE_FAN)
    assert len(T.edges) == 8
    assert all((i, 4) in T.edges or (4, i) in T.edges for i in range(4))


@pytest.mark.parametrize("seed", range(40))
def test_dt_matches_oracle(seed):
    n = 5 + (seed * 7) % 45
    ps = random_points(seed + 1000, n)
    assert build_dt(ps).edges == dt_oracle(ps).edges


def test_empty_circumcircle_property():
    ps = random_points(3, 35)
    T = build_dt(ps)
    for tri in T.triangles:
        a, b, c = (ps[v] for v in tri)
        if orient(a, b, c) < 0:
            b, c = c, b
        for m in range(len(ps)):
            if m in tri:
                continue
            assert in_circle(a, b, c, ps[m]) == -1


def _cw_from_north_cmp(ps, p):
    """Comparator ordering neighbour ids clockwise starting from the upward
    vertical: by open half-plane, then by exact orientation."""
    px, py = ps.xs[p], ps.ys[p]

    def region(v):
        dx = ps.xs[v] - px
        dy = ps.ys[v] - py
        if dx == 0.0:
            return 0 if dy > 0 else 2
        return 1 if dx > 0 else 3

    def cmp(u, v):
        ru, rv = region(u), region(v)
        if ru != rv:
            return -1 if ru < rv else 1
        # Same open halfplane: u precedes v (clockwise) iff cross(u, v) < 0.
        return orient(ps[p], ps[u], ps[v])

    return functools.cmp_to_key(cmp)


def _oracle_walk(T, p):
    """p's neighbours in the order T.cone(p, 0), ..., T.cone(p, 5) must list
    them: the ring clockwise from the upward vertical, rotated so that the
    members of cone 0 left of p, which end the ring, come first."""
    ps = T.points
    nbrs = {v for e in T.edges if p in e for v in e if v != p}
    ring = sorted(nbrs, key=_cw_from_north_cmp(ps, p))
    wrapped = [
        v for v in ring if cone_index(ps[p], ps[v]) == 0 and ps.xs[v] < ps.xs[p]
    ]
    return wrapped + [v for v in ring if v not in wrapped]


def _assert_cones_match_oracle(T):
    ps = T.points
    for p in range(len(ps)):
        for i in range(6):
            assert all(cone_index(ps[p], ps[v]) == i for v in T.cone(p, i))
        walk = [v for i in range(6) for v in T.cone(p, i)]
        assert walk == _oracle_walk(T, p)


def _fan(pts, triangles):
    return triangulation_from_triangles(PointSet.from_pairs(pts), triangles)


# Points 1 and 2 lie on nearly one ray from the origin, in its cone 0: their
# clockwise-angle keys are the same double, but point 2 is exactly left of
# the ray to point 1, so it comes first clockwise.
_FLOAT_TIE = [(0, 0), (0.3944169531835956, 1.0), (1.9720847659179779, 5.0)]


def test_float_tie_in_a_cone_is_ordered_exactly():
    spy = mock.patch.object(delaunay, "orient", wraps=delaunay.orient)
    with spy as exact:
        T = _fan(_FLOAT_TIE, [(0, 1, 2)])
    assert T.cone(0, 0) == (2, 1)
    assert exact.call_count > 0  # the group was re-sorted by exact orient


def _without_a_side():
    # the interior side (x, y) of a canonical slot at x left out of the
    # edges: the corners x and y of its two triangles lose their slots, the
    # opposite corners keep theirs
    T = build_dt(random_points(11, 60))
    interior = {e for e in T.edges if sum(set(e) <= set(t) for t in T.triangles) == 2}
    side = next(
        edge_key(x, y)
        for x in range(len(T.points))
        for i in range(6)
        for y, _ in cone_neighbourhood(T, x, i).canonical_edges
        if edge_key(x, y) in interior
    )
    hand = Triangulation(T.points, T.edges - {side}, T.triangles)
    assert sum(hand._canon) < sum(T._canon)
    return hand


def _repeated_triangle():
    T = build_dt(random_points(11, 60))
    hand = Triangulation(T.points, T.edges, T.triangles + T.triangles[:1])
    assert hand._canon == T._canon
    return hand


def _unsorted_rows():
    # rows (a, c, b) of sorted triangles (a, b, c) name no triangle, though
    # their sides (a, b) and (a, c) are edges
    T = build_dt(random_points(11, 60))
    hand = Triangulation(T.points, T.edges, [(a, c, b) for a, b, c in T.triangles])
    assert not any(hand._canon)
    return hand


_CONE_CASES = pytest.mark.parametrize(
    "make",
    [
        lambda: build_dt(PointSet.from_pairs([])),
        lambda: build_dt(PointSet.from_pairs([(3, 7)])),
        # the other point in cone 0, right and then left of the vertical
        lambda: build_dt(PointSet.from_pairs([(0, 0), (1, 2)])),
        lambda: build_dt(PointSet.from_pairs([(0, 0), (-1, 2)])),
        lambda: build_dt(PointSet.from_pairs([(0, 0), (4, 1), (1, 5)])),
        lambda: build_dt(random_points(11, 60)),
        lambda: build_dt(
            generate(RunConfig(n=300, seed=5, distribution="annulus"))
        ),
        # three consecutive neighbours inside cone 0 of the origin
        lambda: _fan(
            [(0, 0), (-1.2, 4.1), (0.1, 5.3), (1.1, 3.9)], [(0, 1, 2), (0, 2, 3)]
        ),
        # four neighbours of the origin in cone 0, one straight up
        lambda: _fan(
            [(0, 0), (-1.5, 5.6), (-0.4, 5.1), (0.0, 4.9), (1.4, 5.5)],
            [(0, 1, 2), (0, 2, 3), (0, 3, 4)],
        ),
        # a hull fan with a gap inside cone 0 of the origin
        lambda: _fan(
            [(0, 0), (0.2, 1), (1, 0.1), (0.1, -1), (-1, -0.1), (-0.2, 1.01)],
            [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)],
        ),
        # two neighbours of the origin whose float order keys tie
        lambda: _fan(_FLOAT_TIE, [(0, 1, 2)]),
        # the tie, then a third neighbour after it in the same cone: the
        # re-sorted group keeps each neighbour's slot
        lambda: _fan(_FLOAT_TIE + [(2.5, 5.0)], [(0, 1, 2), (0, 1, 3)]),
        lambda: build_dt(
            generate(RunConfig(n=300, seed=3, distribution="gaussian"))
        ),
        _without_a_side,
        _repeated_triangle,
        _unsorted_rows,
    ],
    ids=[
        "n0", "n1", "n2-right", "n2-left", "n3", "random60", "annulus",
        "fan", "fan-vertical", "hull-gap", "float-tie", "float-tie-3",
        "gaussian", "without-a-side", "repeated", "unsorted-rows",
    ],
)


@_CONE_CASES
def test_cones_match_oracle(make):
    _assert_cones_match_oracle(make())


def _assert_canonical_edges_match_oracle(T):
    triangles = set(T.triangles)
    for p in range(len(T.points)):
        for i in range(6):
            assert cone_neighbourhood(T, p, i).canonical_edges == canonical_edges(
                T, p, i, triangles
            )


@_CONE_CASES
def test_canonical_edges_match_oracle(make):
    # each triangle corner marks its slot when its two sides are adjacent in
    # one cone: the same slots as a lookup of each consecutive pair's
    # triangle in the triangle list
    _assert_canonical_edges_match_oracle(make())


def _array_subgraphs(T) -> dict:
    """``canonical_subgraphs`` of every oriented edge, as CanonicalSubgraph
    values, after checking each block's per-edge facts against its ragged
    arrays."""
    nbr = T._nbr
    out = {}
    for b in canonical_subgraphs(T, *edge_arrays(sorted(T.edges))):
        m, c = np.cumsum(b.kept) - b.kept, np.cumsum(b.edges) - b.edges
        for k in range(len(b.p)):
            vertices = tuple(b.members[m[k] : m[k] + b.kept[k]].tolist())
            slots = b.canonical[c[k] : c[k] + b.edges[k]].tolist()
            edges = tuple((nbr[s], nbr[s + 1]) for s in slots)
            can = CanonicalSubgraph(
                int(b.p[k]), int(b.r[k]), int(b.cone[k]), vertices, edges
            )
            assert (b.first[k], b.last[k]) == (can.first_vertex, can.last_vertex)
            assert b.is_path[k] == can.is_path()
            ends = [slots[0], slots[-1]] if slots else [-1, -1]
            assert [b.first_edge[k], b.last_edge[k]] == ends
            out[can.apex, can.anchor] = can
    return out


def _assert_subgraphs_match_reference(T):
    got = _array_subgraphs(T)
    assert len(got) == 2 * len(T.edges)
    for (p, r), can in got.items():
        assert can == reference_subgraph(T, p, r)


@_CONE_CASES
def test_canonical_subgraphs_match_reference(make):
    _assert_subgraphs_match_reference(make())


@pytest.mark.parametrize("k", [3, 10, 60])
@pytest.mark.parametrize("jagged", [False, True], ids=["arc", "jagged"])
def test_canonical_subgraphs_match_reference_on_fans(k, jagged):
    _assert_subgraphs_match_reference(arc_fan(k, jagged))


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=3,
        max_size=14,
        unique_by=lambda p: p[1],  # no two points on a horizontal line
    )
)
@settings(max_examples=150, deadline=None)
def test_canonical_subgraphs_match_reference_on_small_sets(pairs):
    try:
        T = build_dt(PointSet.from_pairs(pairs))
    except (GeneralPositionError, ConstructionError):
        assume(False)
    _assert_subgraphs_match_reference(T)


@pytest.mark.parametrize("block", [2, 3, 8])
def test_canonical_subgraphs_blocks(monkeypatch, block):
    # one edge, an odd number of oriented edges and several edges per block
    # give the same subgraphs as one block
    T = build_dt(generate(RunConfig(n=300, seed=5, distribution="annulus")))
    whole = _array_subgraphs(T)
    monkeypatch.setattr(delaunay, "_SCAN_BLOCK", block)
    assert _array_subgraphs(T) == whole


def test_canonical_subgraphs_reject_non_edge():
    T = build_dt(random_points(11, 30))
    u, v = next((0, v) for v in range(1, 30) if (0, v) not in T.edges)
    with pytest.raises(ValueError, match="not a triangulation edge"):
        list(canonical_subgraphs(T, np.array([u]), np.array([v])))
    assert list(canonical_subgraphs(T, *edge_arrays([]))) == []


def test_cones_of_matches_cone_of():
    # both read the triangulation's one cone per edge; check them against
    # the clockwise rings, on every pair of ids
    T = build_dt(random_points(11, 60))
    n = len(T.points)
    p, q = np.divmod(np.arange(n * n), n)
    got = cones_of(T, p, q).tolist()
    for a, b, c in zip(p.tolist(), q.tolist(), got):
        ring = [i for i in range(6) if b in T.cone(a, i)]
        if ring:
            assert [c] == ring and T.cone_of(a, b) == c
        else:
            # a == b, or not neighbours, so not a DT pair
            assert c == -1 and not T.is_edge(a, b)
            with pytest.raises(ValueError):
                T.cone_of(a, b)


def test_cones_of_int32_ids_past_int32_keys():
    # the cone table hands out C int ids, and here n * n exceeds int32
    n = 50_000
    ps = PointSet.from_pairs(np.random.default_rng(1).uniform(0, 1, (n, 2)))
    T = triangulation_from_triangles(ps, [(0, n - 2, n - 1)])
    p = np.array([n - 1, n - 2, 0, 0], dtype=np.intc)
    q = np.array([n - 2, n - 1, n - 1, 1], dtype=np.intc)
    ring = [
        next((i for i in range(6) if b in T.cone(a, i)), -1)
        for a, b in zip(p.tolist(), q.tolist())
    ]
    assert cones_of(T, p, q).tolist() == ring and ring[-1] == -1


def test_cones_of_shuffled_pairs_match_cone_of():
    # the keys are searched in sorted order and the answers scattered back:
    # pairs in random order, misses and both orientations included
    T = build_dt(random_points(11, 60))
    n = len(T.points)
    rng = np.random.default_rng(3)
    p, q = rng.integers(0, n, 4000), rng.integers(0, n, 4000)
    u, v = np.divmod(T._keys, n)
    p, q = np.concatenate([p, u, v]), np.concatenate([q, v, u])
    order = rng.permutation(len(p))
    p, q = p[order], q[order]

    def scalar(a, b):
        try:
            return T.cone_of(a, b)
        except ValueError:
            return -1

    got = cones_of(T, p, q).tolist()
    assert got == [scalar(a, b) for a, b in zip(p.tolist(), q.tolist())]
    assert -1 in got and set(got) - {-1} == set(range(6))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 60])
def test_hand_built_triangulation_matches_arrays(n):
    # Triangulation(points, edges, triangles) and triangulation_from_triangles
    # hold the same arrays and show the same views
    ps = random_points(7, n)
    T = build_dt(ps)
    hand = Triangulation(ps, frozenset(T.edges), tuple(T.triangles))
    arrays = triangulation_from_triangles(ps, T._tri)
    for a in (hand, arrays):
        assert np.array_equal(a._keys, T._keys)
        assert np.array_equal(a._cone, T._cone)
        assert np.array_equal(a._tri, T._tri)
        assert (a._nbr, a._start, a._canon) == (T._nbr, T._start, T._canon)
        assert a.edges == T.edges and a.triangles == T.triangles
        assert a._by_key == sorted(T.edges)
        assert all(type(x) is int for e in a._by_key for x in e)
        assert all(type(x) is int for t in a.triangles for x in t)
        for x in (a._keys, a._cone, a._tri):
            with pytest.raises(ValueError):
                x[...] = 0


@pytest.mark.parametrize(
    "make",
    [lambda: converging_rows(2000)]
    + [
        lambda dist=dist: generate(RunConfig(n=2000, seed=7, distribution=dist))
        for dist in ("uniform-square", "gaussian", "annulus")
    ],
    ids=["converging-rows-2000", "uniform-square", "gaussian", "annulus"],
)
def test_cone_table_matches_scalar_references(make):
    # every key's cone is the scalar cone_index; each group holds exactly
    # the neighbours in its cone, clockwise by exact orient; and the
    # canonical slots are the triangle lookup's
    T = build_dt(make())
    ps = T.points
    group = {}
    for u, v in T._by_key:
        group.setdefault((u, cone_index(ps[u], ps[v])), set()).add(v)
        group.setdefault((v, cone_index(ps[v], ps[u])), set()).add(u)
    assert T._cone.tolist() == [cone_index(ps[a], ps[b]) for a, b in T._by_key]
    for p in range(len(ps)):
        for i in range(6):
            members = T.cone(p, i)
            assert set(members) == group.get((p, i), set())
            pairs = zip(members, members[1:])
            assert all(orient(ps[p], ps[v], ps[w]) < 0 for v, w in pairs)
    assert list(T._start) == np.cumsum(
        [0] + [len(group.get((p, i), ())) for p in range(len(ps)) for i in range(6)]
    ).tolist()
    _assert_canonical_edges_match_oracle(T)


def test_ring_is_clockwise():
    ps = random_points(4, 30)
    T = build_dt(ps)
    _assert_cones_match_oracle(T)
    for p in range(len(ps)):
        walk = [v for i in range(6) for v in T.cone(p, i)]
        # clockwise angle from cone 0's counter-clockwise boundary, 30
        # degrees left of the upward vertical
        angles = [
            (120.0 - math.degrees(math.atan2(ps.ys[v] - ps.ys[p], ps.xs[v] - ps.xs[p])))
            % 360.0
            for v in walk
        ]
        assert angles == sorted(angles)
        assert len(set(walk)) == len(walk)


def test_cone_neighbourhoods_partition_ring():
    for seed in range(10):
        ps = random_points(seed + 50, 25)
        T = build_dt(ps)
        for p in range(len(ps)):
            seen = []
            for i in range(6):
                nb = cone_neighbourhood(T, p, i)
                assert all(cone_index(ps[p], ps[v]) == i for v in nb.vertices)
                seen.extend(nb.vertices)
            # cones 0..5 in turn walk the whole ring clockwise once
            assert seen == _oracle_walk(T, p)


def test_cone_neighbourhood_consecutive_edges():
    # fan around the origin, three consecutive neighbours inside cone 0
    pts = [(0, 0), (-1.2, 4.1), (0.1, 5.3), (1.1, 3.9)]
    T = triangulation_from_triangles(
        PointSet.from_pairs(pts), [(0, 1, 2), (0, 2, 3)]
    )
    nb = cone_neighbourhood(T, 0, 0)
    assert nb.vertices == (1, 2, 3)
    assert nb.canonical_edges == ((1, 2), (2, 3))


def test_cone_neighbourhood_single_vertex_no_edges():
    T = build_dt(PointSet.from_pairs([(0, 0), (0.3, 2.1), (2.2, -0.7)]))
    i = cone_index(T.points[0], T.points[1])
    nb = cone_neighbourhood(T, 0, i)
    assert nb.vertices == (1,)
    assert nb.canonical_edges == ()


def test_hull_gap_is_not_a_canonical_edge():
    # the wheel does not close around hull vertices: the two extreme ring
    # neighbours of a hull vertex are not joined through the outside, even
    # when they are consecutive in one cone.  Here p = 0 has an outer-face
    # gap of about 22 degrees between 5 and 1, both in cone 0.
    pts = [(0, 0), (0.2, 1), (1, 0.1), (0.1, -1), (-1, -0.1), (-0.2, 1.01)]
    T = triangulation_from_triangles(
        PointSet.from_pairs(pts), [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)]
    )
    nb = cone_neighbourhood(T, 0, 0)
    assert nb.vertices == (5, 1)
    assert nb.canonical_edges == ()
    _assert_cones_match_oracle(T)
    # on a Delaunay triangulation: no hull vertex with a third neighbour has
    # a canonical edge joining its two hull neighbours
    T = build_dt(random_points(8, 20))
    _assert_cones_match_oracle(T)
    for p in range(len(T.points)):
        canon = [
            e for i in range(6) for e in cone_neighbourhood(T, p, i).canonical_edges
        ]
        ring = [v for i in range(6) for v in T.cone(p, i)]
        hull_nbrs = [
            v for v in ring if sum(p in t and v in t for t in T.triangles) == 1
        ]
        if hull_nbrs and len(ring) >= 3:
            a, b = hull_nbrs
            assert (a, b) not in canon and (b, a) not in canon


def test_canonical_subgraph_anchor_only():
    pts = [(0, 0), (0.3, 2.1), (2.2, -0.7)]
    T = build_dt(PointSet.from_pairs(pts))
    can = canonical_subgraph(T, 0, 1)
    assert can.vertices == (1,)
    assert can.edges == ()
    assert can.anchor == can.first_vertex == can.last_vertex == 1


def test_canonical_subgraph_inner_anchor_shape():
    # anchor r strictly inside the span, end vertices at both extremes
    pts = [(0, 0), (-1.5, 5.6), (-0.4, 5.1), (0.5, 4.9), (1.4, 5.5)]
    ps = PointSet.from_pairs(pts)
    T = triangulation_from_triangles(ps, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    # vertex 3 has the smallest bisector length, so nothing is filtered out
    r = min(range(1, 5), key=lambda v: bisector_distance(ps[0], ps[v]))
    assert r == 3
    can = canonical_subgraph(T, 0, r)
    assert can.vertices == (1, 2, 3, 4)
    assert can.anchor == r
    assert can.first_vertex == 1 and can.last_vertex == 4
    assert can.is_path()


def test_canonical_subgraph_requires_dt_edge():
    ps = random_points(9, 15)
    T = build_dt(ps)
    non_edge = None
    for u in range(len(ps)):
        for v in range(u + 1, len(ps)):
            if (u, v) not in T.edges:
                non_edge = (u, v)
                break
        if non_edge:
            break
    with pytest.raises(ValueError):
        canonical_subgraph(T, *non_edge)


def test_canonical_subgraph_filter_threshold():
    for seed in range(10):
        ps = random_points(seed + 70, 30)
        T = build_dt(ps)
        for u, v in sorted(T.edges):
            for p, r in ((u, v), (v, u)):
                can = canonical_subgraph(T, p, r)
                thr = bisector_distance(ps[p], ps[r])
                assert r in can.vertices
                for x in can.vertices:
                    assert bisector_distance(ps[p], ps[x]) >= thr * (1 - 1e-12)


def test_canonical_path_for_selected_edges():
    for seed in range(15):
        ps = random_points(seed + 90, 40)
        T = build_dt(ps)
        for p, r in add_incident(T, sort_edges(T)).edges:
            assert canonical_subgraph(T, p, r).is_path()
            assert canonical_subgraph(T, r, p).is_path()


def test_dt_oracle_cap():
    with pytest.raises(ValueError):
        dt_oracle(random_points(1, 20), cap=10)
