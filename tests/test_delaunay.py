import math

import pytest
from scipy.spatial import QhullError

from conftest import random_points
from d8span import builder, delaunay
from d8span.analysis import run_audits
from d8span.builder import add_incident, construct_d8, sort_edges
from d8span.delaunay import (
    ConstructionError,
    _verify_delaunay_triangles,
    build_dt,
    canonical_subgraph,
    cone_neighbourhood,
    dt_oracle,
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
    # reporting a coplanar point; the exact verification rejects it
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
    _verify_delaunay_triangles(ps, [(0, 1, 3), (1, 2, 3)])
    with pytest.raises(ConstructionError, match="is not Delaunay"):
        _verify_delaunay_triangles(ps, [(0, 1, 2), (0, 2, 3)])
    assert builder.ConstructionError is ConstructionError


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
    pts = [(0, 0.1), (10, 0.3), (10.4, 10.1), (0.2, 9.9), (5.1, 5.2)]
    T = build_dt(PointSet.from_pairs(pts))
    O = dt_oracle(PointSet.from_pairs(pts))
    assert T.edges == O.edges
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


def test_ring_is_clockwise():
    ps = random_points(4, 30)
    T = build_dt(ps)
    for p in range(len(ps)):
        ring = T.ring(p)
        angles = [
            (90.0 - math.degrees(math.atan2(ps.ys[v] - ps.ys[p], ps.xs[v] - ps.xs[p])))
            % 360.0
            for v in ring
        ]
        assert angles == sorted(angles)
        assert len(set(ring)) == len(ring)


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
            ring = list(T.ring(p))
            assert any(seen == ring[k:] + ring[:k] for k in range(len(ring)))


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
    # on a Delaunay triangulation: no hull vertex with a third neighbour has
    # a canonical edge joining its two hull neighbours
    T = build_dt(random_points(8, 20))
    for p in range(len(T.points)):
        canon = [
            e for i in range(6) for e in cone_neighbourhood(T, p, i).canonical_edges
        ]
        hull_nbrs = [
            v for v in T.ring(p)
            if sum(p in t and v in t for t in T.triangles) == 1
        ]
        if hull_nbrs and len(T.ring(p)) >= 3:
            a, b = hull_nbrs
            assert (a, b) not in canon and (b, a) not in canon


def test_canonical_subgraph_anchor_only():
    pts = [(0, 0), (0.3, 2.1), (2.2, -0.7)]
    T = build_dt(PointSet.from_pairs(pts))
    can = canonical_subgraph(T, 0, 1)
    assert can.vertices == (1,)
    assert can.edges == ()
    assert can.roles[1] == "anchor"


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
    assert can.roles[r] == "anchor"
    assert can.roles[1] == "end" and can.roles[4] == "end"
    assert can.roles[2] == "inner"
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
        e_a = add_incident(T, sort_edges(T))
        for p, r in e_a:
            assert canonical_subgraph(T, p, r).is_path()
            assert canonical_subgraph(T, r, p).is_path()


def test_dt_oracle_cap():
    with pytest.raises(ValueError):
        dt_oracle(random_points(1, 20), cap=10)
