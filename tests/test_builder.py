import math

import numpy as np
import pytest

import test_analysis
import test_golden
from conftest import arc_fan, converging_rows, random_points
from oracles import e_a_occupant, reference_incident, reference_selection, reference_sort
from d8span import builder, delaunay
from d8span.builder import (
    add_canonical,
    add_incident,
    construct_d8,
    select_edges,
    sort_edges,
)
from d8span.delaunay import (
    ConstructionError,
    build_dt,
    canonical_subgraph,
    edge_key,
    marked_groups,
    marked_in,
    triangulation_from_triangles,
)
from d8span.geometry import PointSet, bisector_distance, cone_index
from d8span.pointio import RunConfig, generate


def _degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def test_single_point():
    T, sel = construct_d8(PointSet.from_pairs([(1, 2)]))
    assert sel.d8_edges == frozenset()


def test_two_points():
    T, sel = construct_d8(PointSet.from_pairs([(0, 0), (1, 2)]))
    assert sel.e_a == {(0, 1)}
    assert sel.d8_edges == {(0, 1)}


def test_sorted_edges_cover_dt_nondecreasing():
    ps = random_points(2, 30)
    T = build_dt(ps)
    L = sort_edges(T)
    edges = list(zip(L.u.tolist(), L.v.tolist()))
    assert sorted(edges) == sorted(T.edges)
    lengths = L.length.tolist()
    assert lengths == sorted(lengths)
    # cones and lengths match a direct recomputation, bit for bit
    for (u, v), i, length in zip(edges, L.cone.tolist(), lengths):
        assert i == cone_index(ps[u], ps[v])
        assert length == bisector_distance(ps[u], ps[v])


def _assert_reference_order(ps):
    T = build_dt(ps)
    L = sort_edges(T)
    assert list(zip(L.u.tolist(), L.v.tolist())) == [
        se.edge for se in reference_sort(T)
    ]


def test_sorted_edges_tie_break_deterministic():
    _assert_reference_order(random_points(3, 30))


def test_sorted_edges_exact_tie_broken_on_ids():
    # hull edges (0, 3) and (1, 2) are vertical with bisector length 1:
    # they tie, and (0, 3) comes first on its smaller id u
    _assert_reference_order(PointSet.from_pairs([(0, 0), (5, 0.5), (5, 1.5), (0, 1)]))


def test_sorted_edges_many_exact_ties_in_lexsort_order():
    # a ladder, its ids shuffled: its 21 edges have two bisector lengths,
    # 1 for the rails and one float for every rung, and the stable sort on
    # length alone gives the order of the full (length, u, v) sort
    pts = [(0.0, k) for k in range(6)] + [(5.0, k + 0.5) for k in range(6)]
    perm = np.random.default_rng(0).permutation(len(pts))
    T = build_dt(PointSet.from_pairs([pts[i] for i in perm]))
    L = sort_edges(T)
    u, v = np.divmod(T._keys, len(pts))
    length = np.array([bisector_distance(T.points[a], T.points[b]) for a, b in zip(u, v)])
    assert len(np.unique(length)) == 2
    order = np.lexsort((v, u, length))
    assert (L.u.tolist(), L.v.tolist()) == (u[order].tolist(), v[order].tolist())
    assert L.length.tolist() == length[order].tolist()


def _add_incident_reference(T):
    """Independent literal re-execution of the greedy scan, using its own
    angle-based cone classification."""
    ps = T.points

    def cone(p, q):
        ang = math.degrees(
            math.atan2(ps.ys[q] - ps.ys[p], ps.xs[q] - ps.xs[p])
        )
        cw = (90.0 - ang) % 360.0
        return int((cw + 30.0) // 60.0) % 6

    entries = sorted(
        T.edges,
        key=lambda e: (bisector_distance(ps[e[0]], ps[e[1]]), e),
    )
    accepted = set()
    taken = set()
    for p, q in entries:
        i = cone(p, q)
        if (p, i) in taken or (q, (i + 3) % 6) in taken:
            continue
        accepted.add((p, q))
        taken.add((p, i))
        taken.add((q, (i + 3) % 6))
    return accepted


@pytest.mark.parametrize("seed", range(25))
def test_add_incident_matches_reference(seed):
    ps = random_points(seed + 200, 5 + (seed * 11) % 70)
    T = build_dt(ps)
    assert set(add_incident(T, sort_edges(T)).edges) == _add_incident_reference(T)


def test_add_incident_two_competitors_in_one_cone():
    # both r and q sit in the top cone of p; the greedy scan admits at most
    # one edge at p into that cone
    pts = [(0, 0), (-0.3, 2), (0.35, 2.1)]
    ps = PointSet.from_pairs(pts)
    assert cone_index(ps[0], ps[1]) == 0
    assert cone_index(ps[0], ps[2]) == 0
    T = build_dt(ps)
    e_a = set(add_incident(T, sort_edges(T)).edges)
    at_p_cone0 = [
        e
        for e in e_a
        if 0 in e and cone_index(ps[0], ps[e[0] + e[1]]) == 0
    ]
    assert len(at_p_cone0) <= 1
    assert e_a == _add_incident_reference(T)


def _assert_incident_matches_reference(T):
    # the accepted set is the scalar scan's; the edges come in sorted order,
    # and each one is the occupant of both of its slots, which are the only
    # filled ones
    L = sort_edges(T)
    got = add_incident(T, L)
    assert set(got.edges) == reference_incident(T, reference_sort(T))
    row = {e: k for k, e in enumerate(zip(L.u.tolist(), L.v.tolist()))}
    taken = [row[e] for e in got.edges]
    assert taken == sorted(taken)
    filled = {}
    for k in taken:
        p, q, i = int(L.u[k]), int(L.v[k]), int(L.cone[k])
        filled[6 * p + i], filled[6 * q + (i + 3) % 6] = q, p
    assert {s: w for s, w in enumerate(got.occupant) if w >= 0} == filled


@pytest.mark.parametrize("n", [2, 3, 40, 500, 3000])
@pytest.mark.parametrize("distribution", ["uniform-square", "gaussian", "annulus"])
def test_add_incident_rounds_match_reference(distribution, n):
    T = build_dt(generate(RunConfig(n=n, seed=n, distribution=distribution)))
    _assert_incident_matches_reference(T)


def test_add_incident_converging_rows_reach_the_scan(monkeypatch):
    # along the zig-zag each round accepts few edges, so the rounds stop
    # and the scalar scan finishes the rest
    rows = []
    scan = builder._scan

    def spy(occupant, rest, *args):
        rows.append(len(rest))
        return scan(occupant, rest, *args)

    monkeypatch.setattr(builder, "_scan", spy)
    _assert_incident_matches_reference(build_dt(converging_rows(2000)))
    assert rows and rows[0] > 0


def test_add_incident_takes_triangulation_keys():
    # the accepted edges are triangulation edges in the order the sorted
    # list takes them, and the selection holds their keys in key order
    T = build_dt(random_points(5, 200))
    L = sort_edges(T)
    n = len(T.points)
    got = add_incident(T, L)
    key = got.u * n + got.v
    assert len(key) and np.isin(key, T._keys).all()
    taken = np.isin(L.u * n + L.v, key)
    for a, b in zip(got[:3], (L.u, L.v, L.cone)):
        assert np.array_equal(a, b[taken])
    u, v = select_edges(T).edge_arrays[0]
    assert np.array_equal(u * n + v, np.sort(key))


def test_one_e_a_edge_per_vertex_cone():
    for seed in range(20):
        ps = random_points(seed + 300, 60)
        T, sel = construct_d8(ps)
        slots = set()
        for u, v in sel.e_a:
            for p, q in ((u, v), (v, u)):
                slot = (p, cone_index(ps[p], ps[q]))
                assert slot not in slots
                slots.add(slot)


def test_e_a_degree_at_most_6():
    for seed in range(20):
        ps = random_points(seed + 400, 80)
        T, sel = construct_d8(ps)
        assert max(_degrees(len(ps), sel.e_a)) <= 6


def test_d8_degree_at_most_8():
    for seed in range(20):
        ps = random_points(seed + 500, 120)
        T, sel = construct_d8(ps)
        assert max(_degrees(len(ps), sel.d8_edges)) <= 8


def test_d8_subset_of_dt():
    for seed in range(10):
        ps = random_points(seed + 600, 70)
        T, sel = construct_d8(ps)
        assert sel.d8_edges <= T.edges


def test_add_canonical_requires_selected_edge():
    ps = random_points(5, 30)
    T, sel = construct_d8(ps)
    occupant = add_incident(T, sort_edges(T)).occupant
    outside = next(iter(T.edges - sel.e_a))
    with pytest.raises(ValueError, match="not in the selected incident set"):
        add_canonical(T, occupant, *outside)
    non_edge = next((0, v) for v in range(1, len(ps)) if (0, v) not in T.edges)
    with pytest.raises(ValueError, match="not a triangulation edge"):
        add_canonical(T, occupant, *non_edge)


def test_add_canonical_matches_select_edges():
    # the scalar entry point, edge by edge in sorted order, adds what the
    # array completion adds, in the same order
    T = build_dt(random_points(5, 150))
    got = add_incident(T, sort_edges(T))
    provenance: dict = {}
    for p, q in got.edges:
        for apex, anchor in ((p, q), (q, p)):
            for edge, prov in add_canonical(T, got.occupant, apex, anchor):
                provenance.setdefault(edge, []).append(prov)
    assert list(provenance.items()) == list(select_edges(T).provenance.items())


def test_step_4c_failure_names_the_subgraph():
    # a cone without the canonical edge step 4c needs is a construction
    # error that names the apex's subgraph: clear the canonical slots of the
    # first 4c event's cone, which only that cone's own subgraph reads
    T = build_dt(random_points(5, 60))
    e = select_edges(T).events
    k = int(np.flatnonzero(e.step == 4)[0])
    p, r, z, j = (int(x[k]) for x in (e.apex, e.anchor, e.end, e.cone))
    lo, hi = T._start[6 * z + j], T._start[6 * z + j + 1]
    canon = T._canon.copy()
    canon[lo:hi] = False
    object.__setattr__(T, "_canon", canon)
    message = (
        rf"canonical edge of {z} with endpoint \d+ in cone {j}; found \[\] "
        rf"\(apex {p}, anchor {r}, subgraph \("
    )
    with pytest.raises(ConstructionError, match=message):
        select_edges(T)


def test_provenance_steps_consistent():
    for seed in range(10):
        ps = random_points(seed + 700, 50)
        T, sel = construct_d8(ps)
        for edge, provs in sel.provenance.items():
            assert edge in sel.e_can
            for prov in provs:
                assert prov.step in ("2", "3", "4a", "4b", "4c")
                assert edge_key(prov.apex, prov.anchor) in sel.e_a
                can = canonical_subgraph(T, prov.apex, prov.anchor)
                if prov.step == "2":
                    assert len(can.edges) >= 3
                    assert edge in {edge_key(*e) for e in can.edges[1:-1]}
                elif prov.step == "3":
                    assert len(can.edges) > 1
                    assert prov.anchor in (can.first_vertex, can.last_vertex)
                    assert prov.anchor in edge
                elif prov.step in ("4a", "4b"):
                    extremal = {edge_key(*can.edges[0]), edge_key(*can.edges[-1])}
                    assert edge in extremal


def test_single_edge_subgraph_skips_step3():
    # when the subgraph has exactly one edge, step 3 must not fire
    for seed in range(10):
        ps = random_points(seed + 800, 50)
        T, sel = construct_d8(ps)
        for edge, provs in sel.provenance.items():
            for prov in provs:
                if prov.step == "3":
                    can = canonical_subgraph(T, prov.apex, prov.anchor)
                    assert len(can.edges) > 1


def test_determinism():
    ps = random_points(6, 90)
    T1, s1 = construct_d8(ps)
    T2, s2 = construct_d8(ps)
    assert s1.e_a == s2.e_a
    assert s1.e_can == s2.e_can
    assert T1.edges == T2.edges
    assert s1.provenance == s2.provenance


def _assert_python_ints(T, sel):
    # report._jsonable writes a numpy integer as a JSON string
    ids = [x for e in T.edges | sel.e_a | sel.e_can for x in e]
    for edge, provs in sel.provenance.items():
        ids += edge
        for prov in provs:
            ids += [prov.apex, prov.anchor, prov.end_vertex, prov.cone]
    assert all(type(x) is int for x in ids if x is not None)


_SELECTION_CASES = [
    (dist, n)
    for dist in ("uniform-square", "gaussian", "annulus")
    for n in (3, 4, 17, 120, 700, 2000)
]


@pytest.mark.parametrize(
    "make",
    [
        (lambda dist=dist, n=n: build_dt(
            generate(RunConfig(n=n, seed=n, distribution=dist))
        ))
        for dist, n in _SELECTION_CASES
    ]
    + [
        (lambda k=k, jagged=jagged: arc_fan(k, jagged))
        for k in (3, 10, 60)
        for jagged in (False, True)
    ]
    + [lambda: build_dt(converging_rows(2000))],
    ids=[f"{dist}-{n}" for dist, n in _SELECTION_CASES]
    + [f"{kind}-{k}" for k in (3, 10, 60) for kind in ("arc", "jagged")]
    + ["converging-rows-2000"],
)
def test_selection_matches_scalar_reference(make):
    # the array sort, the occupant record and the table-read cones select
    # what the scalar construction selects, provenance lists included
    T = make()
    sel = select_edges(T)
    e_a, e_can, provenance = reference_selection(T)
    assert sel.e_a == e_a
    assert sel.e_can == e_can
    assert list(sel.provenance.items()) == list(provenance.items())
    _assert_python_ints(T, sel)


@pytest.mark.parametrize("block", [2, 3, 64])
def test_selection_independent_of_block_size(monkeypatch, block):
    # the completion reads the canonical subgraphs block by block; the
    # provenance lists and their order do not depend on the blocks
    T = build_dt(generate(RunConfig(n=700, seed=700, distribution="annulus")))
    ref = select_edges(T)
    monkeypatch.setattr(delaunay, "_SCAN_BLOCK", block)
    sel = select_edges(T)
    assert sel.e_a == ref.e_a
    assert list(sel.provenance.items()) == list(ref.provenance.items())


@pytest.mark.parametrize("k", [-500, -300, 100, 240])
def test_power_of_two_scaling_keeps_selection(k):
    # scaling by 2**k is exact, so every predicate and the bisector order
    # see the same combinatorics; the array filters must not underflow or
    # overflow into a different decision
    ps = generate(RunConfig(300, seed=5))
    f = 2.0**k
    scaled = PointSet(ps.xs * f, ps.ys * f)
    _, sel = construct_d8(ps)
    _, got = construct_d8(scaled)
    assert got.e_a == sel.e_a
    assert got.e_can == sel.e_can


@pytest.mark.parametrize("distribution", ["uniform-square", "gaussian", "annulus"])
@pytest.mark.parametrize(
    "sx, sy, shuffle",
    [(-1.0, 1.0, False), (1.0, -1.0, False), (-1.0, -1.0, False), (1.0, 1.0, True)],
    ids=["mirror-x", "mirror-y", "mirror-both", "reorder"],
)
def test_reflection_and_reordering_keep_selection(distribution, sx, sy, shuffle):
    # negating a coordinate mirrors the cones and keeps every bisector length
    # the same float, and renumbering the points permutes the sorted edge
    # list only among ties: both are exact, so the spanner is the same once
    # the ids are mapped back
    ps = generate(RunConfig(300, seed=5, distribution=distribution))
    n = len(ps)
    perm = np.random.default_rng(5).permutation(n) if shuffle else np.arange(n)
    _, sel = construct_d8(ps)
    _, got = construct_d8(PointSet(sx * ps.xs[perm], sy * ps.ys[perm]))
    back = perm.tolist()
    for mapped, original in ((got.e_a, sel.e_a), (got.e_can, sel.e_can)):
        assert {edge_key(back[u], back[v]) for u, v in mapped} == original


_MARK_CASES = {
    "uniform-80": lambda: construct_d8(random_points(5, 80)),
    "annulus-200": lambda: construct_d8(
        generate(RunConfig(n=200, seed=2, distribution="annulus"))
    ),
    "reversed-pairs": test_analysis._selection_with_reversed_pairs,
    **{name: make for name, (make, *_) in test_golden.HAND_BUILT.items()},
}


@pytest.mark.parametrize("name", sorted(_MARK_CASES))
def test_marks_match_scalar_references(name):
    # every (vertex, cone): the first E_A mark clockwise is the scalar
    # occupant, and the E_A | E_CAN marks are the cone's selected neighbours,
    # pairs looked up low end first as in has_d8_edge
    T, sel = _MARK_CASES[name]()
    e_a, d8 = sel.marks(T)
    groups = marked_groups(T, d8)
    for v in range(len(T.points)):
        for i in range(6):
            cone = T.cone(v, i)
            first = marked_in(T, e_a, v, i)
            assert first == [w for w in cone if edge_key(v, w) in sel.e_a]
            assert (first[0] if first else None) == e_a_occupant(T, sel.e_a, v, i)
            selected = marked_in(T, d8, v, i)
            assert selected == [w for w in cone if sel.has_d8_edge(v, w)]
            assert all(type(w) is int for w in selected)
            assert groups[6 * v + i] == bool(selected)


def test_marks_are_kept_for_the_last_triangulation():
    T, sel = construct_d8(random_points(5, 80))
    e_a, d8 = sel.marks(T)
    assert all(a is b for a, b in zip(sel.marks(T), (e_a, d8)))
    with pytest.raises(ValueError):
        e_a[0] = True
    # an equal triangulation is another one: its marks are computed anew
    other = triangulation_from_triangles(T.points, T._tri)
    again = sel.marks(other)
    assert again[0] is not e_a
    assert all(np.array_equal(a, b) for a, b in zip(again, (e_a, d8)))
