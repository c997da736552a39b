import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from conftest import arc_fan, random_points
from oracles import (
    crossings,
    reference_canonical_bound,
    reference_charged_cones,
    reference_degree_audit,
    reference_subgraph_audit,
    reference_subgraph_lemmas,
    set_degree_audit,
    shared_triangles,
    wedge_angles,
)
from d8span import analysis, builder, cli, delaunay
from d8span.analysis import (
    BOUND_RTOL,
    DT_STRETCH,
    PATH_FACTOR,
    STRETCH_BOUND,
    StretchReport,
    _subgraph_lemmas,
    audit_anchor_cones,
    audit_canonical_paths,
    audit_charged_cones,
    audit_extremal_cone,
    audit_shared_triangles,
    audit_wedge_angles,
    degree_audit,
    distance_matrix,
    lemma_audits,
    run_audits,
    stretch_vs_dt,
    subgraph_audit,
    witness_path,
)
from d8span.builder import (
    _STEPS,
    EdgeSelection,
    Events,
    Provenance,
    construct_d8,
    select_edges,
)
from d8span.delaunay import (
    build_dt,
    canonical_subgraph,
    edge_key,
    triangulation_from_triangles,
)
from d8span.geometry import (
    PointSet,
    cone_index,
    cone_index_dir,
    euclid,
)
from d8span.pointio import RunConfig, generate, save_points
from d8span.report import report_json


def test_constants():
    assert PATH_FACTOR == pytest.approx(2 * math.pi / (3 * math.sqrt(3)), rel=1e-15)
    assert STRETCH_BOUND == pytest.approx(2.2091995761561452, rel=1e-12)
    assert abs(STRETCH_BOUND - 2.2091996) < 1e-7


# ---------------------------------------------------------------------------
# distance matrix


def _floyd_warshall(ps, edges):
    n = len(ps)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        w = euclid(ps[u], ps[v])
        d[u, v] = d[v, u] = w
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def test_distance_matrix_matches_floyd_warshall():
    ps = random_points(1, 25)
    T, sel = construct_d8(ps)
    got = distance_matrix(ps, sel.d8_edges)
    want = _floyd_warshall(ps, sel.d8_edges)
    assert np.allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# degree and subgraph audits


def test_degree_audit_two_points():
    T, sel = construct_d8(PointSet.from_pairs([(0, 0), (1, 2)]))
    d = degree_audit(T, sel)
    assert d["max_degree"] == 1
    assert d["histogram"] == {1: 2}


def test_degree_audit_triangle():
    T, sel = construct_d8(PointSet.from_pairs([(0, 0), (4, 1), (1, 5)]))
    assert degree_audit(T, sel)["max_degree"] <= 2


def test_selection_is_frozen_and_converts_once(small_instance):
    _, _, sel = small_instance
    hand = EdgeSelection(e_a=set(sel.e_a), e_can=list(sel.e_can))
    for s in (sel, hand):
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.e_a = frozenset()
        arrays = s.edge_arrays
        assert s.edge_arrays is arrays
        for edges, (u, v) in zip((s.e_a, s.e_can), arrays):
            # key order, Python ints in the views
            assert list(zip(u.tolist(), v.tolist())) == sorted(edges)
            assert all(type(x) is int for e in edges for x in e)
            with pytest.raises(ValueError):
                u[0] = 0
    assert hand.e_a == sel.e_a and hand.e_can == sel.e_can


def test_pipeline_builds_no_views(monkeypatch, tmp_path):
    # construction, every audit, the report, the witness path of every DT
    # edge and the CLI's stretch command run on the arrays; the audits and
    # the witness paths share one computation of the selection's marks
    ps = generate(RunConfig(n=300, seed=3))
    T, sel = construct_d8(ps)
    marked = []

    def marks(T, u, v):
        marked.append(len(u))
        return delaunay.marks(T, u, v)

    monkeypatch.setattr(builder, "marks", marks)
    report_json(run_audits(T, sel, with_stretch=False))
    report = run_audits(T, sel, with_stretch=True)
    report_json(report)
    for u, v in zip(*(c.tolist() for c in np.divmod(T._keys, len(ps)))):
        witness_path(T, sel, u, v)
    # one computation: E_A's marks, then E_CAN's
    assert marked == [len(c[0]) for c in sel.edge_arrays]
    assert not {"edges", "triangles", "_by_key"} & set(vars(T))
    assert not {"e_a", "e_can", "d8_edges", "provenance"} & set(vars(sel))
    reports = []

    def spy(T, sel):
        reports.append(stretch_vs_dt(T, sel))
        return reports[-1]

    monkeypatch.setattr(cli, "stretch_vs_dt", spy)
    save_points(ps, tmp_path / "points.txt")
    out = tmp_path / "stretch.json"
    assert cli.main(["stretch", "--in", str(tmp_path / "points.txt"), "--report", str(out)]) == 0
    assert json.loads(out.read_text())["dt_edges"] == len(T._keys)
    for s in (report.stretch, *reports):
        assert "per_dt_edge" not in vars(s)


def _selection_with_reversed_pairs():
    """A DT edge in E_A and reversed in E_CAN, one in E_CAN and reversed in
    E_A, a non-DT pair in both, and a non-empty E_A & E_CAN."""
    T, sel = construct_d8(random_points(11, 60))
    (a, b), (c, d) = sorted(T.edges - sel.e_a - sel.e_can)[:2]
    far = next((0, v) for v in range(1, 60) if not T.is_edge(0, v))
    shared = sorted(sel.e_can)[0]
    e_a = sel.e_a | {(a, b), (d, c), far, shared}
    e_can = sel.e_can | {(b, a), (c, d), far}
    assert {far, shared} <= e_a & e_can
    return T, EdgeSelection(e_a=e_a, e_can=e_can)


@pytest.mark.parametrize(
    "make",
    [_selection_with_reversed_pairs, lambda: _AUDIT_CASES["hand-written"]()],
    ids=["reversed-pairs", "hand-written"],
)
def test_degree_audit_equals_set_difference(make):
    # keys as given: a reversed pair counts as its own tuple, as in the set
    # difference of the tuples
    T, sel = make()
    got = degree_audit(T, sel)
    assert repr(got) == repr(set_degree_audit(T, sel))
    assert repr(got) == repr(reference_degree_audit(T, sel))


def test_subgraph_audit_passes(small_instance):
    ps, T, sel = small_instance
    v = subgraph_audit(T, sel)
    assert v["passed"]
    assert crossings(ps, sel.d8_edges) == []


def test_subgraph_audit_negative_control(small_instance):
    ps, T, sel = small_instance
    fake = (0, 1) if (0, 1) not in T.edges else (0, 2)
    # ensure the injected edge really is outside DT
    while fake in T.edges:
        fake = (fake[0], fake[1] + 1)
    bad = EdgeSelection(e_a=sel.e_a, e_can=sel.e_can | {fake})
    v = subgraph_audit(T, bad)
    assert not v["passed"]
    assert fake in v["non_dt_edges"]


# ---------------------------------------------------------------------------
# stretch


def test_stretch_two_points():
    T, sel = construct_d8(PointSet.from_pairs([(0, 0), (1, 2)]))
    s = stretch_vs_dt(T, sel)
    assert s.all_pairs_max_ratio_vs_dt == pytest.approx(1.0)
    assert s.ok


def test_stretch_bound_holds(small_instance):
    ps, T, sel = small_instance
    s = stretch_vs_dt(T, sel)
    assert s.ok
    assert s.max_edge_ratio <= STRETCH_BOUND + BOUND_RTOL
    assert s.all_pairs_max_ratio_vs_dt <= STRETCH_BOUND + BOUND_RTOL
    assert s.all_pairs_max_ratio_vs_dt >= 1 - 1e-12
    assert s.all_pairs_max_ratio_vs_euclid >= s.all_pairs_max_ratio_vs_dt - 1e-12


def test_stretch_disconnected_flagged(small_instance):
    ps, T, sel = small_instance
    empty = EdgeSelection(e_a=frozenset(), e_can=frozenset())
    s = stretch_vs_dt(T, empty)
    assert not s.connected and not s.ok


@pytest.mark.parametrize(
    "pairs, drop, ratio, ok",
    [
        ([], False, 1.0, True),
        ([(3, 7)], False, 1.0, True),
        ([(0, 0), (4, 1), (1, 5)], True, math.inf, False),
    ],
    ids=["n0", "n1", "disconnected"],
)
def test_stretch_reports_without_edge_figures(pairs, drop, ratio, ok):
    # the reports stretch_vs_dt returns before any Dijkstra: no per-edge
    # figure, every maximum the same, and the verdict
    T, sel = construct_d8(PointSet.from_pairs(pairs))
    if drop:
        sel = EdgeSelection(e_a=frozenset(), e_can=frozenset())
    s = stretch_vs_dt(T, sel)
    assert s.per_dt_edge == {} and len(s.path) == 0
    assert s.max_edge_ratio == ratio
    assert s.all_pairs_max_ratio_vs_dt == s.all_pairs_max_ratio_vs_euclid == ratio
    assert (s.connected, s.ok) == (ok, ok)


def _dense_stretch(ps, T, sel):
    """Spanner distance matrix and the two all-pairs maxima, computed from
    full n x n matrices: each distance matrix from an undirected Dijkstra on
    a graph holding each edge once, as given."""

    def distances(edges):
        u, v = zip(*edges)
        w = [euclid(ps[a], ps[b]) for a, b in edges]
        g = csr_matrix((w, (u, v)), shape=(len(ps), len(ps)))
        return dijkstra(g, directed=False)

    d8 = distances(sel.d8_edges)
    dt = distances(T.edges)
    coords = ps.coords()
    diff = coords[:, None, :] - coords[None, :, :]
    ed = np.sqrt((diff**2).sum(axis=2))
    iu = np.triu_indices(len(ps), 1)
    return d8, float(np.max(d8[iu] / dt[iu])), float(np.max(d8[iu] / ed[iu]))


def _degraded(T, sel):
    """The selection minus its first E_CAN-only edge whose removal keeps the
    spanner connected: the kind of input ``audit --edges`` accepts."""
    for e in sorted(sel.e_can - sel.e_a):
        cut = EdgeSelection(e_a=sel.e_a, e_can=sel.e_can - {e})
        if np.all(np.isfinite(distance_matrix(T.points, cut.d8_edges)[0])):
            return cut
    raise AssertionError("every E_CAN-only edge is a bridge")


# 201 annulus points: one row per block; 7 rows per block with a ragged last
# block of 5; everything in one block. Then the default blocks on three
# distributions, sizes and seeds, and on a degraded selection (its cut edge
# raises the maximum from 1.696 to 1.840). These guard the theorem that the
# DT all-pairs maximum is the worst DT edge's ratio.
_STREAMED_CASES = (
    [
        pytest.param("annulus", 201, 8, cells, False, id=name)
        for cells, name in ((1, "row"), (7 * 201, "ragged"), (1 << 20, "one"))
    ]
    + [
        pytest.param(
            dist, n, seed, analysis._BLOCK_CELLS, False, id=f"{dist}-{n}-{seed}"
        )
        for dist in ("uniform-square", "gaussian", "annulus")
        for n in (50, 200, 800)
        for seed in (0, 1)
    ]
    + [pytest.param("gaussian", 50, 2, analysis._BLOCK_CELLS, True, id="degraded")]
)


def _check_streamed(monkeypatch, dist, n, seed, cells, degrade):
    ps = generate(RunConfig(n=n, seed=seed, distribution=dist))
    T, sel = construct_d8(ps)
    if degrade:
        sel = _degraded(T, sel)
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
    s = stretch_vs_dt(T, sel)
    d8, vs_dt, vs_euclid = _dense_stretch(ps, T, sel)
    assert s.connected
    assert s.all_pairs_max_ratio_vs_dt == vs_dt
    assert s.all_pairs_max_ratio_vs_euclid == vs_euclid
    assert {e: x.path_length for e, x in s.per_dt_edge.items()} == {
        (u, v): float(d8[u, v]) for u, v in T.edges
    }
    # the per-edge bounds are those of the scalar functions, bit for bit
    for (u, v), x in s.per_dt_edge.items():
        assert x.euclidean == euclid(ps[u], ps[v])
        p, q = ps[u], ps[v]
        bound = reference_canonical_bound(p.x, p.y, q.x, q.y, cone_index(p, q))
        assert x.canonical_bound == bound


@pytest.mark.parametrize("dist, n, seed, cells, degrade", _STREAMED_CASES)
def test_streamed_stretch_equals_dense(monkeypatch, dist, n, seed, cells, degrade):
    _check_streamed(monkeypatch, dist, n, seed, cells, degrade)


def _long_hull_edges(n: int, seed: int) -> PointSet:
    """n - 6 uniform points in the unit square and six far points around
    them, at about 40 times its side: the hull's edges and those joining it
    to the square are long, the rest short."""
    rng = np.random.default_rng(seed)
    angles = np.arange(6) * np.pi / 3 + rng.uniform(0.1, 0.9, 6)
    far = 0.5 + 40 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return PointSet.from_pairs(np.concatenate([rng.uniform(0, 1, (n - 6, 2)), far]))


@pytest.mark.parametrize("cells", [1, 7 * 200], ids=["row", "ragged"])
@pytest.mark.parametrize("seed", [0, 1])
def test_stretch_long_hull_edges_equals_dense(monkeypatch, seed, cells):
    # per-source limits spread widest here: one block holds sources whose
    # limits lie more than a factor 2 apart, which run as separate groups
    ps = _long_hull_edges(200, seed)
    T, sel = construct_d8(ps)
    spread, settled = [], analysis._settled

    def spy(g8, sources, limits, row, col):
        spread.append(limits.max() / limits.min())
        return settled(g8, sources, limits, row, col)

    monkeypatch.setattr(analysis, "_settled", spy)
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
    s = stretch_vs_dt(T, sel)
    d8, vs_dt, vs_euclid = _dense_stretch(ps, T, sel)
    assert cells == 1 or max(spread) > 2
    assert s.connected and s.ok
    assert (s.all_pairs_max_ratio_vs_dt, s.all_pairs_max_ratio_vs_euclid) == (
        vs_dt, vs_euclid
    )
    assert {e: x.path_length for e, x in s.per_dt_edge.items()} == {
        (u, v): float(d8[u, v]) for u, v in T.edges
    }


def _count_sweeps(monkeypatch) -> list:
    """Record each run of the landmark sweep."""
    sweeps, sweep = [], analysis._sweep

    def spy(*args):
        sweeps.append(args[-1])
        return sweep(*args)

    monkeypatch.setattr(analysis, "_sweep", spy)
    return sweeps


@pytest.mark.parametrize("dist, n, seed, cells, degrade", _STREAMED_CASES)
def test_forked_stretch_equals_dense(monkeypatch, dist, n, seed, cells, degrade):
    # the same cases with blocks of at most n - 1 rows, so that the edge pass
    # and the landmark sweep run at every size.  The name is that of the
    # forked worker path, which the sweep replaced on the same cases
    sweeps = _count_sweeps(monkeypatch)
    _check_streamed(monkeypatch, dist, n, seed, min(cells, n * (n - 1)), degrade)
    assert len(sweeps) == 1


@pytest.mark.parametrize(
    "dist, n, seed", [("gaussian", 60, 3), ("uniform-square", 200, 1)]
)
def test_landmark_sweep_raises_the_maximum(monkeypatch, dist, n, seed):
    # the worst pair is not a DT edge: the sweep computes it and raises the
    # edge pass's maximum to the dense one
    ps = generate(RunConfig(n=n, seed=seed, distribution=dist))
    T, sel = construct_d8(ps)
    sweeps = _count_sweeps(monkeypatch)
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", 7 * n)
    s = stretch_vs_dt(T, sel)
    _, _, vs_euclid = _dense_stretch(ps, T, sel)
    (start,) = sweeps
    xs, ys = np.asarray(ps.xs), np.asarray(ps.ys)
    u, v = np.divmod(T._keys, n)
    paths = np.array([s.per_dt_edge[e].path_length for e in T._by_key])
    ed = np.sqrt((xs[u] - xs[v]) ** 2 + (ys[u] - ys[v]) ** 2)
    assert start == float(np.max(paths / ed))
    assert s.all_pairs_max_ratio_vs_euclid == vs_euclid > start


def test_edge_pass_falls_back_to_full_rows(monkeypatch):
    # a hand-written selection, one path through the points by x: a DT edge
    # whose spanner path leaves the edge pass's bound gets a full row
    T, sel = construct_d8(random_points(5, 60))
    order = sorted(range(60), key=lambda i: T.points.xs[i])
    chain = frozenset(edge_key(a, b) for a, b in zip(order, order[1:]))
    path = EdgeSelection(e_a=chain, e_can=frozenset())
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", 7 * 60)
    s = stretch_vs_dt(T, path)
    d8, vs_dt, vs_euclid = _dense_stretch(T.points, T, path)
    # beyond every block's bound, which is at most the longest DT edge's
    longest = max(euclid(T.points[u], T.points[v]) for u, v in T.edges)
    assert max(d8[u, v] for u, v in T.edges) > analysis._EDGE_REACH * longest
    assert s.connected and not s.ok
    assert (s.all_pairs_max_ratio_vs_dt, s.all_pairs_max_ratio_vs_euclid) == (
        vs_dt, vs_euclid
    )
    assert {e: x.path_length for e, x in s.per_dt_edge.items()} == {
        (u, v): float(d8[u, v]) for u, v in T.edges
    }


def test_landmark_bound_inside_the_margin_is_computed(monkeypatch):
    # a path through eight points in one cell, landmark 7: the worst pair
    # (3, 5) has the float landmark bound r[3] + r[5] below its own float
    # distance.  Started an ulp below the maximum, the bound passes the
    # certificate without its margin, so only the margin makes the sweep
    # compute the pair and return the maximum
    xs = np.array([4.49, 3.09, 9.92, 0.88, 5.28, 2.23, 6.95, 4.71])
    ys = np.array([8.53, 7.16, 7.61, 3.15, 1.56, 3.86, 0.37, 2.43])
    chain = np.array([3, 1, 2, 0, 7, 4, 5, 6])
    g = analysis._graph(xs, ys, chain[:-1], chain[1:])
    monkeypatch.setattr(analysis, "_cells", lambda xs, ys: [np.arange(8)])
    assert np.argmin((xs - xs.mean()) ** 2 + (ys - ys.mean()) ** 2) == 7
    d = dijkstra(g, directed=True)
    ed = np.sqrt((xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2)
    iu = np.triu_indices(8, 1)
    worst = float(np.max(d[iu] / ed[iu]))
    start = float(np.nextafter(worst, 0))
    assert worst == d[3, 5] / ed[3, 5]
    assert d[7, 3] / start + d[7, 5] / start < ed[3, 5]
    assert analysis._sweep(g, xs, ys, 8, start) == worst


def _two_cells(monkeypatch):
    """The path of the margin test, its points split into the cells
    (0, 1, 3, 4) with landmark 1 and (2, 5, 6, 7) with landmark 7: the
    spanner, the all-pairs distances and the dense maximum."""
    xs = np.array([4.49, 3.09, 9.92, 0.88, 5.28, 2.23, 6.95, 4.71])
    ys = np.array([8.53, 7.16, 7.61, 3.15, 1.56, 3.86, 0.37, 2.43])
    chain = np.array([3, 1, 2, 0, 7, 4, 5, 6])
    g = analysis._graph(xs, ys, chain[:-1], chain[1:])
    cells = [np.array([0, 1, 3, 4]), np.array([2, 5, 6, 7])]
    monkeypatch.setattr(analysis, "_cells", lambda xs, ys: cells)
    for c, landmark in zip(cells, (1, 7)):
        near = (xs[c] - xs[c].mean()) ** 2 + (ys[c] - ys[c].mean()) ** 2
        assert c[np.argmin(near)] == landmark
    d = dijkstra(g, directed=True)
    ed = np.sqrt((xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2)
    iu = np.triu_indices(8, 1)
    return xs, ys, g, d, ed, float(np.max(d[iu] / ed[iu]))


@pytest.mark.parametrize("rows", [1, 4])
def test_later_cell_landmark_certifies(monkeypatch, rows):
    # the pairs (4, 6) and (4, 7) fail the certificate from landmark 1, of
    # 4's cell, and pass it from landmark 7, of the other end's: the sweep
    # never computes them, and still returns the dense maximum
    xs, ys, g, d, ed, worst = _two_cells(monkeypatch)
    m = (1 - analysis._MARGIN) / (1 + analysis._MARGIN)
    q = {a: d[a] / (worst * m) + analysis._FLOOR for a in (1, 7)}
    for s, t in [(4, 6), (4, 7)]:
        assert not q[1][s] + q[1][t] < ed[s, t]
        assert q[7][s] + q[7][t] < ed[s, t]
    computed, settled = set(), analysis._settled

    def spy(g8, sources, limits, row, col):
        computed.update(zip(sources[row].tolist(), col.tolist()))
        return settled(g8, sources, limits, row, col)

    monkeypatch.setattr(analysis, "_settled", spy)
    assert analysis._sweep(g, xs, ys, rows, worst) == worst
    assert (3, 5) in computed
    assert not computed & {(4, 6), (4, 7)}


def test_later_cell_landmark_bound_inside_the_margin_is_computed(monkeypatch):
    # the worst pair (3, 5) straddles the cells; landmark 7 lies on its path,
    # so the later cell's bound is within an ulp of the pair's distance and,
    # started an ulp below the maximum, passes without the margin
    xs, ys, g, d, ed, worst = _two_cells(monkeypatch)
    start = float(np.nextafter(worst, 0))
    assert worst == d[3, 5] / ed[3, 5]
    assert d[7, 3] / start + d[7, 5] / start < ed[3, 5]
    assert analysis._sweep(g, xs, ys, 4, start) == worst


@pytest.mark.parametrize("dist, seed", [("annulus", 0), ("uniform-square", 1)])
def test_sweep_flushes_held_pairs_and_equals_dense(monkeypatch, dist, seed):
    # blocks of one row and a hold of 800 pairs: the held pairs are computed
    # several times over, the waiting ones without their second test
    ps = generate(RunConfig(n=800, seed=seed, distribution=dist))
    T, sel = construct_d8(ps)
    passes, computed = [], analysis._computed

    def spy(g8, xs, ys, keys, worst):
        passes.append(sum(map(len, keys)))
        return computed(g8, xs, ys, keys, worst)

    monkeypatch.setattr(analysis, "_computed", spy)
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", 800)
    s = stretch_vs_dt(T, sel)
    d8, vs_dt, vs_euclid = _dense_stretch(ps, T, sel)
    assert len(passes) > 2 and max(passes) > 800
    assert (s.all_pairs_max_ratio_vs_dt, s.all_pairs_max_ratio_vs_euclid) == (
        vs_dt, vs_euclid
    )
    assert {e: x.path_length for e, x in s.per_dt_edge.items()} == {
        (u, v): float(d8[u, v]) for u, v in T.edges
    }


@pytest.mark.parametrize("exponent", [505, 515, 530, 1014, -560, -1000])
@pytest.mark.parametrize("n", [50, 400])
def test_stretch_of_a_scaled_set(n, exponent):
    # an exact power-of-two scaling of the points: near the ends of the
    # float range the squared distances would overflow (a false pass at
    # 0.0) or underflow (NaN), and at 2**1014 a canonical bound would
    # overflow (a false failure); the maxima and the verdict are the
    # unscaled ones and every path length the unscaled one times the
    # factor, which may read inf without a warning
    T = build_dt(generate(RunConfig(n, seed=1)))
    sel = select_edges(T)
    f = 2.0**exponent
    ps = PointSet(T.points.xs * f, T.points.ys * f)
    scaled = stretch_vs_dt(triangulation_from_triangles(ps, T._tri), sel)
    base = stretch_vs_dt(T, sel)
    def maxima(s):
        return s.max_edge_ratio, s.all_pairs_max_ratio_vs_dt, s.all_pairs_max_ratio_vs_euclid

    assert maxima(scaled) == maxima(base)
    assert scaled.ok and base.ok
    assert {e: x.path_length for e, x in scaled.per_dt_edge.items()} == {
        e: x.path_length * f for e, x in base.per_dt_edge.items()
    }


@pytest.mark.parametrize("cells", [1 << 20, 7 * 60], ids=["one-block", "landmark"])
def test_stretch_hand_written_selection_equals_dense(monkeypatch, cells):
    # a non-DT pair, an edge given both ways round, and a loop: each pair
    # weighs its length once
    T, sel = _hand_written()
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
    s = stretch_vs_dt(T, sel)
    d8, vs_dt, vs_euclid = _dense_stretch(T.points, T, sel)
    assert s.connected
    assert (s.all_pairs_max_ratio_vs_dt, s.all_pairs_max_ratio_vs_euclid) == (
        vs_dt, vs_euclid
    )
    assert {e: x.path_length for e, x in s.per_dt_edge.items()} == {
        (u, v): float(d8[u, v]) for u, v in T.edges
    }


def _check_isolated_last_vertex(monkeypatch, small_instance, cells):
    ps, T, sel = small_instance
    last = len(ps) - 1
    cut = EdgeSelection(
        e_a=frozenset(e for e in sel.e_a if last not in e),
        e_can=frozenset(e for e in sel.e_can if last not in e),
    )
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
    s = stretch_vs_dt(T, cut)
    assert not s.connected and not s.ok


@pytest.mark.parametrize("cells", [1, 1 << 20], ids=["row", "one"])
def test_stretch_isolated_last_vertex_disconnected(monkeypatch, small_instance, cells):
    _check_isolated_last_vertex(monkeypatch, small_instance, cells)


def _stretch_figures(dist, n, seed):
    T, sel = construct_d8(generate(RunConfig(n=n, seed=seed, distribution=dist)))
    s = stretch_vs_dt(T, sel)
    return s.all_pairs_max_ratio_vs_euclid, [x.path_length for x in s.per_dt_edge.values()]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_stretch_in_a_daemonic_worker(monkeypatch):
    # the audit starts no process of its own, so it runs as well inside a
    # pool's worker, which may have no children, with the same figures
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", 201)
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        got = pool.apply_async(_stretch_figures, ("annulus", 201, 8)).get(timeout=120)
    finally:
        pool.terminate()
        pool.join()
    assert got == _stretch_figures("annulus", 201, 8)
    assert not multiprocessing.active_children()


def test_import_leaves_multiprocessing_out():
    # importing the package loads no process machinery, so that it stays as
    # fast as it was
    code = "import sys, d8span; print('multiprocessing' in sys.modules)"
    src = os.path.dirname(os.path.dirname(analysis.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_stretch_memory_below_one_dense_matrix(monkeypatch):
    n = 2000
    T, sel = construct_d8(generate(RunConfig(n=n, seed=3, distribution="annulus")))
    tracemalloc.start()
    try:
        s = stretch_vs_dt(T, sel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.ok
    assert peak < n * n * 8, f"peak {peak / 2**20:.1f} MiB"


def test_stretch_headline_gate():
    # the abstract's 1.998 * (1 + theta/sin theta), about 4.414
    assert DT_STRETCH * STRETCH_BOUND == pytest.approx(4.414, abs=5e-4)

    def report(vs_euclid):
        ids, figures = np.empty(0, dtype=np.int64), np.empty(0)
        return StretchReport(
            2.0, 2.0, vs_euclid, True, (ids, ids), figures, figures, figures, 0
        )

    assert report(4.4).ok
    assert not report(4.5).ok
    assert not report(math.nan).ok


_coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@given(
    st.lists(st.tuples(_coord, _coord, _coord, _coord), min_size=1, max_size=8),
    st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=300, deadline=None)
def test_canonical_bounds_equal_the_scalar_reference(pairs, k):
    # the array pass does the scalar's arithmetic, bit for bit, at any scale
    # where nothing overflows
    xy = np.array(pairs).reshape(-1, 2, 2) * 2.0**k
    dx, dy = (xy[:, 1] - xy[:, 0]).T
    assume(((dx != 0) | (dy != 0)).all())
    cone = np.array([cone_index_dir(a, b) for a, b in zip(dx.tolist(), dy.tolist())])
    u = np.arange(0, 2 * len(xy), 2)
    got = analysis._canonical_bounds(xy[..., 0].ravel(), xy[..., 1].ravel(), u, u + 1, cone)
    (px, py), (qx, qy) = xy[:, 0].T.tolist(), xy[:, 1].T.tolist()
    assert got.tolist() == list(map(reference_canonical_bound, px, py, qx, qy, cone.tolist()))


def test_canonical_bound_symmetric_on_bisector():
    # q straight up from p: the triangle corners are mirror images
    ps = PointSet.from_pairs([(0, 0), (0.001, 4), (3, 1.2), (-3.1, 1.3)])
    T, sel = construct_d8(ps)
    p, q = ps[0], ps[1]
    b = reference_canonical_bound(p.x, p.y, q.x, q.y, cone_index(p, q))
    d = euclid(p, q)
    assert b <= STRETCH_BOUND * d * (1 + BOUND_RTOL)


def test_canonical_bound_below_euclid_bound_everywhere():
    for seed in range(20):
        ps = random_points(seed + 900, 40)
        T = build_dt(ps)
        for u, v in T.edges:
            p, q = ps[u], ps[v]
            cb = reference_canonical_bound(p.x, p.y, q.x, q.y, cone_index(p, q))
            eb = STRETCH_BOUND * euclid(p, q)
            assert cb <= eb * (1 + BOUND_RTOL)


# ---------------------------------------------------------------------------
# witness paths


def _check_all_witnesses(ps, T, sel):
    d8 = distance_matrix(ps, sel.d8_edges)
    traces = set()
    for u, v in sorted(T.edges):
        w = witness_path(T, sel, u, v)
        assert w.vertices[0] == u and w.vertices[-1] == v
        for a, b in zip(w.vertices, w.vertices[1:]):
            assert sel.has_d8_edge(a, b)
        assert w.length >= d8[u, v] - 1e-9 * max(w.length, 1.0)
        p, q = ps[u], ps[v]
        cb = reference_canonical_bound(p.x, p.y, q.x, q.y, cone_index(p, q))
        assert w.length <= cb * (1 + BOUND_RTOL)
        traces.add(w.trace[0])
    return traces


def test_witness_direct_edge(small_instance):
    ps, T, sel = small_instance
    u, v = sorted(sel.e_a)[0]
    w = witness_path(T, sel, u, v)
    assert w.vertices == [u, v] and w.trace == ["direct"]


def test_witness_all_edges_small():
    traces = set()
    for seed in range(20):
        ps = random_points(seed + 1100, 60)
        T, sel = construct_d8(ps)
        traces |= _check_all_witnesses(ps, T, sel)
    # the easy dispatch cases all occur in a modest sample
    assert "direct" in traces
    assert any(t.startswith("ideal") or t == "anchor" for t in traces)


def test_witness_exercises_hard_cases():
    # look over a wider sweep for the concatenation and recursion cases
    seen = set()
    for seed in range(120):
        ps = random_points(seed + 1300, 50)
        T, sel = construct_d8(ps)
        d8 = None
        for u, v in sorted(T.edges):
            w = witness_path(T, sel, u, v)
            for step in w.trace:
                seen.add(step)
        if {"concat", "recurse"} <= seen:
            break
    assert "concat" in seen
    assert "recurse" in seen


def test_witness_rejects_non_dt_edge(small_instance):
    ps, T, sel = small_instance
    non_edge = next(
        (u, v)
        for u in range(len(ps))
        for v in range(u + 1, len(ps))
        if (u, v) not in T.edges
    )
    with pytest.raises(ValueError):
        witness_path(T, sel, *non_edge)


# ---------------------------------------------------------------------------
# structural audits: positive sweep


def test_lemma_audits_pass_on_random_instances():
    for seed in range(25):
        ps = random_points(seed + 1500, 70)
        T, sel = construct_d8(ps)
        for v in lemma_audits(T, sel):
            assert v.passed, (seed, v.name, v.counterexample)


def test_lemma_audits_trivial_instances():
    for pts in ([(1, 2)], [(0, 0), (1, 2)], [(0, 0), (4, 1), (1, 5)]):
        T, sel = construct_d8(PointSet.from_pairs(pts))
        assert all(v.passed for v in lemma_audits(T, sel))


# ---------------------------------------------------------------------------
# structural audits: negative controls


def find_canonical_path_corruption(max_seed=60):
    """An instance plus an injected incident edge whose canonical subgraph is
    not a path."""
    for seed in range(max_seed):
        ps = random_points(seed + 1700, 50)
        T, sel = construct_d8(ps)
        for u, v in sorted(T.edges - sel.e_a):
            for p, r in ((u, v), (v, u)):
                if not canonical_subgraph(T, p, r).is_path():
                    bad = EdgeSelection(
                        e_a=sel.e_a | {edge_key(p, r)}, e_can=sel.e_can
                    )
                    return T, bad
    return None


def test_canonical_path_negative_control():
    found = find_canonical_path_corruption()
    assert found is not None
    T, bad = found
    assert not audit_canonical_paths(T, bad).passed


def wedge_violation_fixture():
    # non-Delaunay fan: the middle neighbour is pulled far from the apex, so
    # its angle facing the apex collapses well below 2*pi/3
    pts = [(0, 0), (-1, 3), (0.05, 6), (1, 3)]
    ps = PointSet.from_pairs(pts)
    T = triangulation_from_triangles(ps, [(0, 1, 2), (0, 2, 3)])
    sel = EdgeSelection(e_a=frozenset(), e_can=frozenset())
    return T, sel


def test_wedge_negative_control():
    T, sel = wedge_violation_fixture()
    v = audit_wedge_angles(T, sel)
    assert not v.passed
    assert v.counterexample["apex"] == 0


@pytest.mark.parametrize(
    "make",
    [wedge_violation_fixture]
    + [
        (lambda k=k, jagged=jagged: (arc_fan(k, jagged), None))
        for k in (3, 4, 10, 30, 60)
        for jagged in (False, True)
    ]
    # near 1e155 some of the products in an angle overflow: NaN angles
    + [lambda: (arc_fan(10, jagged=True, scale=1e155), None)],
    ids=["negative-control"]
    + [f"{kind}-{k}" for k in (3, 4, 10, 30, 60) for kind in ("arc", "jagged")]
    + ["nan-angles"],
)
def test_wedge_matches_cubic_reference(make):
    T, _ = make()
    assert audit_wedge_angles(T) == wedge_angles(T)


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize("k, seed", [(10, 0), (30, 0), (60, 0), (5, 8), (6, 28), (8, 20)])
def test_wedge_blocks_match_cubic_reference(monkeypatch, k, seed, block):
    # a later block can hold the first failing pair, one with a smaller a:
    # in the fans of seeds 8, 28 and 20 the members (1, 2) fail, but the
    # first failing pair is (0, k - 2)
    T = arc_fan(k, jagged=True, seed=seed)
    want = wedge_angles(T)
    assert not want.passed
    monkeypatch.setattr(analysis, "_WEDGE_BLOCK", block)
    assert audit_wedge_angles(T) == want


def test_wedge_audit_quadratic_per_cone():
    # 400 neighbours in one cone: the cubic scan took minutes here
    T = arc_fan(400)
    t0 = time.perf_counter()
    v = audit_wedge_angles(T)
    assert v.passed
    assert time.perf_counter() - t0 < 10


def test_wedge_audit_memory_is_blocked():
    # 2000 neighbours in one cone: about 4M angle pairs, 32 MB for each
    # array of them unblocked
    T = arc_fan(2000)
    tracemalloc.start()
    try:
        v = audit_wedge_angles(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.passed
    assert peak < 8 << 20


def near_limit_fan(delta: float):
    """Apex (0, 0) and a, x, b clockwise in its cone 0, with the wedge angle
    at x, angle(a, x, p) + angle(p, x, b), at 2*pi/3 - 1e-9 + delta up to
    rounding."""
    half = (2 * math.pi / 3 - 1e-9 + delta) / 2
    r = 0.3
    pts = [(0.0, 0.0), (-r * math.sin(half), 1 - r * math.cos(half)), (0.0, 1.0)]
    pts.append((r * math.sin(half), 1 - r * math.cos(half)))
    return triangulation_from_triangles(PointSet.from_pairs(pts), [(0, 1, 2), (0, 2, 3)])


def test_wedge_near_limit_matches_cubic_reference(monkeypatch):
    # sums within the array filter's margin of the limit, on both sides:
    # the filter flags each, and the scalar rule decides
    limit = 2 * math.pi / 3 - 1e-9
    decided = []
    scalar = analysis._wedge_at

    def spy(*args):
        decided.append(scalar(*args))
        return decided[-1]

    monkeypatch.setattr(analysis, "_wedge_at", spy)
    sides = set()
    for delta in (-4e-13, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 4e-13):
        T = near_limit_fan(delta)
        assert T.cone(0, 0) == (1, 2, 3)
        ps = T.points
        total = analysis._angle(ps, 1, 2, 0) + analysis._angle(ps, 0, 2, 3)
        assert abs(total - limit) < analysis._WEDGE_MARGIN
        sides.add(total <= limit)
        decided.clear()
        v = audit_wedge_angles(T)
        assert v == wedge_angles(T)
        assert v.passed == (total > limit)
        assert decided
    assert sides == {True, False}


def shared_triangle_violation_fixture():
    # two non-Delaunay triangles over the same near-vertical base: both are
    # shared triangles with base (0, 1)
    pts = [(0, 0), (0.1, 10), (-0.5, 5.2), (0.5, 4.9)]
    ps = PointSet.from_pairs(pts)
    T = triangulation_from_triangles(ps, [(0, 1, 2), (0, 1, 3)])
    sel = EdgeSelection(e_a=frozenset(), e_can=frozenset())
    return T, sel


def two_bases_fixture():
    """Two copies of the shared-triangle fixture's fans, side by side: base
    (4, 5) is met first in the triangle list, though (0, 1) sorts first."""
    pts = [(0, 0), (0.1, 10), (-0.5, 5.2), (0.5, 4.9)]
    pts += [(x + 3, y + 1) for x, y in pts]
    T = triangulation_from_triangles(
        PointSet.from_pairs(pts), [(4, 5, 6), (0, 1, 2), (0, 1, 3), (4, 5, 7)]
    )
    return T, EdgeSelection(e_a=frozenset(), e_can=frozenset())


_SHARED_CASES = {
    "negative-control": shared_triangle_violation_fixture,
    "two-bases": two_bases_fixture,
    "none": lambda: construct_d8(PointSet.from_pairs([])),
    "one-point": lambda: construct_d8(PointSet.from_pairs([(1, 2)])),
    "two-points": lambda: construct_d8(PointSet.from_pairs([(0, 0), (1, 2)])),
    **{
        f"{dist}-{seed}": (
            lambda dist=dist, seed=seed: (
                build_dt(generate(RunConfig(n=300, seed=seed, distribution=dist))),
                None,
            )
        )
        for dist in ("uniform-square", "annulus")
        for seed in (1, 2, 3)
    },
}


@pytest.mark.parametrize("name", list(_SHARED_CASES))
def test_shared_triangles_match_scan(name):
    # same verdict and counterexample, Python ints and list order included
    T, _ = _SHARED_CASES[name]()
    assert repr(audit_shared_triangles(T)) == repr(shared_triangles(T))


def test_shared_triangles_report_the_base_met_first():
    T, _ = two_bases_fixture()
    v = audit_shared_triangles(T)
    assert v.counterexample == {
        "base": (4, 5),
        "triangles": [(4, 5, 6), (4, 5, 7)],
        "reason": "base shared twice",
    }


def test_shared_triangle_negative_control():
    T, sel = shared_triangle_violation_fixture()
    v = audit_shared_triangles(T, sel)
    assert not v.passed
    assert v.counterexample["reason"] == "base shared twice"
    assert v.counterexample["base"] == (0, 1)


def anchor_cone_violation_fixture():
    """Fan with an inner anchor r, plus an extra edge at r occupying one of
    the flank cones the audit requires to be empty."""
    pts = [(0, 0), (-1, 5.6), (0.1, 4.9), (1.2, 5.5), (2.5, 4.2)]
    ps = PointSet.from_pairs(pts)
    T = triangulation_from_triangles(
        ps, [(0, 1, 2), (0, 2, 3), (2, 3, 4)]
    )
    # (0, 2) selected; r=2 is the inner anchor of its subgraph; the injected
    # canonical edge (2, 4) sits in cone 2 of r
    sel = EdgeSelection(e_a=frozenset({(0, 2)}), e_can=frozenset({(2, 4)}))
    return T, sel


def test_anchor_cone_negative_control():
    T, sel = anchor_cone_violation_fixture()
    ps = T.points
    can = canonical_subgraph(T, 0, 2)
    assert can.vertices == (1, 2, 3) and can.anchor == 2  # sanity, inner anchor
    assert cone_index(ps[2], ps[4]) == 2
    assert not audit_anchor_cones(T, sel).passed


def extremal_cone_violation_fixture():
    # hand-built fan where the last canonical edge of the subgraph points
    # back up into the apex cone at its end vertex
    pts = [(0, 0), (-1, 4), (0.7, 5.2), (0.9, 4.0)]
    ps = PointSet.from_pairs(pts)
    T = triangulation_from_triangles(ps, [(0, 1, 2), (0, 2, 3)])
    sel = EdgeSelection(e_a=frozenset({(0, 1)}), e_can=frozenset())
    return T, sel


def test_extremal_cone_negative_control():
    T, sel = extremal_cone_violation_fixture()
    can = canonical_subgraph(T, 0, 1)
    assert can.vertices == (1, 2, 3)  # fixture sanity
    v = audit_extremal_cone(T, sel)
    assert not v.passed
    assert v.counterexample["edge"] == (2, 3)


def _random_selection(seed: int, n: int, share: float):
    T = build_dt(random_points(seed, n))
    edges = sorted(T.edges)
    drawn = np.random.default_rng(seed).random(len(edges)) < share
    e_a = frozenset(e for e, d in zip(edges, drawn) if d)
    return T, EdgeSelection(e_a=e_a, e_can=frozenset(edges) - e_a)


def random_selection_fixture():
    """A random 30 % of the Delaunay edges as E_A and the rest as E_CAN: the
    canonical-path and anchor-cone lemmas fail at one selected edge, the
    extremal-cone lemma at another."""
    return _random_selection(114, 80, 0.3)


def direct_end_fixture():
    """A random 60 % of the Delaunay edges as E_A: the extremal edge (7, 56)
    of the subgraph of (24, 36) points back into the apex cone at 56, and
    passes only because (24, 56) is itself selected."""
    return _random_selection(16, 60, 0.6)


def both_ends_fixture():
    """A hand-built fan around an inner anchor whose first and last
    extremal edges both point back into the apex cone at their end vertex."""
    pts = [(0, 0), (-0.9, 4.0), (-0.7, 5.2), (0, 3.9), (0.7, 5.2), (0.9, 4.0)]
    fan = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)]
    T = triangulation_from_triangles(PointSet.from_pairs(pts), fan)
    return T, EdgeSelection(e_a=frozenset({(0, 3)}), e_can=frozenset())


def two_in_one_cone_fixture():
    """The construction's selection plus a second E_A edge leaving one
    vertex into a cone that already holds one."""
    T, sel = construct_d8(random_points(11, 60))
    for p in range(len(T.points)):
        for i in range(6):
            members = T.cone(p, i)
            taken = [w for w in members if edge_key(p, w) in sel.e_a]
            if taken and len(members) > 1:
                other = next(w for w in members if w != taken[0])
                e_a = sel.e_a | {edge_key(p, other)}
                return T, EdgeSelection(e_a=e_a, e_can=sel.e_can - e_a)
    raise AssertionError("no cone with an E_A edge and company")


def non_dt_fixture():
    """The construction's selection plus an E_A pair that is no Delaunay
    edge, and a Delaunay edge written high end first."""
    T, sel = construct_d8(random_points(11, 60))
    far = next((0, v) for v in range(1, 60) if not T.is_edge(0, v))
    u, v = sorted(T.edges - sel.e_a - sel.e_can)[0]
    return T, EdgeSelection(e_a=sel.e_a | {far, (v, u)}, e_can=sel.e_can)


_LEMMA_CASES = {
    "canonical_path": find_canonical_path_corruption,
    "wedge": wedge_violation_fixture,
    "shared_triangle": shared_triangle_violation_fixture,
    "anchor_cone": anchor_cone_violation_fixture,
    "extremal_cone": extremal_cone_violation_fixture,
    "random_selection": random_selection_fixture,
    "direct_end": direct_end_fixture,
    "both_ends": both_ends_fixture,
    "two_in_one_cone": two_in_one_cone_fixture,
    "non_dt": non_dt_fixture,
}


def _golden_selection(dist, n, seed):
    return lambda: construct_d8(generate(RunConfig(n=n, seed=seed, distribution=dist)))


def _hand_written():
    """A hand-written selection: a non-DT pair, a DT edge high end first and
    the same edge low end first, a loop, and two E_A edges in one cone."""
    T, sel = non_dt_fixture()
    (u, v), e = sorted(T.edges)[0], (3, 3)
    return T, EdgeSelection(e_a=sel.e_a | {(v, u), e}, e_can=sel.e_can | {(u, v)})


_AUDIT_CASES = {
    **{name: _LEMMA_CASES[name] for name in sorted(_LEMMA_CASES)},
    "golden-uniform-3": _golden_selection("uniform-square", 3, 1),
    "golden-gaussian-50": _golden_selection("gaussian", 50, 3),
    "golden-annulus-60": _golden_selection("annulus", 60, 2),
    "golden-uniform-260": _golden_selection("uniform-square", 260, 11),
    "hand-written": _hand_written,
    "one-point": lambda: construct_d8(PointSet.from_pairs([(1, 2)])),
}


@pytest.mark.parametrize("name", list(_AUDIT_CASES))
def test_degree_and_subgraph_audits_match_loops(name):
    # the same dicts as the loops over the selection: keys and their order,
    # Python ints, and the offenders in the selection's iteration order
    T, sel = _AUDIT_CASES[name]()
    for got, want in (
        (degree_audit(T, sel), reference_degree_audit(T, sel)),
        (subgraph_audit(T, sel), reference_subgraph_audit(T, sel)),
    ):
        assert repr(got) == repr(want)
        assert list(got.get("histogram", {})) == list(want.get("histogram", {}))


@pytest.mark.parametrize("block", [None, 2, 5], ids=["one-block", "block2", "block5"])
@pytest.mark.parametrize("name", sorted(_LEMMA_CASES))
def test_subgraph_lemmas_match_scalar_reference(monkeypatch, name, block):
    # same verdicts and first counterexamples, Python ints included, however
    # the oriented edges fall into blocks
    T, sel = _LEMMA_CASES[name]()
    if block is not None:
        monkeypatch.setattr(delaunay, "_SCAN_BLOCK", block)
    got = _subgraph_lemmas(T, sel)
    assert repr(got) == repr(reference_subgraph_lemmas(T, sel))


def test_subgraph_lemma_fixtures_fail():
    # the reference rejects what each fixture plants
    failing = {
        "canonical_path": {"canonical_path"},
        "anchor_cone": {"anchor_cones"},
        "extremal_cone": {"extremal_cone"},
        "random_selection": {"canonical_path", "anchor_cones", "extremal_cone"},
    }
    for name, expected in failing.items():
        verdicts = reference_subgraph_lemmas(*_LEMMA_CASES[name]())
        assert {v.name for v in verdicts if not v.passed} == expected, name
    assert reference_subgraph_lemmas(*direct_end_fixture())[2].passed
    extremal = reference_subgraph_lemmas(*both_ends_fixture())[2]
    assert extremal.counterexample == {
        "apex": 0, "anchor": 3, "edge": (4, 5), "cone": 0
    }


def test_charged_cone_negative_control(small_instance):
    ps, T, sel = small_instance
    # fabricate a boundary-cone provenance entry pointing at a cone that
    # holds a selected incident edge
    p, q = sorted(sel.e_a)[0]
    j = cone_index(ps[p], ps[q])
    s, t = sorted(sel.e_can)[0]
    step = _STEPS.index("4b")
    event = Events(*(np.array([x]) for x in (s, t, step, q, p, p, j)))
    bad = EdgeSelection._from_arrays(*sel.edge_arrays, event)
    assert bad.provenance == {
        (s, t): [Provenance("4b", apex=q, anchor=p, end_vertex=p, cone=j)]
    }
    assert not audit_charged_cones(T, bad).passed


def test_charged_cones_counterexample_matches_reference(small_instance):
    # failing step 4b events appended for an edge with no earlier event and
    # then for the edge of the first event: the counterexample is the first
    # in provenance order, which is the second of them
    ps, T, sel = small_instance
    e = sel.events
    assert audit_charged_cones(T, sel) == reference_charged_cones(T, sel)
    (p, q), (s, t) = sorted(sel.e_a)[0], (int(e.u[0]), int(e.v[0]))
    j = T.cone_of(p, q)
    fresh = next(x for x in sorted(T.edges) if x not in sel.provenance)
    step = _STEPS.index("4b")
    extra = [(*fresh, step, q, p, p, j), (s, t, step, q, p, p, j)]
    events = Events(*(np.append(c, x) for c, x in zip(e, zip(*extra))))
    bad = EdgeSelection._from_arrays(*sel.edge_arrays, events)
    got = audit_charged_cones(T, bad)
    assert repr(got) == repr(reference_charged_cones(T, bad))
    assert got.counterexample["edge"] == (s, t)
    assert got.counterexample["e_a"] == [w for w in T.cone(p, j) if edge_key(p, w) in sel.e_a]


def test_run_audits_report(small_instance):
    ps, T, sel = small_instance
    rep = run_audits(T, sel)
    assert rep.ok
    assert rep.degrees["max_degree"] <= 8
    assert all(v.passed for v in rep.lemmas)
    assert rep.stretch is not None and rep.stretch.ok
