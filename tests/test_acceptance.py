"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing pytest capture) so the
run log carries a per-criterion verdict.  Shared randomized sweeps are
computed once per session.
"""

import json
import time

import pytest

from conftest import random_points
from d8span.analysis import (
    BOUND_RTOL,
    STRETCH_BOUND,
    audit_anchor_cones,
    audit_canonical_paths,
    audit_charged_cones,
    audit_extremal_cone,
    audit_shared_triangles,
    audit_wedge_angles,
    canonical_bound,
    degree_audit,
    distance_matrix,
    lemma_audits,
    run_audits,
    stretch_vs_dt,
    subgraph_audit,
    witness_path,
)
from d8span.builder import construct_d8
from d8span.delaunay import build_dt
from d8span.geometry import euclid
from d8span.pointio import RunConfig, generate
from d8span.report import report_json

import test_analysis as controls
from oracles import crossings, dt_oracle

TOL = BOUND_RTOL  # 1e-9, the spec's tolerance for all bound assertions


def emit(capsys, text):
    with capsys.disabled():
        print("\n" + text)


# ---------------------------------------------------------------------------
# shared sweeps


@pytest.fixture(scope="session")
def stretch_sweep():
    """200 seeds, n up to 300: per-edge stretch, bound chain, all-pairs."""
    t0 = time.time()
    res = {
        "seeds": 0,
        "edges": 0,
        "edge_violations": 0,
        "chain_violations": 0,
        "pair_violations": 0,
        "max_edge_ratio": 0.0,
        "max_pair_ratio_vs_dt": 0.0,
        "max_pair_ratio_vs_euclid": 0.0,
    }
    for seed in range(200):
        n = 5 + (seed * 41) % 296  # up to 300
        ps = random_points(seed + 10_000, n)
        T, sel = construct_d8(ps)
        s = stretch_vs_dt(T, sel)
        assert s.connected
        res["seeds"] += 1
        res["edges"] += len(s.per_dt_edge)
        for e, st in s.per_dt_edge.items():
            if st.euclidean > 0 and st.path_length > STRETCH_BOUND * st.euclidean * (1 + TOL):
                res["edge_violations"] += 1
            if (
                st.path_length > st.canonical_bound * (1 + TOL)
                or st.canonical_bound > st.euclid_bound * (1 + TOL)
            ):
                res["chain_violations"] += 1
        if s.all_pairs_max_ratio_vs_dt > STRETCH_BOUND + TOL:
            res["pair_violations"] += 1
        res["max_edge_ratio"] = max(res["max_edge_ratio"], s.max_edge_ratio)
        res["max_pair_ratio_vs_dt"] = max(
            res["max_pair_ratio_vs_dt"], s.all_pairs_max_ratio_vs_dt
        )
        res["max_pair_ratio_vs_euclid"] = max(
            res["max_pair_ratio_vs_euclid"], s.all_pairs_max_ratio_vs_euclid
        )
    res["elapsed"] = time.time() - t0
    return res


@pytest.fixture(scope="session")
def degree_sweep():
    """500 instances, n up to 500: degrees and subgraph containment."""
    t0 = time.time()
    res = {
        "instances": 0,
        "degree_violations": 0,
        "e_a_violations": 0,
        "subgraph_violations": 0,
        "max_degree_seen": 0,
        "max_e_a_degree_seen": 0,
    }
    for seed in range(500):
        n = 5 + (seed * 37) % 496 if seed >= 3 else 500  # hit the cap early too
        ps = random_points(seed + 20_000, n)
        T, sel = construct_d8(ps)
        d = degree_audit(T, sel)
        res["instances"] += 1
        res["max_degree_seen"] = max(res["max_degree_seen"], d["max_degree"])
        res["max_e_a_degree_seen"] = max(
            res["max_e_a_degree_seen"], d["e_a_max_degree"]
        )
        if d["max_degree"] > 8:
            res["degree_violations"] += 1
        if d["e_a_max_degree"] > 6:
            res["e_a_violations"] += 1
        if not sel.d8_edges <= T.edges:
            res["subgraph_violations"] += 1
    res["elapsed"] = time.time() - t0
    return res


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_dt_oracle_equivalence(capsys):
    t0 = time.time()
    mismatches = 0
    for seed in range(200):
        n = 5 + seed % 36  # n in {5..40}
        ps = random_points(seed + 30_000, n)
        if build_dt(ps).edges != dt_oracle(ps):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60
    emit(
        capsys,
        f"CRITERION 1 {'PASS' if ok else 'FAIL'}: build_dt == dt_oracle on "
        f"{200 - mismatches}/200 seeds, n in 5..40 ({elapsed:.1f}s < 60s)",
    )
    assert mismatches == 0
    assert elapsed < 60


def test_criterion_2_degree_bounds(capsys, degree_sweep):
    r = degree_sweep
    ok = (
        r["degree_violations"] == 0
        and r["e_a_violations"] == 0
        and r["elapsed"] < 300
    )
    emit(
        capsys,
        f"CRITERION 2 {'PASS' if ok else 'FAIL'}: max degree <= 8 and "
        f"incident-set degree <= 6 on {r['instances']} instances, n up to 500 "
        f"({r['degree_violations']}+{r['e_a_violations']} violations, "
        f"{r['elapsed']:.1f}s < 300s)",
    )
    assert r["degree_violations"] == 0
    assert r["e_a_violations"] == 0
    assert r["elapsed"] < 300


def test_criterion_3_planarity(capsys, degree_sweep):
    crossing_fails = 0
    for seed in range(50):
        ps = random_points(seed + 40_000, 5 + (seed * 7) % 96)  # n <= 100
        T, sel = construct_d8(ps)
        if not subgraph_audit(T, sel)["passed"] or crossings(ps, sel.d8_edges):
            crossing_fails += 1
    ok = degree_sweep["subgraph_violations"] == 0 and crossing_fails == 0
    emit(
        capsys,
        f"CRITERION 3 {'PASS' if ok else 'FAIL'}: selected edges are a DT "
        f"subset on {degree_sweep['instances']} instances; segment-crossing "
        f"oracle found 0 crossings on {50 - crossing_fails}/50 instances",
    )
    assert degree_sweep["subgraph_violations"] == 0
    assert crossing_fails == 0


def test_criterion_4_per_edge_stretch(capsys, stretch_sweep):
    r = stretch_sweep
    ok = r["edge_violations"] == 0
    emit(
        capsys,
        f"CRITERION 4 {'PASS' if ok else 'FAIL'}: per-edge stretch <= "
        f"{STRETCH_BOUND:.7f} (tol 1e-9) on {r['edges']} DT edges over "
        f"{r['seeds']} seeds; max observed {r['max_edge_ratio']:.6f} "
        f"({r['edge_violations']} violations)",
    )
    assert r["edge_violations"] == 0


def test_criterion_5_canonical_bound_chain(capsys, stretch_sweep):
    r = stretch_sweep
    ok = r["chain_violations"] == 0
    emit(
        capsys,
        f"CRITERION 5 {'PASS' if ok else 'FAIL'}: bound chain delta <= "
        f"canonical-triangle bound <= {STRETCH_BOUND:.7f}|pq| on "
        f"{r['edges']} DT edges ({r['chain_violations']} violations)",
    )
    assert r["chain_violations"] == 0


def test_criterion_6_all_pairs_ratio(capsys, stretch_sweep):
    r = stretch_sweep
    ok = r["pair_violations"] == 0
    emit(
        capsys,
        f"CRITERION 6 {'PASS' if ok else 'FAIL'}: all-pairs ratio vs DT <= "
        f"{STRETCH_BOUND:.7f} on {r['seeds']} seeds; max vs-DT "
        f"{r['max_pair_ratio_vs_dt']:.6f}; observed vs-Euclid maximum "
        f"{r['max_pair_ratio_vs_euclid']:.6f} (reported, not asserted)",
    )
    assert r["pair_violations"] == 0
    # the assertable complete-graph form: vs-Euclid ratio is bounded by the
    # per-edge factor composed with the instance's own DT stretch
    assert r["max_pair_ratio_vs_euclid"] >= r["max_pair_ratio_vs_dt"] - 1e-12


def test_criterion_7_lemma_audits(capsys):
    failures = []
    for seed in range(200):
        n = 5 + (seed * 13) % 146
        ps = random_points(seed + 50_000, n)
        T, sel = construct_d8(ps)
        for v in lemma_audits(T, sel):
            if not v.passed:
                failures.append((seed, v.name, v.counterexample))
    # negative controls: every audit must reject its planted corruption
    controls_ok = True
    T, bad = controls.find_canonical_path_corruption()
    controls_ok &= not audit_canonical_paths(T, bad).passed
    T, sel = controls.wedge_violation_fixture()
    controls_ok &= not audit_wedge_angles(T, sel).passed
    T, sel = controls.shared_triangle_violation_fixture()
    controls_ok &= not audit_shared_triangles(T, sel).passed
    T, sel = controls.anchor_cone_violation_fixture()
    controls_ok &= not audit_anchor_cones(T, sel).passed
    T, sel = controls.extremal_cone_violation_fixture()
    controls_ok &= not audit_extremal_cone(T, sel).passed
    ok = not failures and controls_ok
    emit(
        capsys,
        f"CRITERION 7 {'PASS' if ok else 'FAIL'}: structural audits pass on "
        f"200 seeds ({len(failures)} failures) and all 5 injected-corruption "
        f"negative controls are rejected "
        f"({'yes' if controls_ok else 'NO'})",
    )
    assert not failures, failures[:3]
    assert controls_ok


def test_criterion_8_witness_paths(capsys):
    checked = 0
    for seed in range(100):
        n = 5 + (seed * 11) % 116
        ps = random_points(seed + 60_000, n)
        T, sel = construct_d8(ps)
        d8 = distance_matrix(ps, sel.d8_edges)
        for u, v in sorted(T.edges):
            w = witness_path(T, sel, u, v)  # raises if recursion diverges
            assert w.vertices[0] == u and w.vertices[-1] == v
            assert all(sel.has_d8_edge(a, b) for a, b in zip(w.vertices, w.vertices[1:]))
            assert w.length >= d8[u, v] - 1e-9 * max(1.0, w.length)
            assert w.length <= canonical_bound(ps, u, v) * (1 + TOL)
            checked += 1
    emit(
        capsys,
        f"CRITERION 8 PASS: {checked} witness paths over 100 seeds are valid "
        f"selected-edge paths, >= Dijkstra, within the canonical-triangle "
        f"bound, and terminate",
    )
    assert checked > 0


def test_criterion_9_determinism(capsys):
    ok = True
    for cfg in (RunConfig(n=80, seed=4), RunConfig(n=40, seed=99, distribution="gaussian")):
        runs = []
        for _ in range(2):
            ps = generate(cfg)
            T, sel = construct_d8(ps)
            rep = report_json(run_audits(T, sel), cfg)
            runs.append((tuple(ps.xs), tuple(ps.ys), sel.e_a, sel.e_can, rep))
        ok &= runs[0] == runs[1]
    emit(
        capsys,
        f"CRITERION 9 {'PASS' if ok else 'FAIL'}: repeated runs with identical "
        f"config produce identical point sets, edge sets, and byte-identical "
        f"reports",
    )
    assert ok


def test_criterion_10_degree_8_attainment(capsys, degree_sweep):
    # exploratory only: report the maximum degree ever observed
    attained = degree_sweep["max_degree_seen"] == 8
    emit(
        capsys,
        f"CRITERION 10 PASS (exploratory): max degree observed "
        f"{degree_sweep['max_degree_seen']} over "
        f"{degree_sweep['instances']} instances (degree-8 attainment: "
        f"{'yes' if attained else 'not observed'}; reported, not required); "
        f"max incident-set degree {degree_sweep['max_e_a_degree_seen']}",
    )
    assert degree_sweep["max_degree_seen"] <= 8
