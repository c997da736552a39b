import importlib.util
import json
import math
import subprocess
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_points
from d8span.analysis import run_audits
from d8span.builder import construct_d8
from d8span import cli
from d8span.builder import EdgeSelection
from d8span.cli import main
from d8span.geometry import PointSet
from d8span.pointio import (
    RunConfig,
    generate,
    parse_points,
    serialize_points,
)
from d8span.render import render_svg
from d8span.report import report_json

finite = st.floats(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# point files


@given(st.lists(st.tuples(finite, finite), max_size=30))
@settings(max_examples=200)
def test_point_file_round_trip_exact(pairs):
    ps = PointSet.from_pairs(pairs)
    again = parse_points(serialize_points(ps))
    assert np.array_equal(again.xs, ps.xs) and np.array_equal(again.ys, ps.ys)


def test_parse_ignores_comments_and_blanks():
    ps = parse_points("# header\n\n1 2\n  # mid\n3.5 -4\n")
    assert ps.xs.tolist() == [1.0, 3.5] and ps.ys.tolist() == [2.0, -4.0]


def test_parse_rejects_bad_line():
    with pytest.raises(ValueError):
        parse_points("1 2 3\n")
    with pytest.raises(ValueError):
        parse_points("a b\n")
    for bad in ("nan", "inf", "1e400"):
        with pytest.raises(ValueError, match="line 2"):
            parse_points(f"0 1\n{bad} 3\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_points(f"0 1\n3 -{bad}\n")


# ---------------------------------------------------------------------------
# generation


def test_generate_deterministic():
    cfg = RunConfig(n=50, seed=123)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


def test_generate_single_point():
    ps = generate(RunConfig(n=1, seed=0))
    assert len(ps) == 1


@pytest.mark.parametrize("dist", ["uniform-square", "gaussian", "annulus"])
def test_generate_distributions(dist):
    ps = generate(RunConfig(n=40, seed=7, distribution=dist))
    assert len(ps) == 40
    if dist == "annulus":
        for x, y in zip(ps.xs, ps.ys):
            r = math.hypot(x, y)
            assert 300.0 - 1e-9 <= r <= 500.0 + 1e-9


def test_generate_passes_general_position():
    from d8span.geometry import check_general_position

    for seed in range(10):
        ps = generate(RunConfig(n=120, seed=seed))
        assert check_general_position(ps).ok


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n=0, seed=1)
    with pytest.raises(ValueError):
        RunConfig(n=5, seed=1, distribution="hexagonal")


# ---------------------------------------------------------------------------
# svg


def test_svg_well_formed(small_instance):
    ps, T, sel = small_instance
    doc = render_svg(T, sel, cone_vertex=0)
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    ids = {g.get("id") for g in root}
    assert {"triangulation", "incident", "canonical", "points", "cones"} <= ids


def test_svg_points_only():
    from d8span.delaunay import build_dt

    T = build_dt(random_points(2, 10))
    doc = render_svg(T, None)
    root = ET.fromstring(doc)
    assert not any(g.get("id") == "incident" for g in root)


def test_svg_triangle_edge_counts():
    T, sel = construct_d8(PointSet.from_pairs([(0, 0), (4, 1), (1, 5)]))
    root = ET.fromstring(render_svg(T, sel))
    circles = root.findall(".//{*}circle")
    assert len(circles) == 3
    colored = [
        ln
        for g in root
        if g.get("id") in ("incident", "canonical")
        for ln in g
    ]
    assert len(colored) <= 3


# ---------------------------------------------------------------------------
# reports


def test_report_round_trip(small_instance):
    ps, T, sel = small_instance
    rep = run_audits(T, sel)
    doc = report_json(rep, RunConfig(n=40, seed=11))
    parsed = json.loads(doc)
    assert parsed == json.loads(report_json(rep, RunConfig(n=40, seed=11)))
    assert parsed["degrees"]["max_degree"] <= 8
    assert parsed["constants"]["stretch_bound"] == pytest.approx(2.20919957616)
    assert parsed["stretch"]["all_pairs_max_ratio_vs_dt"] >= 1.0
    assert parsed["ok"] is True


def test_report_byte_identical(small_instance):
    ps, T, sel = small_instance
    a = report_json(run_audits(T, sel))
    b = report_json(run_audits(T, sel))
    assert a == b


# ---------------------------------------------------------------------------
# cli


def test_cli_pipeline(tmp_path):
    pts = tmp_path / "pts.txt"
    edges = tmp_path / "edges.txt"
    rep = tmp_path / "rep.json"
    svg = tmp_path / "fig.svg"
    assert main(["generate", "--n", "40", "--seed", "3", "--out", str(pts)]) == 0
    assert (
        main(
            [
                "build",
                "--in",
                str(pts),
                "--out-edges",
                str(edges),
                "--svg",
                str(svg),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "audit",
                "--in",
                str(pts),
                "--report",
                str(rep),
            ]
        )
        == 0
    )
    doc = json.loads(rep.read_text())
    assert doc["ok"] is True
    ET.fromstring(svg.read_text())
    text = edges.read_text()
    assert "# E_A" in text and "# E_CAN" in text


def test_cli_build_two_points(tmp_path, capsys):
    pts = tmp_path / "two.txt"
    pts.write_text("0 0\n1 2\n")
    assert main(["build", "--in", str(pts)]) == 0
    out = capsys.readouterr().out
    assert "0 1" in out


def test_cli_audit_corrupted_edges_exits_1(tmp_path):
    pts = tmp_path / "pts.txt"
    assert main(["generate", "--n", "20", "--seed", "5", "--out", str(pts)]) == 0
    bad = tmp_path / "bad.txt"
    # vertex 0 joined to everything: not a DT subset, degree blown
    bad.write_text("# E_A\n" + "".join(f"0 {v}\n" for v in range(1, 20)))
    rep = tmp_path / "rep.json"
    assert main(["audit", "--in", str(pts), "--edges", str(bad), "--report", str(rep)]) == 1
    doc = json.loads(rep.read_text())
    assert doc["ok"] is False


@pytest.mark.parametrize("edge", ["0 99", "-1 5"])
def test_cli_audit_edge_id_out_of_range_exits_2(tmp_path, capsys, edge):
    pts = tmp_path / "pts.txt"
    assert main(["generate", "--n", "30", "--seed", "1", "--out", str(pts)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text(f"# E_A\n{edge}\n")
    assert main(["audit", "--in", str(pts), "--edges", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:2: vertex id outside")


@pytest.mark.parametrize(
    "edge, reason",
    [("3 3", "joins vertex 3 to itself"), ("1.5 2", "expected integer vertex ids")],
)
def test_cli_audit_bad_edge_line_exits_2(tmp_path, capsys, edge, reason):
    # a self-loop is not an edge; left to the audit, it would read as a
    # degree-2 vertex with a non-DT edge, an audit failure
    pts = tmp_path / "pts.txt"
    assert main(["generate", "--n", "30", "--seed", "1", "--out", str(pts)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text(f"# E_A\n0 1\n{edge}\n")
    assert main(["audit", "--in", str(pts), "--edges", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:3: {reason}: {edge!r}\n"


def test_cli_missing_file_exits_2(tmp_path):
    assert main(["build", "--in", str(tmp_path / "nope.txt")]) == 2


def test_cli_bad_witness_edge_exits_2(tmp_path):
    pts = tmp_path / "pts.txt"
    assert main(["generate", "--n", "10", "--seed", "5", "--out", str(pts)]) == 0
    assert main(["witness", "--in", str(pts), "--edge", "zzz"]) == 2


def test_cli_witness_valid_edge(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    assert main(["generate", "--n", "25", "--seed", "9", "--out", str(pts)]) == 0
    ps = parse_points(pts.read_text())
    T, sel = construct_d8(ps)
    u, v = sorted(T.edges)[0]
    assert main(["witness", "--in", str(pts), "--edge", f"{u},{v}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"][0] == u and doc["vertices"][-1] == v


def test_cli_stretch_report(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    assert main(["generate", "--n", "60", "--seed", "2", "--out", str(pts)]) == 0
    assert main(["stretch", "--in", str(pts)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_per_edge_ratio"] <= 2.2091996 + 1e-9
    assert doc["max_per_edge_ratio"] == doc["all_pairs_max_ratio_vs_dt"]


def test_cli_one_point_reports(tmp_path, capsys):
    # a graph on one point keeps every distance: each stretch figure is 1.0
    pts = tmp_path / "one.txt"
    pts.write_text("3.5 -1\n")
    assert main(["audit", "--in", str(pts)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["stretch"] == {
        "connected": True,
        "max_edge_ratio": 1.0,
        "all_pairs_max_ratio_vs_dt": 1.0,
        "all_pairs_max_ratio_vs_euclid": 1.0,
        "ok": True,
    }
    assert main(["stretch", "--in", str(pts)]) == 0
    assert capsys.readouterr().out == (
        "{\n"
        '  "connected": true,\n'
        '  "dt_edges": 0,\n'
        '  "max_per_edge_ratio": 1.0,\n'
        '  "max_edge_ratio_vs_euclid_bound_ok": true,\n'
        '  "all_pairs_max_ratio_vs_dt": 1.0,\n'
        '  "all_pairs_max_ratio_vs_euclid": 1.0\n'
        "}\n"
    )


def _strict_json(text):
    """RFC 8259 JSON: Infinity and NaN are not numbers there."""

    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(text, parse_constant=reject)


def _one_edge(T):
    u, v = sorted(T.edges)[0]
    return EdgeSelection(e_a=frozenset({(u, v)}), e_can=frozenset())


def test_cli_disconnected_audit_is_strict_json(tmp_path, capsys):
    # one edge on 8 points leaves the spanner disconnected: every stretch
    # figure is infinite, written as "inf" like the lemma counterexamples
    pts = tmp_path / "pts.txt"
    assert main(["generate", "--n", "8", "--seed", "1", "--out", str(pts)]) == 0
    T, _ = construct_d8(parse_points(pts.read_text()))
    u, v = sorted(_one_edge(T).e_a)[0]
    edges = tmp_path / "edges.txt"
    edges.write_text(f"# E_A\n{u} {v}\n")
    capsys.readouterr()
    assert main(["audit", "--in", str(pts), "--edges", str(edges)]) == 1
    s = _strict_json(capsys.readouterr().out)["stretch"]
    assert s["connected"] is False
    assert s["max_edge_ratio"] == "inf"
    assert s["all_pairs_max_ratio_vs_dt"] == "inf"
    assert s["all_pairs_max_ratio_vs_euclid"] == "inf"


def test_cli_disconnected_stretch_is_strict_json(tmp_path, capsys, monkeypatch):
    # the construction is always connected; a one-edge selection stands in
    pts = tmp_path / "pts.txt"
    assert main(["generate", "--n", "8", "--seed", "1", "--out", str(pts)]) == 0
    real = cli.construct_d8

    def one_edge(ps):
        T, _ = real(ps)
        return T, _one_edge(T)

    monkeypatch.setattr(cli, "construct_d8", one_edge)
    capsys.readouterr()
    assert main(["stretch", "--in", str(pts)]) == 1
    doc = _strict_json(capsys.readouterr().out)
    assert doc["connected"] is False
    assert doc["max_per_edge_ratio"] == "inf"
    assert doc["all_pairs_max_ratio_vs_euclid"] == "inf"


def test_cli_point_dropped_by_qhull_exits_1(tmp_path, capsys):
    # point 30 is point 5 moved one ulp up in x and y: distinct and in
    # general position, but Qhull leaves it out of every triangle.  That is
    # a construction failure, not a cocircular input.
    rng = np.random.default_rng(0)
    pairs = rng.uniform(0, 1, (30, 2)).tolist()
    x, y = pairs[5]
    pairs.append([math.nextafter(x, 2), math.nextafter(y, 2)])
    pts = tmp_path / "pts.txt"
    pts.write_text(serialize_points(PointSet.from_pairs(pairs)))
    assert main(["audit", "--in", str(pts)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "in no triangle: (30,)" in err["construction_error"]


def test_cli_degenerate_input_exits_2(tmp_path, capsys):
    pts = tmp_path / "bad.txt"
    pts.write_text("0 0\n1 0\n2 5\n")  # slope-0 pair
    assert main(["build", "--in", str(pts)]) == 2
    # 3000 points on one horizontal line: a short report, no traceback
    pts.write_text("".join(f"{x} 0\n" for x in range(3000)))
    capsys.readouterr()
    assert main(["build", "--in", str(pts)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: point set violates general position: slope(0, 1)")
    assert err.count("slope(") == 10


def _bench_stages():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_stages.py"
    spec = importlib.util.spec_from_file_location("bench_stages", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", ["missing", "file"])
def test_bench_stages_checks_out_before_running(monkeypatch, tmp_path, capsys, target):
    # an --out that is no directory is a usage error, found before any size
    # runs
    bench = _bench_stages()
    out = tmp_path / target
    if target == "file":
        out.write_text("")

    def child(*args, **kwargs):
        raise AssertionError("a size ran before --out was checked")

    monkeypatch.setattr(subprocess, "run", child)
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", "t", "--sizes", "500", "--out", str(out)])
    assert exc.value.code == 2
    assert "is not a directory" in capsys.readouterr().err
