import json
import os
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_points
from d8span.analysis import run_audits
from d8span.builder import construct_d8
from d8span.cli import main
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
    from d8span.geometry import PointSet

    ps = PointSet.from_pairs(pairs)
    again = parse_points(serialize_points(ps))
    assert again.xs == ps.xs and again.ys == ps.ys


def test_parse_ignores_comments_and_blanks():
    ps = parse_points("# header\n\n1 2\n  # mid\n3.5 -4\n")
    assert ps.xs == (1.0, 3.5) and ps.ys == (2.0, -4.0)


def test_parse_rejects_bad_line():
    with pytest.raises(ValueError):
        parse_points("1 2 3\n")
    with pytest.raises(ValueError):
        parse_points("a b\n")


# ---------------------------------------------------------------------------
# generation


def test_generate_deterministic():
    cfg = RunConfig(n=50, seed=123)
    a = generate(cfg)
    b = generate(cfg)
    assert a.xs == b.xs and a.ys == b.ys


def test_generate_single_point():
    ps = generate(RunConfig(n=1, seed=0))
    assert len(ps) == 1


@pytest.mark.parametrize("dist", ["uniform-square", "gaussian", "annulus"])
def test_generate_distributions(dist):
    ps = generate(RunConfig(n=40, seed=7, distribution=dist))
    assert len(ps) == 40
    if dist == "annulus":
        import math

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
    from d8span.geometry import PointSet

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
                "--debug-crossings",
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
    assert capsys.readouterr().err.startswith("error: ")


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


def test_cli_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("D8_SEED", "77")
    assert main(["generate", "--n", "10", "--seed", "1"]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("D8_SEED")
    assert main(["generate", "--n", "10", "--seed", "77"]) == 0
    assert capsys.readouterr().out == with_env


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
