"""Command-line surface.

Subcommands: generate, build, audit, stretch, witness.  Exit codes:
0 = all asserted bounds hold, 1 = an audit or bound failed (a JSON
counterexample is emitted), 2 = input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import run_audits, stretch_vs_dt, witness_path
from .builder import ConstructionError, EdgeSelection, construct_d8
from .delaunay import build_dt, edge_key
from .geometry import GeneralPositionError
from .pointio import DISTRIBUTIONS, RunConfig, generate, load_points, serialize_points
from .render import render_svg
from .report import _jsonable, report_json

EXIT_OK = 0
EXIT_AUDIT_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_edge_file(path: str, n: int) -> EdgeSelection:
    """Edge list with '# E_A' / '# E_CAN' section markers; '<u> <v>' lines
    naming two distinct integer vertex ids in [0, n)."""
    e_a: set[tuple[int, int]] = set()
    e_can: set[tuple[int, int]] = set()
    current = e_a
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tag = line.lstrip("#").strip().upper()
            if tag == "E_A":
                current = e_a
            elif tag == "E_CAN":
                current = e_can
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected '<u> <v>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: expected integer vertex ids: {line!r}"
            ) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{path}:{lineno}: vertex id outside [0, {n})")
        if u == v:
            raise ValueError(f"{path}:{lineno}: joins vertex {u} to itself: {line!r}")
        current.add(edge_key(u, v))
    return EdgeSelection(e_a=frozenset(e_a), e_can=frozenset(e_can))


def _serialize_edges(sel: EdgeSelection) -> str:
    lines = ["# E_A"]
    lines += [f"{u} {v}" for u, v in sorted(sel.e_a)]
    lines.append("# E_CAN")
    lines += [f"{u} {v}" for u, v in sorted(sel.e_can)]
    return "\n".join(lines) + "\n"


def _cmd_generate(args) -> int:
    cfg = RunConfig(
        n=args.n, seed=args.seed, distribution=args.dist, perturbation=args.perturb
    )
    ps = generate(cfg)
    _write(args.out, serialize_points(ps))
    return EXIT_OK


def _cmd_build(args) -> int:
    ps = load_points(args.infile)
    T, sel = construct_d8(ps)
    _write(args.out_edges, _serialize_edges(sel))
    if args.svg:
        _write(args.svg, render_svg(T, sel))
    return EXIT_OK


def _cmd_audit(args) -> int:
    ps = load_points(args.infile)
    if args.edges:
        T = build_dt(ps)
        sel = _parse_edge_file(args.edges, len(ps))
    else:
        T, sel = construct_d8(ps)
    report = run_audits(T, sel)
    _write(args.report, report_json(report))
    return EXIT_OK if report.ok else EXIT_AUDIT_FAILURE


def _cmd_stretch(args) -> int:
    ps = load_points(args.infile)
    T, sel = construct_d8(ps)
    s = stretch_vs_dt(T, sel)
    doc = {
        "connected": s.connected,
        "dt_edges": len(s.path),
        "max_per_edge_ratio": s.max_edge_ratio,
        "max_edge_ratio_vs_euclid_bound_ok": s.ok,
        "all_pairs_max_ratio_vs_dt": s.all_pairs_max_ratio_vs_dt,
        "all_pairs_max_ratio_vs_euclid": s.all_pairs_max_ratio_vs_euclid,
    }
    _write(args.report, json.dumps(_jsonable(doc), indent=2) + "\n")
    return EXIT_OK if s.ok else EXIT_AUDIT_FAILURE


def _cmd_witness(args) -> int:
    ps = load_points(args.infile)
    try:
        p, q = (int(t) for t in args.edge.split(","))
    except ValueError:
        raise ValueError(f"--edge expects 'p,q', got {args.edge!r}") from None
    T, sel = construct_d8(ps)
    if not T.is_edge(p, q):
        raise ValueError(f"({p},{q}) is not a triangulation edge")
    w = witness_path(T, sel, p, q)
    doc = {
        "source": w.source,
        "target": w.target,
        "vertices": w.vertices,
        "length": w.length,
        "trace": w.trace,
    }
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    if args.svg:
        _write(args.svg, render_svg(T, sel, path=w.vertices))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="d8span",
        description="Bounded-degree plane spanner construction and verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random point set")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform-square")
    g.add_argument("--perturb", type=float, default=None)
    g.add_argument("--out", default="-")
    g.set_defaults(func=_cmd_generate)

    b = sub.add_parser("build", help="construct the spanner")
    b.add_argument("--in", dest="infile", required=True)
    b.add_argument("--out-edges", default="-")
    b.add_argument("--svg", default=None)
    b.set_defaults(func=_cmd_build)

    a = sub.add_parser("audit", help="run degree/subgraph/structural audits")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--edges", default=None, help="audit this edge file instead")
    a.add_argument("--report", default="-")
    a.set_defaults(func=_cmd_audit)

    s = sub.add_parser("stretch", help="per-edge and all-pairs stretch")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--report", default="-")
    s.set_defaults(func=_cmd_stretch)

    w = sub.add_parser("witness", help="constructive short path for one edge")
    w.add_argument("--in", dest="infile", required=True)
    w.add_argument("--edge", required=True, help="'p,q' vertex ids")
    w.add_argument("--out", default="-")
    w.add_argument("--svg", default=None)
    w.set_defaults(func=_cmd_witness)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, GeneralPositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConstructionError as exc:
        print(json.dumps({"construction_error": str(exc)}), file=sys.stderr)
        return EXIT_AUDIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
