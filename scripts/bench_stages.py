#!/usr/bin/env python3
"""Per-stage wall time and peak RSS of the pipeline, one process per size.

    PYTHONPATH=src python scripts/bench_stages.py --label NAME [--sizes 500 5000 50000]

For each n, a fresh process generates ``RunConfig(n, seed=1)`` (uniform
square), then times ``construct_d8``, ``run_audits(with_stretch=False)`` and
``stretch_vs_dt``, and the stages inside them through wrappers put on the
module attributes they are called by.  The completion is ``select_edges``
minus ``sort_edges`` and ``add_incident``.  The stretch maxima and verdict
are recorded too, so that runs of two trees can be checked for equal
figures.  Peak RSS is read after the structural audits and again after the
stretch audit.  Then ``witness_path`` runs on the first ``WITNESS_EDGES``
DT edges in key order, timed directly (it recurses through its module
binding, so a wrapper would count each recursion again), for its
microseconds per edge.  Last, the CLI's ``audit`` (construction, every
audit, the report) runs on the same points in a child process, for its wall
time and peak RSS.

Writes ``BENCH_<label>.json`` into ``--out`` (default: the current
directory) and prints it.  Times vary with the machine and its load: compare
runs made on one machine, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (module, attribute) -> stage name; each wrapper replaces the binding its
# caller reads
STAGES = {
    ("delaunay", "check_general_position"): "slope_screen",
    ("delaunay", "_SciPyDelaunay"): "qhull",
    ("delaunay", "certify_delaunay"): "certify_delaunay",
    ("delaunay", "triangulation_from_triangles"): "cone_table",
    ("builder", "build_dt"): "build_dt",
    ("builder", "sort_edges"): "sort_edges",
    ("builder", "add_incident"): "add_incident",
    ("builder", "select_edges"): "select_edges",
    ("analysis", "degree_audit"): "degree_audit",
    ("analysis", "subgraph_audit"): "subgraph_audit",
    ("analysis", "_subgraph_lemmas"): "subgraph_lemmas",
    ("analysis", "audit_wedge_angles"): "wedge_angles",
    ("analysis", "audit_shared_triangles"): "shared_triangles",
    ("analysis", "audit_charged_cones"): "charged_cones",
    ("analysis", "_every_row"): "stretch_every_row",
    ("analysis", "_edge_paths"): "stretch_edge_pass",
    ("analysis", "_sweep"): "stretch_sweep",
}

#: DT edges, the first in key order, whose witness paths are timed.
WITNESS_EDGES = 2000


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def measure(n: int) -> dict:
    """The stage times and peaks of one size, in this process."""
    from d8span import analysis, builder, delaunay
    from d8span.pointio import RunConfig, generate, save_points

    modules = {"delaunay": delaunay, "builder": builder, "analysis": analysis}
    seconds = dict.fromkeys(STAGES.values(), 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0

        return wrapper

    for (module, attr), name in STAGES.items():
        mod = modules[module]
        setattr(mod, attr, timed(name, getattr(mod, attr)))

    clock = time.perf_counter
    t0 = clock()
    ps = generate(RunConfig(n=n, seed=1))
    t1 = clock()
    T, sel = builder.construct_d8(ps)
    t2 = clock()
    analysis.run_audits(T, sel, with_stretch=False)
    t3 = clock()
    rss_audits = peak_rss_mb()
    stretch = analysis.stretch_vs_dt(T, sel)
    t4 = clock()
    rss_stretch = peak_rss_mb()
    u, v = divmod(T._keys[:WITNESS_EDGES], n)
    w0 = clock()
    for p, q in zip(u.tolist(), v.tolist()):
        analysis.witness_path(T, sel, p, q)
    witness_us = (clock() - w0) / len(u) * 1e6
    out = {
        "generate": t1 - t0,
        "construct_d8": t2 - t1,
        **{k: seconds[k] for k in ("slope_screen", "qhull", "certify_delaunay",
                                   "cone_table", "build_dt", "sort_edges",
                                   "add_incident")},
        "completion": seconds["select_edges"] - seconds["sort_edges"]
        - seconds["add_incident"],
        "run_audits": t3 - t2,
        **{k: seconds[k] for k in ("degree_audit", "subgraph_audit",
                                   "subgraph_lemmas", "wedge_angles",
                                   "shared_triangles", "charged_cones")},
        "stretch_vs_dt": t4 - t3,
        **{k: seconds[k] for k in ("stretch_every_row", "stretch_edge_pass",
                                   "stretch_sweep")},
    }
    del T, sel
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.txt"
        save_points(ps, path)
        t5 = clock()
        subprocess.run(
            [sys.executable, "-m", "d8span.cli", "audit", "--in", str(path),
             "--report", os.devnull],
            check=True, timeout=3600,
        )
        cli_s = clock() - t5
    return {
        "n": n,
        "seconds": {k: round(v, 4) for k, v in out.items()},
        "witness_us_per_edge": round(witness_us, 1),
        "witness_edges": len(u),
        "cli_audit_s": round(cli_s, 3),
        "stretch": {
            "max_edge_ratio": stretch.max_edge_ratio,
            "all_pairs_max_ratio_vs_euclid": stretch.all_pairs_max_ratio_vs_euclid,
            "ok": stretch.ok,
        },
        "peak_rss_mb": {
            "after_audits": round(rss_audits, 1),
            "after_stretch": round(rss_stretch, 1),
            "cli_audit": round(peak_rss_mb(resource.RUSAGE_CHILDREN), 1),
        },
    }


def env_stamp() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="names the output BENCH_<label>.json")
    ap.add_argument("--sizes", type=int, nargs="+", default=[500, 5000, 50000])
    ap.add_argument("--out", default=".", help="directory of the output file")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return 0
    if not args.label:
        ap.error("--label is required")
    if not Path(args.out).is_dir():
        ap.error(f"--out {args.out!r} is not a directory")
    runs = []
    for n in args.sizes:
        child = subprocess.run(
            [sys.executable, __file__, "--one", str(n)],
            check=True, capture_output=True, text=True, timeout=3600,
        )
        runs.append(json.loads(child.stdout.splitlines()[-1]))
    doc = {"label": args.label, "env": env_stamp(), "runs": runs}
    text = json.dumps(doc, indent=2) + "\n"
    (Path(args.out) / f"BENCH_{args.label}.json").write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
