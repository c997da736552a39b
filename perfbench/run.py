#!/usr/bin/env python3
"""Time from a seed to a certified degree-8 spanner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the pipeline the CLI runs -- generate, write and re-read the point
file, construct_d8, run_audits, report_json -- single-threaded in this
process, on the checkout's own ``src`` (nothing needs installing).  Every
output is checked by ``checks.py``.  A run repeats whole rounds of the
workload's instances until ``--seconds`` have passed and reports the median
round.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced rounds for half the time, then one round that only counts calls and
timed rounds for the rest (see ``tracing.py``), and prints the per-layer
metrics with the tracing overhead.  The last line of
standard output is the result object; an environment stamp precedes it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    distribution: str
    sizes: tuple[int, ...]  # one instance per entry, run in this order
    with_stretch: bool


# The sizes of tests/test_acceptance.py's all-pairs stretch sweep,
# n = 5 + 41k mod 296 for k = 0, 1, ..., without those above generate's
# 200-point exhaustive-screen limit: the first eight, so that a round takes
# 3-6 s and a run has at least five rounds to take its median over.
SWEEP_SIZES = [n for n in (5 + (41 * k) % 296 for k in range(11)) if n <= 200]

# Why these three: see README.md.  Sizes are fixed so that the work per round
# does not depend on the seed; the seed only draws the coordinates.
WORKLOADS = {
    "uniform-large": Workload("uniform-square", (20_000,), with_stretch=False),
    "annulus-stretch": Workload("annulus", (3_000,), with_stretch=True),
    # Largest first, so the peak resident set is read after the largest.
    "sweep-small": Workload(
        "uniform-square", tuple(sorted(SWEEP_SIZES, reverse=True)), with_stretch=True
    ),
}

SETUP_SAMPLES = 5
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, scipy.spatial, scipy.sparse.csgraph, d8span
print(time.perf_counter() - t0, d8span.__file__)
"""

END_TO_END = ("generate_s", "build_s", "audit_s", "total_s")


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_d8span():
    """Import d8span from this checkout's src, never from an installed copy."""
    if not (SRC / "d8span" / "__init__.py").is_file():
        fail(f"no d8span sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import d8span
    from d8span import analysis, builder, delaunay, geometry, pointio, report

    if Path(d8span.__file__).resolve().parent != SRC / "d8span":
        fail(f"imported d8span from {d8span.__file__}, not from {SRC}")
    return {
        "geometry": geometry,
        "pointio": pointio,
        "delaunay": delaunay,
        "builder": builder,
        "analysis": analysis,
        "report": report,
    }


def measure_setup() -> float:
    """Median seconds to import d8span with numpy and scipy in a fresh
    process, over SETUP_SAMPLES processes."""
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout.split()
        if Path(out[1]).resolve().parent != SRC / "d8span":
            fail(f"setup probe imported d8span from {out[1]}")
        times.append(float(out[0]))
    return statistics.median(times)


def env_stamp() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "d8span_file": str(Path(sys.modules["d8span"].__file__).resolve().relative_to(ROOT)),
    }


def run_instance(mods, cfg, path: Path, with_stretch: bool):
    """The timed pipeline for one instance; returns its timings and outputs."""
    pointio, builder = mods["pointio"], mods["builder"]
    clock = time.perf_counter
    t0 = clock()
    ps = pointio.generate(cfg)
    t1 = clock()
    pointio.save_points(ps, path)
    parsed = pointio.load_points(path)
    t2 = clock()
    T, sel = builder.construct_d8(parsed)
    t3 = clock()
    rep = mods["analysis"].run_audits(T, sel, with_stretch=with_stretch)
    text = mods["report"].report_json(rep, cfg)
    t4 = clock()
    times = {
        "generate_s": t1 - t0,
        "build_s": t3 - t2,
        "audit_s": t4 - t3,
        "total_s": t4 - t0,
    }
    return times, (ps, parsed, T, sel, text)


def certify(outputs, with_stretch: bool) -> None:
    ps, parsed, T, sel, text = outputs
    checks.check_points(ps.xs, ps.ys, parsed.xs, parsed.ys)
    X, Y = checks.exact_coords(parsed.xs, parsed.ys)
    checks.check_triangulation(X, Y, T.triangles, T.edges)
    degrees = checks.check_selection(X, Y, T.triangles, T.edges, sel.e_a, sel.e_can)
    worst = checks.check_stretch(parsed.xs, parsed.ys, T.edges, sel.d8_edges)
    checks.check_report(json.loads(text), degrees, with_stretch, worst)


class Run:
    """Counts and results shared by the rounds of one run."""

    def __init__(self, mods, workload: Workload, seed: int, name: str):
        self.mods, self.workload, self.seed = mods, workload, seed
        self.path = OUT / f"points-{name}.txt"
        self.attempted = self.failed = 0
        self.correct = True
        self.peak_rss_mb = None

    def round(self) -> tuple[dict | None, dict]:
        """One pass over the workload's instances: summed end-to-end times
        (None if an instance failed, so a failure never reads as a faster
        round) and work counts."""
        RunConfig = self.mods["pointio"].RunConfig
        times = dict.fromkeys(END_TO_END, 0.0)
        work = dict.fromkeys(("dt_edges", "e_a_edges", "e_can_edges"), 0)
        complete = True
        for k, n in enumerate(self.workload.sizes):
            cfg = RunConfig(
                n=n, seed=self.seed * 1000 + k, distribution=self.workload.distribution
            )
            self.attempted += 1
            gc.collect()
            try:
                t, outputs = run_instance(
                    self.mods, cfg, self.path, self.workload.with_stretch
                )
            except Exception:
                self.failed += 1
                complete = False
                traceback.print_exc()
                continue
            if self.peak_rss_mb is None:
                # Read before any check allocates, so it is the pipeline's peak.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for key in END_TO_END:
                times[key] += t[key]
            _, _, T, sel, _ = outputs
            work["dt_edges"] += len(T.edges)
            work["e_a_edges"] += len(sel.e_a)
            work["e_can_edges"] += len(sel.e_can)
            try:
                certify(outputs, self.workload.with_stretch)
            except checks.CheckFailed as exc:
                self.correct = False
                print(f"perfbench: check failed on {cfg}: {exc}", file=sys.stderr)
            del outputs, T, sel
        return (times if complete else None), work


def traced_round(run: Run, counting: bool):
    """One round with the counting or the timing wrappers installed."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer, run.mods, counting=counting):
        times, work = run.round()
    return times, work, tracer


def rounds_until(run: Run, deadline: float, traced: bool) -> list:
    """As many whole rounds as fit before ``deadline``, judged by the last
    round's length, and at least one: (times, work, tracer or None) each,
    timed rounds if ``traced``."""
    out = []
    last = 0.0
    while not out or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        if traced:
            out.append(traced_round(run, counting=False))
        else:
            out.append((*run.round(), None))
        last = time.perf_counter() - started
    return out


def median_times(rows: list, key: str) -> float:
    """Median of ``key`` over the rounds in which no instance failed."""
    values = [times[key] for times, _, _ in rows if times is not None]
    if not values:
        fail("no round ran without a failed operation")
    return statistics.median(values)


def unit_of(metric: str) -> str:
    return "s" if metric.endswith((".s", "_s")) else "count"


def measure(name: str, workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the environment stamp and the result."""
    mods = import_d8span()
    metrics = {}
    if not traced:
        metrics["setup_s"] = measure_setup()
    OUT.mkdir(exist_ok=True)
    run = Run(mods, workload, seed, name)
    start = time.perf_counter()
    plain = rounds_until(run, start + (seconds / 2 if traced else seconds), False)
    if not traced:
        for key in END_TO_END:
            metrics[key] = median_times(plain, key)
        metrics["peak_rss_mb"] = run.peak_rss_mb
    else:
        # Call counts are fixed for a given seed, so one round takes them;
        # the counting wrappers stay out of the timed rounds.
        _, work, counts = traced_round(run, counting=True)
        rows = rounds_until(run, start + seconds, True)
        spans = [
            {span: {"calls": tracer.calls[span], "s": tracer.seconds[span],
                    "self_s": tracer.self_seconds[span]} for span in sorted(tracer.calls)}
            for _, _, tracer in rows
        ]
        overhead = median_times(rows, "total_s") - median_times(plain, "total_s")
        per_round = [
            tracing.span_metrics(tracer) for times, _, tracer in rows if times is not None
        ]
        for key in per_round[0]:
            metrics[key] = statistics.median(r[key] for r in per_round)
        metrics.update(tracing.count_metrics(counts, work))
        metrics["trace.overhead_s"] = overhead
    run.path.unlink(missing_ok=True)
    units = {"peak_rss_mb": "MB"}
    return {
        "env": env_stamp(),
        "rounds": [times for times, _, _ in plain],
        "spans": spans if traced else None,
        "result": {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                k: {"value": v, "unit": units.get(k) or unit_of(k)}
                for k, v in metrics.items()
            },
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    out = measure(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(out, indent=2) + "\n")
    print("# env " + json.dumps(out["env"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
