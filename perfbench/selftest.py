#!/usr/bin/env python3
"""Quick self-test of the benchmark: about fifteen seconds.

    python3 perfbench/selftest.py

1. Every workload, shrunk to tiny sizes, runs end to end with and without
   tracing, every check on, and prints exactly the metrics BENCHMARK.json
   names.
2. A round in which an instance raises counts the failure and gives no
   times, so a failure never reads as a faster round.
3. Negative controls: outputs corrupted in four ways that the checks must
   reject.
"""

from __future__ import annotations

import json
import sys

import checks
import run

TINY = {
    # Above generate's 200-point exhaustive-screen limit, like the real one.
    "uniform-large": run.Workload("uniform-square", (1_000,), with_stretch=False),
    "annulus-stretch": run.Workload("annulus", (400,), with_stretch=True),
    "sweep-small": run.Workload("uniform-square", (48, 40), with_stretch=True),
}
SEED = 7


def expect(cond: bool, what: str) -> None:
    print(f"{'PASS' if cond else 'FAIL'}  {what}")
    if not cond:
        raise SystemExit(1)


def rejected(fn, *args) -> str | None:
    """The check's message if it rejects the arguments, else None."""
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        return str(exc)
    return None


def workloads_end_to_end() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(set(TINY) == {w["name"] for w in spec["workloads"]}, "workload names")
    for name, workload in TINY.items():
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run.measure(name, workload, SEED, 0.0, traced)["result"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(
                res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                and got == want,
                f"{name} trace={int(traced)}: correct, no failures, {len(got)} metrics",
            )
            if not traced:
                expect(
                    all(m["value"] > 0 for m in res["metrics"].values()),
                    f"{name}: every end-to-end metric above 0",
                )


def failed_round_left_out() -> None:
    real = run.run_instance

    def failing(mods, cfg, path, with_stretch):
        if cfg.n == 40:
            raise RuntimeError("planted failure")
        return real(mods, cfg, path, with_stretch)

    r = run.Run(run.import_d8span(), TINY["sweep-small"], SEED, "selftest")
    run.run_instance = failing
    try:
        times, _ = r.round()
    finally:
        run.run_instance = real
        r.path.unlink(missing_ok=True)
    expect(times is None and (r.attempted, r.failed) == (2, 1) and r.correct,
           "a round with a failed instance: counted, no times")


def negative_controls() -> None:
    mods = run.import_d8span()
    ps = mods["pointio"].generate(mods["pointio"].RunConfig(n=200, seed=SEED))
    T, sel = mods["builder"].construct_d8(ps)
    X, Y = checks.exact_coords(ps.xs, ps.ys)

    def selection(e_a, e_can):
        return rejected(checks.check_selection, X, Y, T.triangles, T.edges, e_a, e_can)

    def stretch(edges):
        return rejected(checks.check_stretch, ps.xs, ps.ys, T.edges, edges)

    expect(rejected(checks.check_triangulation, X, Y, T.triangles, T.edges) is None
           and selection(sel.e_a, sel.e_can) is None and stretch(sel.d8_edges) is None,
           "the unmodified instance passes every check")

    # One E_CAN edge removed.  Most E_CAN edges are also in E_A; removing one
    # of those from the spanner leaves its Delaunay edge without a blocker.
    shared = min(sel.e_a & sel.e_can)
    msg = selection(sel.e_a - {shared}, sel.e_can - {shared})
    expect(msg is not None and "no blocker" in msg,
           f"E_CAN edge {shared}, also in E_A, removed: {msg}")
    # An edge only in E_CAN is caught by the completion check.  The stretch
    # bound alone does not catch it: it holds with slack on random inputs.
    only = min(sel.e_can - sel.e_a)
    msg = selection(sel.e_a, sel.e_can - {only})
    expect(msg is not None and "canonical completion" in msg,
           f"E_CAN-only edge {only} removed: {msg}")
    kept = sum(stretch(sel.d8_edges - {e}) is None for e in sel.e_can - sel.e_a)
    print(f"info  stretch bound still holds after {kept} of "
          f"{len(sel.e_can - sel.e_a)} single E_CAN-only removals")

    # A non-Delaunay edge added.
    extra = next((0, v) for v in range(1, len(ps)) if (0, v) not in T.edges)
    msg = selection(sel.e_a, sel.e_can | {extra})
    expect(msg is not None and "not Delaunay" in msg, f"non-Delaunay edge {extra} added: {msg}")

    # One interior edge flipped.  Pick one whose quadrilateral is convex, so the
    # result is still a valid triangulation and only the Delaunay test can fail.
    tris = [tuple(t) for t in T.triangles]
    owner: dict[tuple[int, int], list[int]] = {}
    for k, t in enumerate(tris):
        for a, b in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            owner.setdefault((a, b), []).append(k)
    for (a, b), ks in sorted(owner.items()):
        if len(ks) != 2:
            continue
        c, d = (next(v for v in tris[k] if v not in (a, b)) for k in ks)
        if checks.orient(X, Y, c, d, a) * checks.orient(X, Y, c, d, b) < 0:
            break
    else:
        raise SystemExit("no flippable edge found")
    flipped = [t for k, t in enumerate(tris) if k not in ks]
    flipped += [tuple(sorted((c, d, a))), tuple(sorted((c, d, b)))]
    edges = (set(T.edges) - {(a, b)}) | {(min(c, d), max(c, d))}
    msg = rejected(checks.check_triangulation, X, Y, flipped, edges)
    expect(msg is not None and "not locally Delaunay" in msg,
           f"interior edge {(a, b)} flipped to {(c, d)}: {msg}")


def main() -> int:
    run.SETUP_SAMPLES = 1
    workloads_end_to_end()
    failed_round_left_out()
    negative_controls()
    return 0


if __name__ == "__main__":
    sys.exit(main())
