"""Per-layer tracing from outside the program.

While a ``Tracer`` is installed, the public functions of each layer of
d8span are replaced by wrappers: either the timing wrappers (spans) or the
counting wrappers, never both in one round.  A module that did ``from
.geometry import orient`` holds its own binding, so every binding of a
wrapped function in the layer modules is replaced, and all of them are
restored on exit.

A span's self time is its duration minus the time covered by the timed
spans it caused.  The counted functions (the geometric predicates, called
millions of times) are wrapped only in a round of their own: a wrapper on
them would add its cost to their callers' spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("geometry", "pointio", "delaunay", "builder", "analysis", "report")

# (home module, function) -> span name.  Every binding in LAYERS is wrapped.
TIMED = {
    ("pointio", "generate"): "pointio.generate",
    ("pointio", "parse_points"): "pointio.parse_points",
    ("pointio", "serialize_points"): "pointio.serialize_points",
    ("delaunay", "build_dt"): "delaunay.build_dt",
    ("delaunay", "_SciPyDelaunay"): "delaunay.qhull",
    ("delaunay", "canonical_subgraph"): "delaunay.canonical_subgraph",
    ("delaunay", "cone_neighbourhood"): "delaunay.cone_neighbourhood",
    ("builder", "sort_edges"): "builder.sort_edges",
    ("builder", "add_incident"): "builder.add_incident",
    ("builder", "add_canonical"): "builder.add_canonical",
    ("analysis", "degree_audit"): "analysis.degree_audit",
    ("analysis", "subgraph_audit"): "analysis.subgraph_audit",
    ("analysis", "audit_canonical_paths"): "analysis.audit_canonical_paths",
    ("analysis", "audit_wedge_angles"): "analysis.audit_wedge_angles",
    ("analysis", "audit_shared_triangles"): "analysis.audit_shared_triangles",
    ("analysis", "audit_anchor_cones"): "analysis.audit_anchor_cones",
    ("analysis", "audit_extremal_cone"): "analysis.audit_extremal_cone",
    ("analysis", "audit_charged_cones"): "analysis.audit_charged_cones",
    ("analysis", "stretch_vs_dt"): "analysis.stretch_vs_dt",
    ("analysis", "distance_matrix"): "analysis.distance_matrix",
    ("report", "report_json"): "report.report_json",
}

# check_general_position is one function with two callers that matter: the
# binding in pointio is generate's draw screen, the one in delaunay is
# build_dt's slope screen.
TIMED_BINDINGS = {
    ("pointio", "check_general_position"): "pointio.check_general_position",
    ("delaunay", "check_general_position"): "delaunay.slope_screen",
}

COUNTED = {
    ("geometry", "orient"): "geometry.orient",
    ("geometry", "in_circle"): "geometry.in_circle",
    ("geometry", "_in_circle_exact"): "geometry.in_circle.exact",
    ("geometry", "cone_index_dir"): "geometry.cone_index_dir",
    ("geometry", "bisector_distance"): "geometry.bisector_distance",
}


class Tracer:
    """Accumulates call counts, inclusive seconds and self seconds by name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self._stack: list[float] = []  # child time covered, per open span

    def timed(self, name: str, fn):
        calls, seconds, self_seconds, stack = (
            self.calls, self.seconds, self.self_seconds, self._stack
        )
        clock = time.perf_counter

        def span(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                seconds[name] += dt
                self_seconds[name] += dt - child
                if stack:
                    stack[-1] += dt

        return span

    def counted(self, name: str, fn):
        calls = self.calls

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return count


@contextmanager
def installed(tracer: Tracer, modules: dict, *, counting: bool):
    """Replace every binding of the timed functions (or, if ``counting``,
    the counted ones) in ``modules`` (layer name -> module) with the
    tracer's wrappers; restore them on exit."""
    replaced: list[tuple[object, str, object]] = []

    def wrap_everywhere(home: str, attr: str, wrap, name: str):
        original = getattr(modules[home], attr)
        wrapper = wrap(name, original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    replaced.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def wrap_one(owner, attr: str, wrap, name: str):
        original = getattr(owner, attr)
        replaced.append((owner, attr, original))
        setattr(owner, attr, wrap(name, original))

    try:
        if counting:
            for (home, attr), name in COUNTED.items():
                wrap_everywhere(home, attr, tracer.counted, name)
            wrap_one(
                modules["geometry"].PointSet, "__getitem__", tracer.counted,
                "geometry.point_objects",
            )
        else:
            for (home, attr), name in TIMED.items():
                wrap_everywhere(home, attr, tracer.timed, name)
            for (home, attr), name in TIMED_BINDINGS.items():
                wrap_one(modules[home], attr, tracer.timed, name)
        yield tracer
    finally:
        for owner, key, value in reversed(replaced):
            setattr(owner, key, value)


def count_metrics(tracer: Tracer, work: dict) -> dict:
    """Per-layer counts of the counting round.  ``work`` holds the round's
    work counts (dt_edges, e_a_edges, e_can_edges)."""
    c = tracer.calls
    return {
        "geometry.orient.calls": c["geometry.orient"],
        "geometry.in_circle.calls": c["geometry.in_circle"],
        "geometry.in_circle.exact_calls": c["geometry.in_circle.exact"],
        "geometry.cone_index_dir.calls": c["geometry.cone_index_dir"],
        "geometry.bisector_distance.calls": c["geometry.bisector_distance"],
        "geometry.point_objects": c["geometry.point_objects"],
        "delaunay.dt_edges": work["dt_edges"],
        "builder.e_a_edges": work["e_a_edges"],
        "builder.e_can_edges": work["e_can_edges"],
    }


def span_metrics(tracer: Tracer) -> dict:
    """Per-layer times and span call counts of one timed round."""
    s, c, own = tracer.seconds, tracer.calls, tracer.self_seconds
    out = {
        "pointio.generate.s": s["pointio.generate"],
        "pointio.generate.draws": c["pointio.check_general_position"],
        "pointio.parse_points.s": s["pointio.parse_points"],
        "pointio.serialize_points.s": s["pointio.serialize_points"],
        "geometry.check_general_position.s": (
            s["pointio.check_general_position"] + s["delaunay.slope_screen"]
        ),
        "delaunay.build_dt.s": s["delaunay.build_dt"],
        "delaunay.slope_screen.s": s["delaunay.slope_screen"],
        "delaunay.qhull.s": s["delaunay.qhull"],
        "delaunay.build_dt.self_s": own["delaunay.build_dt"],
        "delaunay.canonical_subgraph.calls": c["delaunay.canonical_subgraph"],
        "delaunay.canonical_subgraph.s": s["delaunay.canonical_subgraph"],
        "delaunay.cone_neighbourhood.calls": c["delaunay.cone_neighbourhood"],
        "delaunay.cone_neighbourhood.s": s["delaunay.cone_neighbourhood"],
        "builder.sort_edges.s": s["builder.sort_edges"],
        "builder.add_incident.s": s["builder.add_incident"],
        "builder.add_canonical.calls": c["builder.add_canonical"],
        "builder.add_canonical.s": s["builder.add_canonical"],
    }
    for fn in (
        "degree_audit",
        "subgraph_audit",
        "audit_canonical_paths",
        "audit_wedge_angles",
        "audit_shared_triangles",
        "audit_anchor_cones",
        "audit_extremal_cone",
        "audit_charged_cones",
        "stretch_vs_dt",
    ):
        out[f"analysis.{fn}.s"] = s[f"analysis.{fn}"]
    out["analysis.distance_matrix.calls"] = c["analysis.distance_matrix"]
    out["analysis.distance_matrix.s"] = s["analysis.distance_matrix"]
    out["report.report_json.s"] = s["report.report_json"]
    return out
