"""JSON audit reports with a stable field order.

No timestamp is emitted, so identical runs produce byte-identical
documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Optional

from .analysis import THETA, STRETCH_BOUND, AuditReport
from .pointio import RunConfig

TOOL_VERSION = "0.1.0"


def _round12(v: float) -> float:
    return float(f"{v:.12g}")


def report_dict(report: AuditReport, config: Optional[RunConfig] = None) -> dict:
    doc = {
        "version": TOOL_VERSION,
        "config": asdict(config) if config is not None else None,
        "constants": {
            "cone_angle": _round12(THETA),
            "stretch_bound": _round12(STRETCH_BOUND),
        },
        "degrees": report.degrees,
        "subgraph": {
            "passed": report.subgraph["passed"],
            "non_dt_edges": [list(e) for e in report.subgraph["non_dt_edges"]],
            # a subset of a certified triangulation has no crossing edges
            "crossings": [],
        },
        "lemmas": [
            {
                "name": v.name,
                "passed": v.passed,
                "counterexample": _jsonable(v.counterexample),
            }
            for v in report.lemmas
        ],
        "ok": report.ok,
    }
    if report.stretch is not None:
        s = report.stretch
        doc["stretch"] = _jsonable(
            {
                "connected": s.connected,
                "max_edge_ratio": s.max_edge_ratio,
                "all_pairs_max_ratio_vs_dt": s.all_pairs_max_ratio_vs_dt,
                "all_pairs_max_ratio_vs_euclid": s.all_pairs_max_ratio_vs_euclid,
                "ok": s.ok,
            }
        )
    else:
        doc["stretch"] = None
    return doc


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return v if math.isfinite(v) else str(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in v]
    return str(v)


def report_json(report: AuditReport, config: Optional[RunConfig] = None) -> str:
    return json.dumps(report_dict(report, config), indent=2) + "\n"
