"""SVG rendering of the triangulation and the selected edges.

Layering: triangulation edges light gray underneath, incident-selection
edges black, canonical-completion edges red, optional highlighted path in
blue, points on top.  Optionally draws the six cone boundary rays at one
vertex.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence
from xml.etree import ElementTree as ET

from .builder import EdgeSelection
from .delaunay import Triangulation

_SVG_NS = "http://www.w3.org/2000/svg"

DT_STYLE = {"stroke": "#cccccc", "stroke-width": "1"}
EA_STYLE = {"stroke": "#000000", "stroke-width": "2"}
ECAN_STYLE = {"stroke": "#d62728", "stroke-width": "2"}
PATH_STYLE = {"stroke": "#1f77b4", "stroke-width": "4", "stroke-opacity": "0.6"}


def render_svg(
    T: Triangulation,
    sel: Optional[EdgeSelection] = None,
    path: Optional[Sequence[int]] = None,
    *,
    cone_vertex: Optional[int] = None,
    size: int = 800,
    margin: int = 30,
) -> str:
    xs, ys = T.points.xs.tolist(), T.points.ys.tolist()
    n = len(xs)
    if n:
        minx, maxx = min(xs), max(xs)
        miny, maxy = min(ys), max(ys)
    else:
        minx = maxx = miny = maxy = 0.0
    span = max(maxx - minx, maxy - miny, 1e-9)
    scale = (size - 2 * margin) / span

    def sx(x: float) -> float:
        return margin + (x - minx) * scale

    def sy(y: float) -> float:
        # SVG y grows downward
        return size - margin - (y - miny) * scale

    root = ET.Element(
        "svg",
        {
            "xmlns": _SVG_NS,
            "version": "1.1",
            "width": str(size),
            "height": str(size),
            "viewBox": f"0 0 {size} {size}",
        },
    )

    def line(group, u, v, style):
        ET.SubElement(
            group,
            "line",
            {
                "x1": f"{sx(xs[u]):.2f}",
                "y1": f"{sy(ys[u]):.2f}",
                "x2": f"{sx(xs[v]):.2f}",
                "y2": f"{sy(ys[v]):.2f}",
                **style,
            },
        )

    g_dt = ET.SubElement(root, "g", {"id": "triangulation"})
    for u, v in sorted(T.edges):
        line(g_dt, u, v, DT_STYLE)

    if cone_vertex is not None:
        g_cones = ET.SubElement(root, "g", {"id": "cones"})
        cx, cy = xs[cone_vertex], ys[cone_vertex]
        ray = span * 0.5
        for k in range(6):
            # boundary rays at 90 - 60k degrees, i.e. starting straight up
            ang = math.pi / 2 - k * math.pi / 3
            ET.SubElement(
                g_cones,
                "line",
                {
                    "x1": f"{sx(cx):.2f}",
                    "y1": f"{sy(cy):.2f}",
                    "x2": f"{sx(cx + ray * math.cos(ang)):.2f}",
                    "y2": f"{sy(cy + ray * math.sin(ang)):.2f}",
                    "stroke": "#2ca02c",
                    "stroke-width": "1",
                    "stroke-dasharray": "6 4",
                },
            )

    if sel is not None:
        g_a = ET.SubElement(root, "g", {"id": "incident"})
        for u, v in sorted(sel.e_a):
            line(g_a, u, v, EA_STYLE)
        g_c = ET.SubElement(root, "g", {"id": "canonical"})
        for u, v in sorted(sel.e_can - sel.e_a):
            line(g_c, u, v, ECAN_STYLE)

    if path:
        g_p = ET.SubElement(root, "g", {"id": "path"})
        for u, v in zip(path, path[1:]):
            line(g_p, u, v, PATH_STYLE)

    g_pts = ET.SubElement(root, "g", {"id": "points"})
    for i in range(n):
        ET.SubElement(
            g_pts,
            "circle",
            {
                "cx": f"{sx(xs[i]):.2f}",
                "cy": f"{sy(ys[i]):.2f}",
                "r": "3",
                "fill": "#333333",
            },
        )

    return ET.tostring(root, encoding="unicode")
