"""Side-by-side SVG rendering of a paired triangulation.

Side A is drawn on the left and side B on the right with shared label
annotations.  Each triangle becomes exactly one ``<polygon>`` element
per side; points are circles and labels text, so element counts stay
predictable for tooling.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .geom import Point
from .triangles import Tri, tri

_FILLS = ("#9ecae1", "#a1d99b", "#fdae6b", "#bcbddc", "#fc9272",
          "#c7e9c0", "#fdd0a2", "#d9d9d9")

MARGIN = 30.0
POINT_RADIUS = 3.0
# Width of each panel's longer extent, in SVG units.
TARGET_WIDTH = 360.0


def _bounds(pts: Sequence[Point]) -> tuple[int, int, int, int]:
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


class _Panel:
    """One coordinate frame; flips y so the drawing matches math axes."""

    def __init__(self, pts: Sequence[Point], offset_x: float, scale: float):
        x0, y0, _, y1 = _bounds(pts)
        self.scale = scale
        self.dx = offset_x - x0 * scale
        self.y_top = y1
        self.y0 = y0

    def map(self, p: Point) -> tuple[float, float]:
        return (p[0] * self.scale + self.dx,
                (self.y_top - p[1]) * self.scale + MARGIN)

    def height(self) -> float:
        return (self.y_top - self.y0) * self.scale


def render_pair(points_a: Sequence[Point], points_b: Sequence[Point],
                triangles: Sequence[Tri],
                boundary: Optional[Sequence[int]] = None) -> str:
    """Render both realizations of a triangle set as one SVG document,
    with the label cycle ``boundary``, when given, outlined on both."""
    tris = sorted(tri(*t) for t in triangles)

    def panel_scale(pts: Sequence[Point]) -> float:
        x0, y0, x1, y1 = _bounds(pts)
        extent = max(x1 - x0, y1 - y0, 1)
        return TARGET_WIDTH / extent

    scale_a = panel_scale(points_a)
    scale_b = panel_scale(points_b)
    xa0, _, xa1, _ = _bounds(points_a)
    width_a = (xa1 - xa0) * scale_a
    panel_a = _Panel(points_a, MARGIN, scale_a)
    panel_b = _Panel(points_b, MARGIN * 3 + width_a, scale_b)

    xb0, _, xb1, _ = _bounds(points_b)
    total_w = MARGIN * 4 + width_a + (xb1 - xb0) * scale_b
    total_h = MARGIN * 2 + max(panel_a.height(), panel_b.height()) + 20

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w:.0f}" height="{total_h:.0f}" '
        f'viewBox="0 0 {total_w:.0f} {total_h:.0f}">',
    ]
    for panel, pts, caption in ((panel_a, points_a, "A"), (panel_b, points_b, "B")):
        for idx, t in enumerate(tris):
            coords = " ".join(
                "%.2f,%.2f" % panel.map(pts[v]) for v in t)
            fill = _FILLS[idx % len(_FILLS)]
            parts.append(
                f'<polygon points="{coords}" fill="{fill}" fill-opacity="0.55" '
                f'stroke="#333333" stroke-width="1"/>')
        if boundary:
            coords = " ".join("%.2f,%.2f" % panel.map(pts[v]) for v in boundary)
            coords += " %.2f,%.2f" % panel.map(pts[boundary[0]])
            parts.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="#000000" stroke-width="1.5"/>')
        for label, p in enumerate(pts):
            cx, cy = panel.map(p)
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{POINT_RADIUS}" fill="#000000"/>')
            parts.append(
                f'<text x="{cx + 5:.2f}" y="{cy - 5:.2f}" font-size="11" '
                f'font-family="monospace">{label + 1}</text>')
        cx, _ = panel.map(pts[0])
        parts.append(
            f'<text x="{cx:.2f}" y="{total_h - 6:.0f}" font-size="14" '
            f'font-family="monospace" font-weight="bold">{caption}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
