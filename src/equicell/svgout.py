"""Deterministic SVG rendering of a power diagram."""
from __future__ import annotations

from .powerdiagram import PowerDiagram

PALETTE = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
           "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac")
WIDTH = 640.0  # canvas width; the height follows the drawing's aspect ratio


def _fmt(v: float) -> str:
    s = "%.3f" % v
    return "0.000" if s == "-0.000" else s


def render_power_diagram_svg(diagram: PowerDiagram) -> str:
    """Fixed-format SVG text; identical diagrams give identical bytes.  The
    canvas spans the polygon and every site, with a 4% margin."""
    shown = diagram.polygon.vertices + diagram.sites.points
    x0, y0 = min(p[0] for p in shown), min(p[1] for p in shown)
    x1, y1 = max(p[0] for p in shown), max(p[1] for p in shown)
    pad = 0.04 * max(x1 - x0, y1 - y0)
    sx = WIDTH / (x1 - x0 + 2.0 * pad)
    height = (y1 - y0 + 2.0 * pad) * sx

    def tx(p):
        return ((p[0] - x0 + pad) * sx, height - (p[1] - y0 + pad) * sx)

    def pts_attr(vertices):
        return " ".join("%s,%s" % (_fmt(px), _fmt(py))
                        for px, py in (tx(v) for v in vertices))

    lines = []
    lines.append('<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
                 'viewBox="0 0 %s %s">' % (_fmt(WIDTH), _fmt(height),
                                           _fmt(WIDTH), _fmt(height)))
    lines.append('<rect x="0" y="0" width="%s" height="%s" fill="#ffffff"/>'
                 % (_fmt(WIDTH), _fmt(height)))
    for i, cell in enumerate(diagram.cells):
        if cell is None:
            continue
        lines.append('<polygon points="%s" fill="%s" fill-opacity="0.65" '
                     'stroke="#2f2f2f" stroke-width="1"/>'
                     % (pts_attr(cell), PALETTE[i % len(PALETTE)]))
    lines.append('<polygon points="%s" fill="none" stroke="#000000" '
                 'stroke-width="2"/>' % pts_attr(diagram.polygon.vertices))
    for px, py in diagram.sites.points:
        qx, qy = tx((px, py))
        lines.append('<circle cx="%s" cy="%s" r="3.5" fill="#111111"/>'
                     % (_fmt(qx), _fmt(qy)))
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
