"""Static SVG figures: fiber curves and phase portraits.

Everything is written by hand into plain SVG markup; no plotting dependency.
"""

from __future__ import annotations

import math

import numpy as np

from .odeflow import integrate
from .polyalg import VectorField

_CYCLE_COLORS = {
    "attracting": "#d62728",
    "repelling": "#1f77b4",
    "semi_stable": "#9467bd",
}


class _Canvas:
    """World-to-pixel mapping with a flipped y axis and an element buffer."""

    def __init__(self, x0, x1, y0, y1, size=640, pad=24):
        self.size = size
        span = max(x1 - x0, y1 - y0)
        if span <= 0:
            span = 1.0
        self.scale = (size - 2 * pad) / span
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        self.ox = size / 2 - cx * self.scale
        self.oy = size / 2 + cy * self.scale
        self.parts: list[str] = []

    def to_px(self, x, y):
        return self.ox + x * self.scale, self.oy - y * self.scale

    def polyline(self, pts, stroke, width=1.5, fill="none", opacity=None,
                 closed=False, dash=None):
        if len(pts) < 2:
            return
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in
                          (self.to_px(x, y) for x, y in pts))
        tag = "polygon" if closed else "polyline"
        extra = ""
        if opacity is not None:
            extra += f' fill-opacity="{opacity}"'
        if dash is not None:
            extra += f' stroke-dasharray="{dash}"'
        self.parts.append(
            f'<{tag} points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width}"{extra}/>'
        )

    def circle(self, x, y, r_world, stroke, width=1.0, fill="none", dash=None):
        px, py = self.to_px(x, y)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r_world * self.scale:.2f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{width}"{extra}/>'
        )

    def dot(self, x, y, color="#000000", r=3.0):
        px, py = self.to_px(x, y)
        self.parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r}" fill="{color}"/>')

    def text(self, x, y, s, size=12, color="#333333"):
        px, py = self.to_px(x, y)
        # escaped by hand: xml.sax.saxutils and html pull in modules that
        # cost the `analyze --svg` process 0.3 to 3 MB of peak RSS
        s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.parts.append(
            f'<text x="{px:.2f}" y="{py:.2f}" font-size="{size}" fill="{color}" '
            f'font-family="sans-serif">{s}</text>'
        )

    def to_string(self) -> str:
        body = "\n  ".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
            f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">\n'
            f'  <rect width="{self.size}" height="{self.size}" fill="#ffffff"/>\n'
            f"  {body}\n</svg>\n"
        )


def fiber_svg(fiber, center) -> str:
    """Fiber components inside their ball: closed loops filled, arcs dashed."""
    cx, cy = center
    d = fiber.delta
    cv = _Canvas(cx - 1.15 * d, cx + 1.15 * d, cy - 1.15 * d, cy + 1.15 * d)
    cv.circle(cx, cy, d, stroke="#999999", width=1.0, dash="6,4")
    for comp in fiber.components:
        pts = comp.vertices
        if comp.closed:
            cv.polyline(pts, stroke="#2ca02c", width=1.8, fill="#2ca02c",
                        opacity=0.12, closed=True)
        else:
            cv.polyline(pts, stroke="#e6a23c", width=1.6, dash="4,3")
    cv.dot(cx, cy)
    cv.text(cx - 1.1 * d, cy + 1.08 * d,
            f"eta={fiber.eta:.6g} delta={fiber.delta:.6g} grid={fiber.grid_resolution}")
    return cv.to_string()


def phase_portrait_svg(v: VectorField, cps=(), cycles=(), fibers=()) -> str:
    """Sampled trajectories in gray, detected cycles in color, equilibria as
    dots, optional fiber overlays."""
    x0, x1, y0, y1 = v.box.floats()
    cv = _Canvas(x0, x1, y0, y1)
    gx = np.linspace(x0, x1, 11)[1:-1]  # 9 x 9 seeds inside the box
    gy = np.linspace(y0, y1, 11)[1:-1]
    for sx in gx:
        for sy in gy:
            if any(math.hypot(sx - cp.x, sy - cp.y) < 1e-9 for cp in cps):
                continue
            traj = integrate(v, (sx, sy), 6.0, rtol=1e-6, atol=1e-9, max_steps=20_000)
            pts = traj.states
            if len(pts) >= 2:
                cv.polyline(pts[:: max(1, len(pts) // 400)], stroke="#c0c0c0",
                            width=0.8)
    for fiber, center in fibers:
        for comp in fiber.components:
            cv.polyline(comp.vertices, stroke="#2ca02c", width=1.2,
                        dash=None if comp.closed else "4,3",
                        closed=comp.closed, opacity=0.10,
                        fill="#2ca02c" if comp.closed else "none")
    for lc in cycles:
        color = _CYCLE_COLORS.get(lc.stability, "#d62728")
        cv.polyline(lc.points, stroke=color, width=2.2, closed=True)
    for cp in cps:
        cv.dot(cp.x, cp.y)
    cv.text(x0 + 0.02 * (x1 - x0), y1 - 0.03 * (y1 - y0), v.name)
    return cv.to_string()


def write_svg(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


__all__ = ["fiber_svg", "phase_portrait_svg", "write_svg"]
