"""Deterministic SVG rendering of the phase-hull picture.

One figure per phase vector: the unit circle, the points e^{-i omega_k}
with labels, the hull polygon, its edge midpoints, the origin marker, and
(when the origin lies outside) the segment realizing the minimum distance.
Output bytes depend only on the input vector and the package version; all
coordinates are printed with a fixed six-decimal format.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__, geometry
from .numerics import VERDICT_TOL, require_finite

_W = 2.9
_VIEW = f"-{_W / 2} -{_W / 2} {_W} {_W}"


def _f(v: float) -> str:
    v = float(v)
    if abs(v) < 5e-7:
        v = 0.0
    return f"{v:.6f}"


# SVG's y axis points down: every y is printed flipped, so the math
# convention shows upright
def _circle(x, y, r, fill, extra="") -> str:
    return (
        f'<circle cx="{_f(x)}" cy="{_f(-y)}" r="{_f(r)}" fill="{fill}"'
        f"{extra} />"
    )


def _text(x, y, s, size=0.11, fill="#222222") -> str:
    return (
        f'<text x="{_f(x)}" y="{_f(-y)}" font-size="{_f(size)}" '
        f'font-family="monospace" fill="{fill}" '
        f'text-anchor="middle">{s}</text>'
    )


def render_hull_svg(omega) -> str:
    """SVG document (text) for the hull picture of a 4-phase vector.

    `omega` may hold any finite angles: the hull wraps the points -omega
    itself, and wrapping is exact, so none is wrapped first."""
    hull = geometry._hull_of_omega(require_finite(omega, "omega", 4))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_VIEW}" '
        'width="480" height="480">',
        f"<!-- gatediscrim {__version__} -->",
        f'<rect x="-{_W / 2}" y="-{_W / 2}" width="{_W}" height="{_W}" '
        'fill="#ffffff" />',
        # light axes and the unit circle
        f'<line x1="-1.2" y1="0" x2="1.2" y2="0" stroke="#dddddd" '
        'stroke-width="0.008" />',
        f'<line x1="0" y1="-1.2" x2="0" y2="1.2" stroke="#dddddd" '
        'stroke-width="0.008" />',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#999999" '
        'stroke-width="0.012" />',
    ]
    # points whose printed coordinates agree are one mark with one label:
    # a rule of the figure's resolution, not of the verdict's
    marks: dict[tuple[str, str], tuple[np.ndarray, list[int]]] = {}
    for i in hull.order:
        p = np.array([math.cos(hull.phases[i]), math.sin(hull.phases[i])])
        marks.setdefault((_f(p[0]), _f(p[1])), (p, []))[1].append(i)
    pts = [p for p, _ in marks.values()]
    if len(pts) >= 2:
        poly = " ".join(f"{_f(x)},{_f(-y)}" for x, y in pts)
        lines.append(
            f'<polygon points="{poly}" fill="#1f6feb" fill-opacity="0.10" '
            'stroke="#1f6feb" stroke-width="0.014" />'
        )
        for i, p in enumerate(pts):
            mid = 0.5 * (p + pts[(i + 1) % len(pts)])  # edge i's midpoint
            lines.append(_circle(mid[0], mid[1], 0.018, "#e3742f"))
            off = 0.14 if np.hypot(*mid) < VERDICT_TOL else 0.0
            lines.append(
                _text(
                    mid[0] + off,
                    mid[1] + 0.16,
                    f"M{i + 1}",
                    size=0.09,
                    fill="#e3742f",
                )
            )
    for (x, y), indices in marks.values():
        lines.append(_circle(x, y, 0.025, "#111111"))
        label = ",".join(f"P{k + 1}" for k in sorted(indices))
        lines.append(_text(x * 1.17, y * 1.17, label))
    if not hull.origin_inside:
        nx, ny = hull.nearest_point
        lines.append(
            f'<line x1="0" y1="0" x2="{_f(nx)}" y2="{_f(-ny)}" '
            'stroke="#c93c3c" stroke-width="0.012" '
            'stroke-dasharray="0.04,0.03" />'
        )
        lines.append(_circle(nx, ny, 0.02, "#c93c3c"))
    lines.append(_circle(0.0, 0.0, 0.02, "#111111"))
    lines.append(_text(0.07, 0.09, "O", size=0.1))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
