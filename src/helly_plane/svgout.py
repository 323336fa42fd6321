"""Minimal SVG rendering of a single instance: ball, vectors, and their sum."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import BadInput
from .geometry import Family
from .norms import UnitBall
from .vectors import Vec2, vsum


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def instance_svg(ball: Optional[UnitBall], vectors: Sequence[Vec2]) -> str:
    """An SVG drawing of the unit ball (or a convex body), the vectors as
    arrows from the origin, and their sum as a heavier arrow."""
    size = 480  # width and height in pixels
    # a coordinate past float range is a `BadInput`, as `Family.floats` rounds it
    pts = [Vec2(x, y) for x, y in Family(vectors).floats()]
    shape = ball.vertices.floats() if ball is not None and ball.is_polygonal else []
    total = vsum(pts) if pts else None
    values = [c for v in pts + ([total] if total else []) for c in (v.x, v.y)]
    values += [c for x, y in shape for c in (x, y)]
    if not all(map(math.isfinite, values)):
        raise BadInput("a point or sum past float range cannot be drawn")
    # the view spans 1.15 times the farthest coordinate, halved so that it stays
    # finite near the float maximum; halving is exact, so the scale is unchanged
    half_reach = max([1.0] + [abs(c) for c in values]) / 2 * 1.15
    scale = size / 4 / half_reach

    def sx(x: float) -> float:
        return size / 2 + x * scale

    def sy(y: float) -> float:
        return size / 2 - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{size/2}" x2="{size}" y2="{size/2}" stroke="#ccc"/>',
        f'<line x1="{size/2}" y1="0" x2="{size/2}" y2="{size}" stroke="#ccc"/>',
    ]
    if shape:
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in shape)
        parts.append(
            f'<polygon points="{coords}" fill="#e8f0fe" stroke="#4a6fa5" stroke-width="1.5"/>'
        )
    elif ball is not None:
        parts.append(
            f'<circle cx="{size/2}" cy="{size/2}" r="{_fmt(scale)}" '
            'fill="#e8f0fe" stroke="#4a6fa5" stroke-width="1.5"/>'
        )
    for v in pts:
        parts.append(
            f'<line x1="{size/2}" y1="{size/2}" x2="{_fmt(sx(v.x))}" y2="{_fmt(sy(v.y))}" '
            'stroke="#2a7a2a" stroke-width="1.5"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(sx(v.x))}" cy="{_fmt(sy(v.y))}" r="3" fill="#2a7a2a"/>'
        )
    if total is not None:
        parts.append(
            f'<line x1="{size/2}" y1="{size/2}" x2="{_fmt(sx(total.x))}" y2="{_fmt(sy(total.y))}" '
            'stroke="#c0392b" stroke-width="2.5"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(sx(total.x))}" cy="{_fmt(sy(total.y))}" r="4" fill="#c0392b"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
