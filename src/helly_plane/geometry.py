"""Exact convex-position primitives: orientation, lattice points, hulls and
closed triangle membership.

Everything here works on `Vec2` with rational coordinates and is exact;
predicates that also have to serve float data take an optional tolerance
which only kicks in for float operands.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .scalars import Scalar, is_float, sgn
from .vectors import Vec2


def orientation(a: Vec2, b: Vec2, c: Vec2) -> Scalar:
    """Twice the signed area of triangle abc; positive means counterclockwise."""
    return (b - a).cross(c - a)


def lattice(points: Sequence[Vec2]) -> Optional[tuple[list[tuple[int, int]], int]]:
    """Rational points as integer pairs over one common denominator.

    Returns `(pairs, den)` with `point == pair / den` coordinatewise, or
    None when any coordinate is a float.
    """
    coords = [c for p in points for c in (p.x, p.y)]
    if is_float(*coords):
        return None
    # unpack a list, not a generator: a tuple built from a generator is
    # resized, and such tuples pile up in CPython's free lists (peak memory)
    den = math.lcm(*[c.denominator for c in coords])
    scaled = iter([c.numerator * (den // c.denominator) for c in coords])
    return list(zip(scaled, scaled)), den


def convex_hull(points: Sequence[Vec2]) -> list[Vec2]:
    """Counterclockwise extreme points of the input, collinear points dropped.

    Degenerate inputs come back as-is: a single point, or the two endpoints
    of the spanned segment. The returned objects are input points (the
    first of any duplicates). Rational input is decided on the integer
    lattice of `lattice`, float input on its own coordinates.
    """
    if not points:
        raise ValueError("convex_hull requires a non-empty point list")
    grid = lattice(points)
    keys = grid[0] if grid else [(p.x, p.y) for p in points]
    first: dict = {}
    for k, p in zip(keys, points):
        first.setdefault(k, p)
    return [first[k] for k in monotone_chain(sorted(first))]


def monotone_chain(pts: list[tuple]) -> list[tuple]:
    """Monotone chain over sorted distinct coordinate pairs.

    Same contract as `convex_hull`, on plain (x, y) tuples.
    """
    if len(pts) <= 2:
        return pts

    def build(seq):
        chain: list[tuple] = []
        for cx, cy in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0:
                    break
                chain.pop()
            chain.append((cx, cy))
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return [pts[0], pts[-1]]
    return hull


def _on_segment(p: Vec2, a: Vec2, b: Vec2, tol: float = 0.0) -> bool:
    d = b - a
    if sgn(d.cross(p - a), tol) != 0:
        return False
    t_num = d.dot(p - a)
    return sgn(t_num, tol) >= 0 and sgn(d.dot(d) - t_num, tol) >= 0


def point_in_triangle(p: Vec2, a: Vec2, b: Vec2, c: Vec2, tol: float = 0.0) -> bool:
    """Closed membership of p in conv{a, b, c}, degenerate triangles included."""
    o = sgn(orientation(a, b, c), tol)
    if o == 0:
        # conv{a, b, c} is a segment or a single point
        corners = (a, b, c)
        d = None
        for u in (b, c):
            if not (u - a).is_zero():
                d = u - a
                break
        if d is None:
            return sgn(p.x - a.x, tol) == 0 and sgn(p.y - a.y, tol) == 0
        lo = min(corners, key=lambda w: d.dot(w))
        hi = max(corners, key=lambda w: d.dot(w))
        return _on_segment(p, lo, hi, tol)
    if o < 0:
        b, c = c, b
    return (
        sgn(orientation(a, b, p), tol) >= 0
        and sgn(orientation(b, c, p), tol) >= 0
        and sgn(orientation(c, a, p), tol) >= 0
    )
