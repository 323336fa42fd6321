"""Exact convex-position primitives: hulls, origin classification,
strict separation, and Caratheodory triples.

Everything here works on `Vec2` with rational coordinates and is exact;
predicates that also have to serve float data take an optional tolerance
which only kicks in for float operands.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional, Sequence

from .errors import NotConvexBody, TheoremFalsified
from .scalars import Scalar, exact_div, is_float, sgn
from .vectors import ORIGIN, Vec2


class OriginPosition(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


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
    return [first[k] for k in _monotone_chain(sorted(first))]


def _monotone_chain(pts: list[tuple]) -> list[tuple]:
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


def point_position(points: Sequence[Vec2], z: Vec2, tol: float = 0.0) -> OriginPosition:
    """Classify z against conv(points): interior, boundary, or exterior."""
    hull = convex_hull(points)
    if len(hull) == 1:
        onpt = sgn(hull[0].x - z.x, tol) == 0 and sgn(hull[0].y - z.y, tol) == 0
        return OriginPosition.BOUNDARY if onpt else OriginPosition.EXTERIOR
    if len(hull) == 2:
        if _on_segment(z, hull[0], hull[1], tol):
            return OriginPosition.BOUNDARY
        return OriginPosition.EXTERIOR
    on_edge = False
    for i, a in enumerate(hull):
        b = hull[(i + 1) % len(hull)]
        s = sgn(orientation(a, b, z), tol)
        if s < 0:
            return OriginPosition.EXTERIOR
        if s == 0:
            on_edge = True
    return OriginPosition.BOUNDARY if on_edge else OriginPosition.INTERIOR


def origin_in_hull(points: Sequence[Vec2], tol: float = 0.0) -> OriginPosition:
    """Exact classification of the origin against conv(points)."""
    return point_position(points, ORIGIN, tol)


def strict_separating_direction(points: Sequence[Vec2]) -> Optional[Vec2]:
    """A direction u with u.p > 0 for every input point, when one exists.

    Returns None unless the origin is strictly outside conv(points). The
    returned u is the nearest point of the hull to the origin, which makes
    the strict inequality automatic; it is still re-verified before return.
    """
    pts = list(points)
    if origin_in_hull(pts) is not OriginPosition.EXTERIOR:
        return None
    hull = convex_hull(pts)
    if len(hull) == 1:
        best = hull[0]
    else:
        if len(hull) == 2:
            segments = [(hull[0], hull[1])]
        else:
            segments = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
        best = None
        best_d2: Scalar | None = None
        for a, b in segments:
            d = b - a
            t = exact_div(-a.dot(d), d.dot(d))
            if t < 0:
                t = 0
            elif t > 1:
                t = 1
            q = a + d.scale(t)
            d2 = q.dot(q)
            if best_d2 is None or d2 < best_d2:
                best, best_d2 = q, d2
    for p in pts:
        if not best.dot(p) > 0:  # pragma: no cover - nearest-point argument forbids this
            raise TheoremFalsified("separation postcondition violated")
    return best


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


def caratheodory_triple(points: Sequence[Vec2]) -> Optional[tuple[int, int, int]]:
    """Indices i < j < k with the origin in conv of those three points.

    Exists exactly when the origin is not strictly outside conv(points);
    found by fanning the hull from one vertex, then verified before return.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("caratheodory_triple requires at least 3 points")
    if origin_in_hull(pts) is OriginPosition.EXTERIOR:
        return None
    first_index: dict[tuple, int] = {}
    for i, p in enumerate(pts):
        first_index.setdefault((p.x, p.y), i)
    hull = convex_hull(pts)

    def verified(ia: int, ib: int, ic: int) -> tuple[int, int, int]:
        trip = tuple(sorted((ia, ib, ic)))
        if not point_in_triangle(ORIGIN, pts[trip[0]], pts[trip[1]], pts[trip[2]]):
            raise TheoremFalsified(f"Caratheodory triple {trip} misses the origin")
        return trip

    if len(hull) == 1:
        return verified(0, 1, 2)
    if len(hull) == 2:
        ia = first_index[(hull[0].x, hull[0].y)]
        ib = first_index[(hull[1].x, hull[1].y)]
        ic = min(i for i in range(len(pts)) if i not in (ia, ib))
        return verified(ia, ib, ic)
    anchor = hull[0]
    for i in range(1, len(hull) - 1):
        if point_in_triangle(ORIGIN, anchor, hull[i], hull[i + 1]):
            return verified(
                first_index[(anchor.x, anchor.y)],
                first_index[(hull[i].x, hull[i].y)],
                first_index[(hull[i + 1].x, hull[i + 1].y)],
            )
    raise TheoremFalsified("origin inside hull but no fan triangle contains it")


def ray_boundary(vertices: Sequence[Vec2], direction: Vec2) -> Vec2:
    """Where the ray from the origin along `direction` exits a convex polygon.

    The polygon is given by its counterclockwise vertices and must contain
    the origin strictly inside.
    """
    if direction.is_zero():
        raise ValueError("ray direction must be nonzero")
    n = len(vertices)
    for i in range(n):
        p = vertices[i]
        q = vertices[(i + 1) % n]
        det = direction.cross(p - q)
        if det == 0:
            continue  # edge parallel to the ray; adjacent edges catch the exit
        s = exact_div(p.cross(p - q), det)
        t = exact_div(direction.cross(p), det)
        if s > 0 and 0 <= t <= 1:
            return direction.scale(s)
    raise NotConvexBody("ray did not exit the polygon; origin not inside?")
