"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: edge functionals are
solved by elimination on `Fraction`s instead of read from a compiled
ball, the gauge oracle intersects the ray through a point with each
boundary edge segment instead of evaluating edge functionals, and hull
membership is decided by brute force over point pairs and triples instead
of hull construction.
"""

from fractions import Fraction
from itertools import combinations

from helly_plane.geometry import orientation
from helly_plane.vectors import ORIGIN, Vec2


def ray_gauge(ball, z: Vec2) -> Fraction:
    """Gauge via ray-boundary intersection: |z| / |boundary point| exactly."""
    if z.is_zero():
        return Fraction(0)
    verts = ball.vertices
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        det = z.cross(p - q)
        if det == 0:
            continue
        s = Fraction(p.cross(p - q)) / Fraction(det)
        t = Fraction(z.cross(p)) / Fraction(det)
        if s > 0 and 0 <= t <= 1:
            # boundary point is s*z, so gauge(z) = 1/s
            return 1 / s
    raise AssertionError("ray missed the boundary")


def edge_functional(a: Vec2, b: Vec2) -> Vec2:
    """The (p, q) with p*x + q*y == 1 at both a and b, by Gaussian elimination."""
    (ax, ay), (bx, by) = [(Fraction(v.x), Fraction(v.y)) for v in (a, b)]
    if ax == 0:  # pivot on the row of b, whose x cannot be 0 as well
        (ax, ay), (bx, by) = (bx, by), (ax, ay)
    # subtract bx/ax times row a from row b: (by - ay*bx/ax) q = 1 - bx/ax
    q = (1 - bx / ax) / (by - ay * bx / ax)
    return Vec2((1 - ay * q) / ax, q)


def segment_contains(a: Vec2, b: Vec2, p: Vec2) -> bool:
    d = b - a
    if d.cross(p - a) != 0:
        return False
    t = d.dot(p - a)
    return 0 <= t <= d.dot(d)


def triangle_contains(a: Vec2, b: Vec2, c: Vec2, p: Vec2) -> bool:
    o = orientation(a, b, c)
    if o == 0:
        pts = [a, b, c]
        return any(
            segment_contains(u, v, p) for u, v in combinations(pts, 2)
        ) or p == a
    if o < 0:
        b, c = c, b
    return (
        orientation(a, b, p) >= 0
        and orientation(b, c, p) >= 0
        and orientation(c, a, p) >= 0
    )


def brute_origin_strictly_inside(points) -> bool:
    """Whether the origin is strictly inside conv(points), with no hull built.

    Every line through two input points that has all of them on one closed
    side must have the origin strictly on that side, and the points must not
    all lie on one line.
    """
    pts = list(points)
    supported = False
    for a, b in combinations(pts, 2):
        if a == b:
            continue
        sides = {_sign(orientation(a, b, p)) for p in pts}
        if {1, -1} <= sides:
            continue  # points on both sides: not a supporting line
        # sides - {0} is empty exactly when every point is on the line
        if _sign(orientation(a, b, ORIGIN)) not in sides - {0}:
            return False
        supported = True
    return supported


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def brute_extreme_points(points) -> set:
    """Extreme points of a finite set: those not in the hull of the rest."""
    pts = list({(p.x, p.y) for p in points})
    out = set()
    for coords in pts:
        p = Vec2(*coords)
        rest = [Vec2(*q) for q in pts if q != coords]
        inside = False
        if len(rest) >= 2:
            inside = any(segment_contains(a, b, p) for a, b in combinations(rest, 2))
        if not inside and len(rest) >= 3:
            inside = any(
                triangle_contains(a, b, c, p) for a, b, c in combinations(rest, 3)
            )
        if not inside:
            out.add(coords)
    return out
