"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: edge functionals are
solved by elimination on `Fraction`s instead of read from a compiled
ball, the gauge oracle intersects the ray through a point with each
boundary edge segment instead of evaluating edge functionals, and hull
membership is decided by brute force over point pairs and triples instead
of hull construction.

The reference generators at the end are the `Fraction`-arithmetic
generators that the lattice generators replaced; the generators must
reproduce them value for value and type for type.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from helly_plane.errors import NotConvexBody, NotSymmetric
from helly_plane.geometry import convex_hull, lattice, orientation
from helly_plane.norms import POLYGONAL, ConvexBody, UnitBall, _polar_less, gauge
from helly_plane.scalars import exactify, le
from helly_plane.symmetry import is_centrally_symmetric
from helly_plane.vectors import ORIGIN, Vec2, vsum


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


# Reference generators: the `Fraction`-arithmetic generators (and the
# polygon compiler) as they were before instances were drawn on the integer
# lattice, kept verbatim apart from their names and the zero-sum draw budget,
# which is a module constant here so a test can make the fallback reachable.

_GRID = 1000
_HALF_VERTICES = 6
ZERO_SUM_DRAWS = 10_000


def ref_compile_polygon(points, cls):
    pts = list(points)
    if not pts:
        raise NotConvexBody("empty vertex list")
    hull = convex_hull(pts)
    if len(hull) < 3:
        raise NotConvexBody("hull is degenerate (a point or a segment)")
    grid = lattice(hull)
    coords, scale = grid if grid else ([(v.x, v.y) for v in hull], 1)
    start = 0
    if cls is UnitBall:
        if set(coords) != {(-x, -y) for x, y in coords}:
            raise NotSymmetric("vertex set is not invariant under negation")
        for i in range(1, len(coords)):
            if _polar_less(coords[i], coords[start]):
                start = i
        coords = coords[start:] + coords[:start]
    rows = []
    for (ax, ay), (bx, by) in zip(coords, coords[1:] + coords[:1]):
        det = ax * by - ay * bx
        if not det > 0:
            raise NotConvexBody("origin is not strictly inside")
        rows.append((scale * (by - ay), scale * (ax - bx), det))
    if grid:
        den = math.lcm(*[det for _, _, det in rows])
        normals = tuple([(p * (den // det), q * (den // det)) for p, q, det in rows])
        float_normals = [(p / den, q / den) for p, q in normals]
    else:
        normals, den = None, 1
        float_normals = [(p / det, q / det) for p, q, det in rows]
    return cls(
        POLYGONAL,
        tuple([Vec2(exactify(v.x), exactify(v.y)) for v in hull[start:] + hull[:start]]),
        normals,
        den,
        tuple(float_normals),
    )


def _fraction(rng, lo, hi):
    return Fraction(rng.randint(lo * _GRID, hi * _GRID), _GRID)


def _ref_symmetric_polygon(seed, build):
    rng = random.Random(seed)
    while True:
        points = [Vec2(_fraction(rng, -1, 1), _fraction(rng, -1, 1)) for _ in range(_HALF_VERTICES)]
        try:
            return build(points + [-p for p in points])
        except NotConvexBody:
            continue  # collinear draw: resample


def ref_gen_random_ball(seed):
    return _ref_symmetric_polygon(seed, lambda pts: ref_compile_polygon(pts, UnitBall))


def ref_gen_unit_vectors(ball, n, seed, halfplane=None):
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        if ball.is_polygonal:
            m = len(ball.vertices)
            i = rng.randrange(m)
            a, b = ball.vertices[i], ball.vertices[(i + 1) % m]
            t = Fraction(rng.randrange(_GRID), _GRID)
            v = a + (b - a).scale(t)
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            v = Vec2(math.cos(phi), math.sin(phi))
        if halfplane is not None and halfplane.dot(v) < 0:
            v = -v
        out.append(v)
    return tuple(out)


def ref_gen_zero_sum_six(ball, seed):
    rng = random.Random(seed)
    for _ in range(ZERO_SUM_DRAWS):
        five = [_ref_point_in_ball(ball, rng) for _ in range(5)]
        closing = -vsum(five)
        if le(gauge(ball, closing), 1, 1e-12):
            return tuple(five) + (closing,)
    a, b, c = (_ref_point_in_ball(ball, rng) for _ in range(3))
    return (a, b, c, -a, -b, -c)


def _ref_point_in_ball(ball, rng):
    if not ball.is_polygonal:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(rng.uniform(0.0, 1.0))
        return Vec2(r * math.cos(phi), r * math.sin(phi))
    m = len(ball.vertices)
    picks = [ball.vertices[rng.randrange(m)] for _ in range(3)]
    weights = [rng.randint(0, _GRID) for _ in range(3)]
    total = sum(weights) or 1
    out = Vec2(0, 0)
    for p, w in zip(picks, weights):
        out = out + p.scale(Fraction(w, total))
    return out


def ref_gen_direction(rng):
    while True:
        d = Vec2(_fraction(rng, -1, 1), _fraction(rng, -1, 1))
        if not d.is_zero():
            return d


def ref_gen_claim1_tuple(seed):
    rng = random.Random(seed)
    while True:
        xs = [_fraction(rng, -1, 1) for _ in range(5)]
        closing = -sum(xs)
        if abs(closing) <= 1:
            return xs + [closing]


def ref_gen_collinear_family(ball, seed):
    rng = random.Random(seed)
    n = rng.choice([5, 7, 9])
    direction = ref_gen_unit_vectors(ball, 1, rng.getrandbits(32))[0]
    while True:
        xs = [Fraction(rng.randint(400, _GRID), _GRID) for _ in range(n)]
        if rng.random() < 0.3:
            xs[rng.randrange(n)] = Fraction(-rng.randint(0, 150), _GRID)
        ok = all(
            abs(xs[i] + xs[j] + xs[k]) > 1
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        )
        if ok:
            return tuple(direction.scale(x) for x in xs), xs


def ref_gen_symmetric_body(seed):
    return _ref_symmetric_polygon(seed, lambda pts: ref_compile_polygon(pts, ConvexBody))


def ref_gen_asymmetric_body(seed):
    rng = random.Random(seed)
    while True:
        ball = ref_gen_random_ball(rng.getrandbits(32))
        verts = list(ball.vertices)
        i = rng.randrange(len(verts))
        stretch = 1 + Fraction(rng.randint(1, 4), 8)
        verts[i] = verts[i].scale(stretch)
        body = ref_compile_polygon(verts, ConvexBody)
        if not is_centrally_symmetric(body):
            return body
