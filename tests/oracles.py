"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: edge functionals are
solved by elimination on `Fraction`s instead of read from a compiled
ball, the gauge oracle intersects the ray through a point with each
boundary edge segment instead of evaluating edge functionals, and hull
membership is decided by brute force over point pairs and triples instead
of hull construction.

The reference generators are the `Fraction`-arithmetic generators that
the lattice generators replaced, and the reference verifiers at the end
are the `Vec2`/`Fraction` forms of T1's certificate, lemma-conv and Claim 1
that the lattice verifiers replaced; both must be reproduced value for
value and type for type. The float sums of T1's certificate and Claim 1
fold left to right from 0, as builtin `sum` did before CPython 3.12 made
it compensated, so those references mean the same on every interpreter.
`verify_helly_1d` is the line oracle of the three-sum theorems: it judges
signed lengths over [-1, 1] with no ball and no subset-sum kernel.
`ref_verify_helly` and `ref_corollary_check` are T2/T3 and COR as they
were when each call formed its `Fraction` total and that total's gauge,
and decided T2/T3's conclusion on the gauge.

`monotone_chain` is the library's former two-chain hull of sorted
distinct pairs, and `_polar_less` its former start-vertex order, both kept
verbatim: the library now builds one chain of a set closed under negation
and mirrors it, and finds the start where the cycle's polar angle wraps,
so `convex_hull` (`monotone_chain` on `Vec2`s, returning input points)
and `ref_compile_polygon` run these copies, not the code they check.
`convex_hull`, `exact_div`, `orientation` and `point_in_triangle` are
former library helpers that no library module needs; the tests that still
use them import them from here. `point_in_triangle` is the reference that
`geometry.origin_position` is checked against. `line_polygon_hits` (a line's
crossings with the boundary, edge by edge) and `boundary_neighbours` (a
collinearity-and-betweenness search) are the former segment geometry of
`symmetry`, the references for its chord rule and its edge neighbours.

`ref_make_generic` is the library's former general-position search, which
sampled one vector at a time against dicts of `Fraction` (or float) keys;
wherever it accepted each vector's first candidate, `make_generic` must
return the same family.

`float_vertex_ball` is the polygon given by the floats of a polygon's
vertices, which the library compiles as the dyadic rationals they denote.

`dyadic`, `exact_sum`, `rounded` and `band` are the exact reference for
float data on a polygon: a float is the `Fraction` it denotes, a subset's
sum is the exact sum of those, its gauge (the ray oracle's, `ray_gauge`)
is rounded once to a float, and "gauge vs 1 within tol" is decided on the
exact gauge against the band [1 - Fraction(tol), 1 + Fraction(tol)].
`RefSubsetSums` is the library's former `SubsetSums` on float data on a
polygon, the float walk: float sums left to right from 0, the largest
float edge value at each, with the correctly rounded edge functionals,
and that float g compared with 1 by the former float relations of
`scalars` (`FORMER_RELS`: g <= 1 + tol and so on, with 1 ± tol rounded),
which the library's relations (g − 1 against tol) replaced. On any other
data it is `SubsetSums`.

`VerifyReport` and `is_centrally_symmetric` are the library's former eager
report and vertex-set symmetry test, copied verbatim: the reference
verifiers construct the report, and the symmetry decision the compiler
now stores is checked against the test.

The trial payload builders at the end are the JSON documents the suites
digested before each instance wrote its canonical text directly:
`ref_family_to_json` and `ref_ball_to_json` (the former `Family.to_json`
and `ball_to_json` bodies), the `_on_ball`, claim1, symmetry and gallery
payloads, and `ref_digest`, which printed a payload with `json.dumps`.
`ref_config_to_json`, `ref_record_to_json`, `ref_report_to_json` and
`ref_report_json_text` are the former `SuiteConfig.to_json`,
`TrialRecord.to_json`, `SuiteReport.to_json` and
`SuiteReport.to_json_text`, verbatim apart from taking their object as an
argument: the report's document, printed with `json.dumps`, which
`SuiteReport.to_json_text` now writes directly.

`ref_verify_halfplane_witness` and `ref_verify_surrounding_witness` are
the library's former symmetry witness verifiers with their helpers. The
finders must return the first candidate these accept, except that the
former surrounding rule also took a sum on the boundary, which the
library now refuses.

`ref_euclidean_boundary_points`, `ref_euclidean_ball_points` and
`ref_gen_euclidean_halfplane_instance` are the library's former Euclidean
draws, verbatim: the Euclidean branches of `_boundary_points` and
`_ball_points`, and `gen_euclidean_halfplane_instance`, which drew each
angle and radius by `rng.uniform(0.0, b)`. The library writes that out
as `b * rng.random()`, and must give the same floats and leave the
generator in the same state.

`ref_ginzburg_reduce` is the library's former rotation reduction, which
carried every vector as an angle: `atan2` set up the frame and the angles,
every turn was an angle difference, the angles were clamped to [0, pi],
and each snapshot took cos and sin again. It is kept verbatim with its
snapshot and end-norm helpers, apart from returning the trace without the
former `final_sum`; `ginzburg_reduce` must pin the same signs at each step
and give the same norms to rounding.
"""

import functools
import hashlib
import json
import math
import operator
import random
from collections import UserList
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from helly_plane.algorithms import (
    _MAX_TRIES, RotationStep, RotationTrace, _check_generic, _grid_fraction,
)
from helly_plane.errors import (
    BadInput,
    BadK,
    EpsilonTooLarge,
    EvenCardinality,
    HalfplaneViolated,
    HypothesisFailed,
    NotConvexBody,
    NotOnBoundary,
    NotPolygonal,
    NotSymmetric,
    NotUnitVectors,
    PreconditionFailed,
    SamplingExhausted,
    TheoremFalsified,
    TooFew,
    ZeroDirection,
)
from helly_plane.generators import gen_unit_vectors, seeded_rng
from helly_plane.geometry import Family, origin_position
from helly_plane.norms import (
    EUCLIDEAN,
    POLYGONAL,
    ConvexBody,
    UnitBall,
    SubsetSums,
    edge_functionals,
    euclidean_ball,
    gauge,
    lattice_vertices,
    make_convex_body,
    make_polygonal_ball,
)
from helly_plane.scalars import (
    DEFAULT_TOL, Scalar, check_tol, eq, format_ratio, format_scalar, ge, gt, le, sgn,
)
from helly_plane.symmetry import ViolationWitness, WitnessKind
from helly_plane.theorems import KSum
from helly_plane.vectors import ORIGIN, Vec2, VectorMultiset, vsum


def same(a, b) -> bool:
    """Equal values of equal types, floats bit for bit, down through tuples and Vec2s.

    A `Family` stands for the tuple of its vectors, which is what the
    reference generators return."""
    if isinstance(a, Family):
        a = a.vectors
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, Vec2):
        return isinstance(b, Vec2) and same(a.x, b.x) and same(a.y, b.y)
    return type(a) is type(b) and repr(a) == repr(b)


def exact_div(a, b):
    """Division that stays rational on rational inputs (int/int included)."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a) / Fraction(b)


def monotone_chain(pts: list[tuple]) -> list[tuple]:
    """Counterclockwise extreme points of sorted distinct (x, y) pairs, from
    the least one, collinear points dropped; degenerate inputs come back as
    a single point or the two endpoints of the spanned segment."""
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


def _polar_less(a: tuple, b: tuple) -> bool:
    """Compare polar angles of (x, y) pairs in [0, 2*pi) without trigonometry."""
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha < hb
    return a[0] * b[1] - a[1] * b[0] > 0


def convex_hull(points):
    """Counterclockwise extreme points of the input, collinear points dropped.

    Degenerate inputs come back as-is: a single point, or the two endpoints
    of the spanned segment. The returned objects are input points (the
    first of any duplicates). Rational input is decided on the integer
    lattice of its `Family`, float input on its own coordinates.
    """
    if not points:
        raise BadInput("convex_hull requires a non-empty point list")
    fam = Family(points)
    keys = fam.pts if fam.scale is not None else [(p.x, p.y) for p in points]
    first: dict = {}
    for k, p in zip(keys, points):
        first.setdefault(k, p)
    return [first[k] for k in monotone_chain(sorted(first))]


def orientation(a: Vec2, b: Vec2, c: Vec2) -> Scalar:
    """Twice the signed area of triangle abc; positive means counterclockwise."""
    return (b - a).cross(c - a)


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


def line_polygon_hits(vertices: Sequence[Vec2], d: Vec2, level) -> list[Vec2]:
    """Both intersections of the line {cross(d, z) == level} with the boundary."""
    hits: list[Vec2] = []
    n = len(vertices)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        fp, fq = d.cross(p) - level, d.cross(q) - level
        sp, sq = sgn(fp), sgn(fq)
        if sp == 0:
            hits.append(p)
            continue
        if sq == 0 or sp == sq:
            continue
        t = fp / (fp - fq)  # `Fraction`s, or floats on a float body
        hits.append(p + (q - p).scale(t))
    uniq: list[Vec2] = []
    for h in hits:
        if not any((h - g).is_zero() for g in uniq):
            uniq.append(h)
    return uniq


def boundary_neighbours(body: ConvexBody, p: Vec2) -> list[Vec2]:
    """The boundary points adjacent to p along its edge(s), one per side."""
    verts = body.vertices
    n = len(verts)
    out = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if (p - a).is_zero():
            out.append(b)
            out.append(verts[(i - 1) % n])
            break
        if (b - a).cross(p - a) == 0 and (b - a).dot(p - a) > 0 and (a - b).dot(p - b) > 0:
            out.append(b)
            out.append(a)
            break
    return out


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


def all_ksums(vectors, k):
    """All k-element subset sums, subsets in lexicographic order: the
    reference the subset-sum kernel replaced, one `vsum` per subset."""
    vs = tuple(vectors)
    if not 0 <= k <= len(vs):
        raise BadInput(f"k={k} out of range for {len(vs)} vectors")
    return [
        KSum(subset, vsum(vs[i] for i in subset))
        for subset in combinations(range(len(vs)), k)
    ]


# Reference generators: the `Fraction`-arithmetic generators (and the
# polygon compiler) as they were before instances were drawn on the integer
# lattice, kept verbatim apart from their names and the zero-sum draw budget,
# which is a module constant here so a test can make the fallback reachable.

_GRID = 1000
_HALF_VERTICES = 6
ZERO_SUM_DRAWS = 10_000


def float_vertex_ball(polygon):
    """The polygon given by the floats of a polygon's vertices, a ball or a
    body as the polygon is: each float the dyadic rational it denotes."""
    build = make_polygonal_ball if type(polygon) is UnitBall else make_convex_body
    return build([Vec2(float(v.x), float(v.y)) for v in polygon.vertices])


def dyadic(v: Vec2) -> Vec2:
    """v with each coordinate the `Fraction` it denotes."""
    return Vec2(Fraction(v.x), Fraction(v.y))


def exact_sum(vectors, subset) -> Vec2:
    """The exact sum of the indexed vectors, each float the `Fraction` it denotes."""
    zero = Fraction(0)
    return Vec2(sum([Fraction(vectors[i].x) for i in subset], zero),
                sum([Fraction(vectors[i].y) for i in subset], zero))


def rounded(g: Fraction) -> float:
    """g rounded once to a float, inf past float range."""
    try:
        return float(g)
    except OverflowError:
        return math.inf


# the meaning of each comparison with 1 within tol, on an exact gauge
_BAND = {
    eq: lambda g, tau: abs(g - 1) <= tau,
    le: lambda g, tau: g <= 1 + tau,
    ge: lambda g, tau: g >= 1 - tau,
    gt: lambda g, tau: g > 1 + tau,
}


def band(rel, g: Fraction, tol) -> bool:
    """rel(g, 1, tol) decided exactly: g within Fraction(tol) of 1 counts as 1."""
    return _BAND[rel](g, Fraction(tol))


# the former float relations of `scalars`, which the float walk compared
# each gauge with 1 by: b plus or minus tol, rounded, against a
FORMER_RELS = {
    eq: lambda a, b, tol: abs(a - b) <= tol,
    le: lambda a, b, tol: a <= b + tol,
    ge: lambda a, b, tol: a >= b - tol,
    gt: lambda a, b, tol: a > b + tol,
}


class RefSubsetSums(SubsetSums):
    """The library's former `SubsetSums` on float data on a polygon (the
    float walk), verbatim apart from its float normals formed here, with
    the former relations `RELS`; on any other data the library's. A
    subclass with `RELS` empty reads the walk through the live `scalars`
    relations."""

    RELS = FORMER_RELS

    def __init__(self, ball, vectors):
        super().__init__(ball, vectors)
        fam = Family(vectors)
        self._walk = ball.is_polygonal and fam.scale is None
        self._walk_pts = fam.pts
        self._rows = tuple([(p / ball.den, q / ball.den) for p, q in ball.normals or ()])

    def tests(self, subsets, rel, tol=DEFAULT_TOL):
        if not self._walk:
            return super().tests(subsets, rel, tol)
        rel = self.RELS.get(rel, rel)
        return ((t, rel(g, 1, tol)) for t, g in self.gauges(subsets))

    def gauges(self, subsets):
        if not self._walk:
            return super().gauges(subsets)
        rows = self._rows
        return _ref_float_walk(self._walk_pts, subsets, lambda x, y: max([p * x + q * y for p, q in rows]))


def _ref_float_walk(pts, subsets, f):
    if isinstance(subsets, int):
        subsets = combinations(range(len(pts)), subsets)
    for t in subsets:
        sx = sy = 0
        for i in t:
            x, y = pts[i]
            sx += x
            sy += y
        yield t, f(sx, sy)


def ref_compile_polygon(points, cls):
    # a float coordinate is the dyadic rational it denotes, as in the library
    pts = [Vec2(Fraction(p.x), Fraction(p.y)) for p in points]
    if not pts:
        raise NotConvexBody("empty vertex list")
    hull = convex_hull(pts)
    if len(hull) < 3:
        raise NotConvexBody("hull is degenerate (a point or a segment)")
    fam = Family(hull)
    coords, scale = fam.pts, fam.scale
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
    den = math.lcm(*[det for _, _, det in rows])
    normals = tuple([(p * (den // det), q * (den // det)) for p, q, det in rows])
    return cls(POLYGONAL, tuple(hull[start:] + hull[:start]), normals, den)


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


def ref_euclidean_boundary_points(rng, n):
    phis = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
    return [(math.cos(phi), math.sin(phi)) for phi in phis], None


def ref_euclidean_ball_points(rng, count):
    points = []
    for _ in range(count):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(rng.uniform(0.0, 1.0))
        points.append((r * math.cos(phi), r * math.sin(phi)))
    return points, None


def ref_gen_euclidean_halfplane_instance(seed):
    rng = seeded_rng(seed)
    n = rng.choice([3, 5, 7, 9])
    phi = rng.uniform(0.0, 2.0 * math.pi)
    u = Vec2(math.cos(phi), math.sin(phi))
    vectors = gen_unit_vectors(euclidean_ball(), n, rng.getrandbits(32), halfplane=u)
    return vectors, u


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


def ref_is_centrally_symmetric(body):
    have = {(v.x, v.y) for v in body.vertices}
    return have == {(-x, -y) for x, y in have}


def ref_gen_asymmetric_body(seed):
    rng = random.Random(seed)
    while True:
        ball = ref_gen_random_ball(rng.getrandbits(32))
        verts = list(ball.vertices)
        i = rng.randrange(len(verts))
        stretch = 1 + Fraction(rng.randint(1, 4), 8)
        verts[i] = verts[i].scale(stretch)
        body = ref_compile_polygon(verts, ConvexBody)
        if not ref_is_centrally_symmetric(body):
            return body


# The library's eager report and its vertex-set symmetry test, as they were
# before every report was formed on first read and symmetry was decided
# once at compile, verbatim: the reference verifiers below construct this
# `VerifyReport`, and the stored decision is checked against this
# `is_centrally_symmetric`.


@dataclass
class VerifyReport:
    theorem: str
    hypothesis_holds: bool
    conclusion_holds: bool
    total: Vec2
    total_norm: Scalar
    witnesses: list[KSum] = field(default_factory=list)
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypothesis": self.hypothesis_holds,
            "conclusion": self.conclusion_holds,
            "total": self.total.to_json(),
            "total_norm": format_scalar(self.total_norm),
            "witnesses": [w.to_json() for w in self.witnesses],
            "notes": self.notes,
        }


def is_centrally_symmetric(body: ConvexBody) -> bool:
    """Whether the vertex set equals its own negation, exactly: decided on
    the integer pairs of the vertex cycle."""
    have = set(lattice_vertices(body)[0])
    return have == {(-x, -y) for x, y in have}


# Reference verifiers: T1 with its projection certificate, lemma-conv and
# Claim 1 as they were before they were decided on the integer lattice,
# verbatim apart from their names (the certificate calls the reference T1).


def _ref_singles(n):
    return combinations(range(n), 1)


def ref_verify_theorem1(ball, vectors, u, tol=DEFAULT_TOL):
    if u.is_zero():
        raise ZeroDirection("halfplane direction must be nonzero")
    vs = tuple(vectors)
    notes = []
    bad = []
    if len(vs) % 2 == 0:
        notes.append("even cardinality")
    for (i,), unit in SubsetSums(ball, vs).tests(_ref_singles(len(vs)), eq, tol):
        v = vs[i]
        side = u.dot(v)
        if not unit:
            bad.append(KSum((i,), v))
            notes.append(f"vector {i} is not a unit vector")
        elif not ge(side, 0, tol * math.hypot(u.x, u.y) if isinstance(side, float) else tol):
            bad.append(KSum((i,), v))
            notes.append(f"vector {i} leaves the halfplane")
    hypothesis = len(vs) % 2 == 1 and not bad
    total = vsum(vs)
    total_norm = gauge(ball, total)
    conclusion = ge(total_norm, 1, tol)
    return VerifyReport(
        "T1", hypothesis, conclusion, total, total_norm,
        witnesses=bad if not hypothesis else [],
        notes="; ".join(notes),
    )


def ref_halfplane_angle_cmp(u):
    def cmp(a, b):
        s = sgn(a.cross(b))
        if s > 0:
            return -1
        if s < 0:
            return 1
        if a.dot(b) >= 0:
            return 0  # same direction: stable sort keeps input order
        return -1 if sgn(u.cross(a)) < 0 else 1

    return functools.cmp_to_key(cmp)


def ref_supporting_functional(ball, v, tol):
    if not ball.is_polygonal:
        return v
    normals = edge_functionals(ball)
    hits = [n for n in normals if eq(n.dot(v), 1, tol)]
    if len(hits) == 2:
        e, f = hits
        return Vec2((e.x + f.x) / 2, (e.y + f.y) / 2)
    return max(normals, key=lambda n: n.dot(v))


@dataclass
class Certificate:
    """The former certificate: every field formed when it is made."""

    k: int
    u: Vec2
    tangent: Vec2
    ordered: tuple
    projections: list
    projection_sum: Scalar


def ref_halfplane_certificate(ball, vectors, u, tol=DEFAULT_TOL):
    report = ref_verify_theorem1(ball, vectors, u, tol)
    if not report.hypothesis_holds:
        raise HypothesisFailed(report.notes or "hypothesis does not hold")
    ordered = tuple(sorted(vectors, key=ref_halfplane_angle_cmp(u)))
    n = len(ordered)
    k = (n + 1) // 2  # 1-based position of the middle vector
    vk = ordered[k - 1]
    tangent = ref_supporting_functional(ball, vk, tol)
    d = tangent.perp()
    denom = vk.cross(d)
    projections = [v.cross(d) / denom for v in ordered]
    projection_sum = functools.reduce(operator.add, projections, 0)  # `sum` as before 3.12
    if not ge(projection_sum, 1, tol):
        raise TheoremFalsified(
            f"projection sum {projection_sum} < 1 on a halfplane instance"
        )
    if not ge(report.total_norm, 1, tol):
        raise TheoremFalsified("certificate exists but total norm < 1")
    return Certificate(k, u, tangent, ordered, projections, projection_sum)


def ref_lemma_conv_check(ball, a, b, c, tol=DEFAULT_TOL):
    vs = (a, b, c)
    for (i,), unit in SubsetSums(ball, vs).tests(_ref_singles(3), eq, tol):
        if not unit:
            raise NotOnBoundary(f"{vs[i]} has gauge {gauge(ball, vs[i])}, expected 1")
    return point_in_triangle(ORIGIN, a, b, c, tol), point_in_triangle(a + b + c, a, b, c, tol)


def ref_claim1_triplets(xs, tol=DEFAULT_TOL):
    values = list(xs)
    if len(values) != 6:
        raise PreconditionFailed(f"need exactly 6 values, got {len(values)}")
    for i, x in enumerate(values):
        if not le(abs(x), 1, tol):
            raise PreconditionFailed(f"value {i} is outside [-1, 1]")
    if not eq(functools.reduce(operator.add, values, 0), 0, tol):  # `sum` as before 3.12
        raise PreconditionFailed("values do not sum to zero")
    return [
        t
        for t in combinations(range(6), 3)
        if le(abs(values[t[0]] + values[t[1]] + values[t[2]]), 1, tol)
    ]


def verify_helly_1d(xs, strict, tol=DEFAULT_TOL):
    """The three-sum theorems for collinear data given as signed lengths.

    The unit ball of the line is the segment [-1, 1]; each x is the signed
    norm of a vector along a common direction. Strict: every |x| <= 1 and
    every |3-sum| > 1 imply |total| > 1. Non-strict: every |x| == 1 and
    every |3-sum| >= 1 imply |total| >= 1.
    """
    values = list(xs)
    if len(values) < 3:
        raise TooFew("need at least 3 values")
    if len(values) % 2 == 0:
        raise EvenCardinality("the family must have odd size")
    single_ok, triple_ok = (le, gt) if strict else (eq, ge)
    total = sum(values)
    bad = [(i,) for i, x in enumerate(values) if not single_ok(abs(x), 1, tol)]
    bad += [
        t for t in combinations(range(len(values)), 3)
        if not triple_ok(abs(sum(values[i] for i in t)), 1, tol)
    ]
    return VerifyReport(
        "T3" if strict else "T2", not bad, triple_ok(abs(total), 1, tol),
        Vec2(total, 0), abs(total),
        witnesses=[KSum(idx, Vec2(sum(values[i] for i in idx), 0)) for idx in bad],
        notes="1d instance over the segment [-1, 1]",
    )


# Reference three-sum verifiers: T2/T3 and COR as they were before their
# conclusions were read off the packing, verbatim apart from their names.
# Each forms its total and the total's gauge when called.


class _RefKSums(UserList):
    """The list of `KSum`s of index subsets of a family, summed on first
    read: a report dropped unread (a failed strict probe) sums nothing.
    A singleton's value is the vector itself, as in T1's reference (a sum
    from 0 would print a float -0.0 as 0.0, and a given rational beside
    floats as a float)."""

    def __init__(self, vs: Family, subsets: list[tuple[int, ...]]):
        self._vs, self._subsets = vs, subsets

    @functools.cached_property
    def data(self) -> list[KSum]:
        vs = self._vs
        return [KSum(t, vs[t[0]] if len(t) == 1 else vs.vector_sum(t)) for t in self._subsets]


def _ref_odd_family(n: int) -> None:
    if n < 3:
        raise TooFew("need at least 3 vectors")
    if n % 2 == 0:
        raise EvenCardinality("the family must have odd size")


def _ref_three_sum_judge(sums: SubsetSums, total_norm: Scalar, strict: bool, tol: float):
    """The one judge of the three-sum theorems, on a family's subset sums.

    Strict: every vector in the ball and every 3-sum of norm > 1 imply a
    total of norm > 1. Non-strict: every vector of norm 1 and every 3-sum
    of norm >= 1 imply a total of norm >= 1. Returns the index tuples
    breaking the hypothesis (none when it holds) and whether the
    conclusion holds.
    """
    single_ok, triple_ok = (le, gt) if strict else (eq, ge)
    bad = [t for t, ok in sums.tests(1, single_ok, tol) if not ok]
    bad += [t for t, ok in sums.tests(3, triple_ok, tol) if not ok]
    return bad, triple_ok(total_norm, 1, tol)


def ref_verify_helly(
    ball: UnitBall, vectors: VectorMultiset, strict: bool, tol: float = DEFAULT_TOL
) -> VerifyReport:
    """Check one of the two three-sum theorems on an instance.

    strict=False: unit vectors whose 3-sums all have norm >= 1 must sum to
    norm >= 1. strict=True: vectors in the ball whose 3-sums all have norm
    > 1 must sum to norm > 1. Collinear families need no path of their
    own: along a line through the origin the norm is |signed length|.
    """
    check_tol(tol)
    vs = Family(vectors)
    _ref_odd_family(len(vs))
    total = vs.vector_sum(range(len(vs)))
    total_norm = gauge(ball, total)
    bad, conclusion = _ref_three_sum_judge(SubsetSums(ball, vs), total_norm, strict, tol)
    return VerifyReport(
        "T3" if strict else "T2", not bad, conclusion, total, total_norm,
        witnesses=_RefKSums(vs, bad),
    )


def ref_corollary_check(
    ball: UnitBall, vectors: VectorMultiset, k: int, tol: float = DEFAULT_TOL
) -> VerifyReport:
    """If every 3-sum is strictly outside the ball, so is every k-sum (k odd, k > 3)."""
    check_tol(tol)
    vs = Family(vectors)
    if k % 2 == 0 or k <= 3 or k > len(vs):
        raise BadK(f"k must be odd, > 3, and <= {len(vs)}; got {k}")
    total = vs.vector_sum(range(len(vs)))
    total_norm = gauge(ball, total)
    sums = SubsetSums(ball, vs)  # one packing for the 1-, 3- and k-sums
    bad, _ = _ref_three_sum_judge(sums, total_norm, True, tol)
    failing = [t for t, outside in sums.tests(k, gt, tol) if not outside]
    return VerifyReport(
        "COR", not bad, not failing, total, total_norm,
        witnesses=_RefKSums(vs, bad or failing),
        notes=f"k={k}",
    )


def ref_family_to_json(fam: Family) -> list[list[str]]:
    """`Vec2.to_json` of each vector, printed from the ints on the lattice
    or from the float pairs. Given vectors print as given: an int
    coordinate prints "0", not "0.0"."""
    if fam.scale is not None:
        return [[format_ratio(x, fam.scale), format_ratio(y, fam.scale)] for x, y in fam.pts]
    if "vectors" in fam.__dict__:
        return [v.to_json() for v in fam.vectors]
    return [[repr(x), repr(y)] for x, y in fam.pts]


def ref_ball_to_json(ball: UnitBall) -> dict:
    if ball.kind == EUCLIDEAN:
        return {"type": EUCLIDEAN}
    return {"type": POLYGONAL, "vertices": ref_family_to_json(ball.vertices)}


def ref_on_ball_payload(ball: UnitBall, vectors: Family, extra=None) -> dict:
    """An instance on a ball; its digest covers the ball, the vectors and `extra`."""
    payload = {"ball": ref_ball_to_json(ball), "vectors": ref_family_to_json(vectors)}
    payload.update(extra or {})
    return payload


def ref_claim1_payload(points: Sequence[Vec2]) -> dict:
    return {"xs": [str(p.x) for p in points]}


def ref_symmetry_payload(body: ConvexBody) -> dict:
    return {"body": ref_family_to_json(body.vertices)}


def ref_gallery_payload(case) -> dict:
    return {"case": case.name}


def ref_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def ref_config_to_json(config) -> dict:
    return asdict(config)


def ref_record_to_json(record) -> dict:
    return {
        "trial": record.index,
        "digest": record.digest,
        "outcome": record.outcome,
        "detail": record.detail,
        "witnesses": record.witnesses,
    }


def ref_report_to_json(report) -> dict:
    return {
        "config": ref_config_to_json(report.config),
        "counts": {
            "pass": report.passes,
            "fail": report.failures,
            "vacuous": report.vacuous,
        },
        "records": [ref_record_to_json(r) for r in report.records],
    }


def ref_report_json_text(report) -> str:
    return json.dumps(ref_report_to_json(report), sort_keys=True, separators=(",", ":"))


# The library's former general-position search, verbatim apart from its
# name; it shares `_grid_fraction`, `_MAX_TRIES` and `_check_generic` with
# the library.


def ref_make_generic(
    ball: UnitBall,
    vectors: VectorMultiset,
    lam: Scalar,
    eps: Scalar,
    seed: int,
) -> tuple[Vec2, ...]:
    if not ball.is_polygonal:
        raise NotPolygonal("general-position perturbation needs a polygonal ball")
    try:
        lam, eps = Fraction(lam), Fraction(eps)
    except (TypeError, ValueError, OverflowError):  # not a finite number
        raise BadInput(f"lambda and epsilon must be finite numbers; got {lam!r}, {eps!r}") from None
    if not 0 < lam < 1:
        raise BadInput(f"lambda must be in (0, 1); got {lam}")
    if eps <= 0:
        raise BadInput(f"epsilon must be positive; got {eps}")
    vs = Family(vectors)
    for i, v in enumerate(vs):
        if lam * gauge(ball, v) + eps >= 1:
            raise EpsilonTooLarge(
                f"eps-neighbourhood of vector {i} does not stay inside the ball"
            )
    normals = edge_functionals(ball)
    coeff_bound = max(abs(n.x) + abs(n.y) for n in normals)
    radius = eps / (2 * coeff_bound)  # sup-ball of this radius has gauge <= eps/2
    rng = seeded_rng(seed)

    # value -> subset over everything committed so far; a collision between
    # different subsets is exactly a violation of the genericity conditions
    committed: dict[Scalar, frozenset[int]] = {0: frozenset()}
    presums: dict[frozenset[int], Vec2] = {frozenset(): Vec2(0, 0)}
    chosen: list[Vec2] = []
    for i in range(len(vs)):
        center = vs[i].scale(lam)
        extendable = [s for s in presums if len(s) <= 4]
        for _ in range(_MAX_TRIES):
            cand = center + Vec2(_grid_fraction(rng, radius), _grid_fraction(rng, radius))
            fresh: dict[Scalar, frozenset[int]] = {}
            ok = True
            for s in extendable:
                subset = s | {i}
                total = presums[s] + cand
                for n in normals:
                    val = n.dot(total)
                    owner = committed.get(val)
                    if owner is None:
                        owner = fresh.get(val)
                    if owner is not None and owner != subset:
                        ok = False
                        break
                    fresh[val] = subset
                if not ok:
                    break
            if ok:
                committed.update(fresh)
                for s in extendable:
                    if len(s) <= 3:
                        presums[s | {i}] = presums[s] + cand
                chosen.append(cand)
                break
        else:
            raise SamplingExhausted(f"no valid perturbation found for vector {i}")
    out = tuple(chosen)
    _check_generic(ball, vs, out, lam, eps)
    return out


# The library's former symmetry witness verifiers and their three helpers,
# verbatim apart from the ref_ names: "inside" by one gauge per point,
# "surrounds" by `origin_position` on the `Fraction` pairs, and a
# surrounding sum accepted when it is merely not strictly inside.


def ref_strictly_inside(body: ConvexBody, z: Vec2) -> bool:
    return gauge(body, z) < 1


def ref_surrounds_origin(a: Vec2, b: Vec2, c: Vec2) -> bool:
    """Whether the origin is strictly inside the triangle abc."""
    return origin_position([(p.x, p.y) for p in (a, b, c)]) == 1


def ref_witness_basics(body: ConvexBody, w: ViolationWitness) -> bool:
    if len({(p.x, p.y) for p in (w.a, w.b, w.c)}) != 3:
        return False
    for p in (w.a, w.b, w.c):
        if gauge(body, p) != 1:
            return False
    return (w.a + w.b + w.c - w.h).is_zero()


def ref_verify_halfplane_witness(body: ConvexBody, w: ViolationWitness) -> bool:
    """Re-check a halfplane witness from scratch with the exact predicates,
    the sum first: one gauge rejects most of a finder's candidates."""
    # a common closed halfplane bounded through the origin exists exactly
    # when the origin is not strictly inside conv{a, b, c}
    return (
        w.kind is WitnessKind.HALFPLANE_INTERIOR_SUM
        and ref_strictly_inside(body, w.h)
        and not ref_surrounds_origin(w.a, w.b, w.c)
        and ref_witness_basics(body, w)
    )


def ref_verify_surrounding_witness(body: ConvexBody, w: ViolationWitness) -> bool:
    """Re-check a surrounding witness from scratch with the exact predicates."""
    return (
        w.kind is WitnessKind.SURROUNDING_EXTERIOR_SUM
        and not ref_strictly_inside(body, w.h)
        and ref_surrounds_origin(w.a, w.b, w.c)
        and ref_witness_basics(body, w)
    )


def _ref_rotation_snapshot(angles, fixed_axis, order):
    moving = tuple(Vec2(math.cos(angles[i]), math.sin(angles[i])) for i in order if fixed_axis[i] is None)
    fixed = tuple(Vec2(fixed_axis[i], 0.0) for i in order if fixed_axis[i] is not None)
    total = vsum(moving) + vsum(fixed)
    return RotationStep(moving, fixed, total, math.hypot(total.x, total.y))


def ref_ginzburg_reduce(
    vectors: VectorMultiset, u: Vec2, tol: float = DEFAULT_TOL
) -> RotationTrace:
    """Rotate a Euclidean halfplane family onto the axis, one pin per step.

    Works in the frame where u points straight up. At each step the not yet
    pinned vectors rotate rigidly in whichever direction keeps the norm of
    the running sum from growing, until the first of them reaches (1,0) or
    (-1,0); that one (lowest index on ties) is pinned. After n steps every
    vector sits on the horizontal axis and the norm of the sum is an odd
    integer, hence at least 1.
    """
    check_tol(tol)
    [(ux, uy)] = Family([u]).floats()  # u and the vectors must be of finite numbers
    if u.is_zero():
        raise ZeroDirection("halfplane direction must be nonzero")
    vs = [Vec2(x, y) for x, y in Family(vectors).floats()]
    n = len(vs)
    if n % 2 == 0:
        raise EvenCardinality("the family must have odd size")
    # rotate the frame so that u becomes (0, 1)
    shift = math.pi / 2 - math.atan2(uy, ux)
    cs, sn = math.cos(shift), math.sin(shift)
    angles: list[float] = []
    for i, v in enumerate(vs):
        if abs(math.hypot(v.x, v.y) - 1.0) > tol:
            raise NotUnitVectors(f"vector {i} has Euclidean norm {math.hypot(v.x, v.y)}")
        x, y = cs * v.x - sn * v.y, sn * v.x + cs * v.y
        if y < -tol:
            raise HalfplaneViolated(f"vector {i} lies below the halfplane")
        a = math.atan2(max(y, 0.0), x)
        angles.append(min(max(a, 0.0), math.pi))
    fixed_axis: list[float | None] = [None] * n
    order = list(range(n))
    steps = [_ref_rotation_snapshot(angles, fixed_axis, order)]
    for _ in range(n):
        moving = [i for i in order if fixed_axis[i] is None]
        f = vsum(Vec2(fixed_axis[i], 0.0) for i in order if fixed_axis[i] is not None)
        m = vsum(Vec2(math.cos(angles[i]), math.sin(angles[i])) for i in moving)
        theta_ccw = min(math.pi - angles[i] for i in moving)
        theta_cw = min(angles[i] for i in moving)
        c = m.cross(f)
        if abs(c) > 1e-12:
            ccw = c < 0
        else:
            # locally flat: compare the end states of both feasible stops
            end_ccw = _ref_end_norm(f, m, theta_ccw)
            end_cw = _ref_end_norm(f, m, -theta_cw)
            if abs(end_ccw - end_cw) > 1e-12:
                ccw = end_ccw < end_cw
            else:
                # still flat: send the vector closest to an axis to its
                # nearer axis endpoint (final tie goes clockwise)
                closest = min(moving, key=lambda i: min(angles[i], math.pi - angles[i]))
                ccw = math.pi - angles[closest] < angles[closest]
        theta = theta_ccw if ccw else theta_cw
        target = math.pi if ccw else 0.0
        for i in moving:
            angles[i] = angles[i] + theta if ccw else angles[i] - theta
            angles[i] = min(max(angles[i], 0.0), math.pi)
        arrivals = [i for i in moving if abs(angles[i] - target) <= 1e-9]
        pin = arrivals[0]  # lowest index on simultaneous arrivals
        fixed_axis[pin] = -1.0 if target == math.pi else 1.0
        angles[pin] = target
        steps.append(_ref_rotation_snapshot(angles, fixed_axis, order))
    if abs(round(steps[-1].norm) - steps[-1].norm) > 10 * tol:  # pragma: no cover
        raise TheoremFalsified("final norm is not an integer")
    return RotationTrace(steps)


def _ref_end_norm(f: Vec2, m: Vec2, theta: float) -> float:
    cs, sn = math.cos(theta), math.sin(theta)
    rotated = Vec2(cs * m.x - sn * m.y, sn * m.x + cs * m.y)
    return math.hypot(f.x + rotated.x, f.y + rotated.y)
