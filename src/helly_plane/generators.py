"""Seeded instance generators for the property suites.

Every generator is a pure function of its arguments; the same seed always
reproduces the same instance. Polygonal boundary points are built as
rational convex combinations of adjacent vertices, so their gauge is 1
exactly, with no float slack anywhere in exact mode.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Optional

from .errors import NotConvexBody
from .norms import UnitBall, boundary_point, euclidean_ball, gauge, make_polygonal_ball
from .scalars import le
from .symmetry import ConvexBody, is_centrally_symmetric, make_convex_body
from .vectors import Vec2, vsum

_GRID = 1000
_HALF_VERTICES = 6  # points drawn per symmetric polygon, half its most vertices


def _fraction(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo * _GRID, hi * _GRID), _GRID)


def _symmetric_polygon(seed: int, build: Callable[[list[Vec2]], UnitBall]) -> UnitBall:
    """`build(points + negated points)` for the first draw that spans the plane."""
    rng = random.Random(seed)
    while True:
        points = [Vec2(_fraction(rng, -1, 1), _fraction(rng, -1, 1)) for _ in range(_HALF_VERTICES)]
        try:
            return build(points + [-p for p in points])
        except NotConvexBody:
            continue  # collinear draw: resample


def gen_random_ball(seed: int) -> UnitBall:
    """A random 0-symmetric polygonal ball with at most 12 vertices."""
    return _symmetric_polygon(seed, make_polygonal_ball)


def gen_unit_vectors(
    ball: UnitBall,
    n: int,
    seed: int,
    halfplane: Optional[Vec2] = None,
) -> tuple[Vec2, ...]:
    """n vectors of gauge exactly 1; with `halfplane` u, all dots u.v >= 0.

    The halfplane constraint is met by mirroring: a boundary point with a
    negative dot is replaced by its negation, which is also on the boundary.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    out: list[Vec2] = []
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


def gen_zero_sum_six(ball: UnitBall, seed: int) -> tuple[Vec2, ...]:
    """Six vectors in the ball summing to zero exactly.

    Samples five points of the ball and closes with the negated sum,
    redrawing until the closing vector is inside too; a +- triple fallback
    guarantees termination on pathologically thin balls.
    """
    rng = random.Random(seed)
    for _ in range(10_000):
        five = [_point_in_ball(ball, rng) for _ in range(5)]
        closing = -vsum(five)
        if le(gauge(ball, closing), 1, 1e-12):
            return tuple(five) + (closing,)
    a, b, c = (_point_in_ball(ball, rng) for _ in range(3))
    return (a, b, c, -a, -b, -c)


def _point_in_ball(ball: UnitBall, rng: random.Random) -> Vec2:
    if not ball.is_polygonal:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(rng.uniform(0.0, 1.0))
        return Vec2(r * math.cos(phi), r * math.sin(phi))
    # a random convex combination of three vertices stays in the ball
    m = len(ball.vertices)
    picks = [ball.vertices[rng.randrange(m)] for _ in range(3)]
    weights = [rng.randint(0, _GRID) for _ in range(3)]
    total = sum(weights) or 1
    out = Vec2(0, 0)
    for p, w in zip(picks, weights):
        out = out + p.scale(Fraction(w, total))
    return out


def gen_direction(rng: random.Random) -> Vec2:
    """A nonzero rational direction."""
    while True:
        d = Vec2(_fraction(rng, -1, 1), _fraction(rng, -1, 1))
        if not d.is_zero():
            return d


def gen_claim1_tuple(seed: int) -> list[Fraction]:
    """Six rationals in [-1, 1] with exact zero sum."""
    rng = random.Random(seed)
    while True:
        xs = [_fraction(rng, -1, 1) for _ in range(5)]
        closing = -sum(xs)
        if abs(closing) <= 1:
            return xs + [closing]


def gen_collinear_family(ball: UnitBall, seed: int) -> tuple[tuple[Vec2, ...], list[Fraction]]:
    """A collinear family in the ball whose 3-sums all have norm > 1.

    Returns the vectors along a random boundary direction together with
    their signed lengths. Most entries are drawn from (1/3, 1] so triples
    clear 1; an occasional small opposite-sign entry keeps the data honest,
    and draws that break the hypothesis are rejected.
    """
    rng = random.Random(seed)
    n = rng.choice([5, 7, 9])
    direction = gen_unit_vectors(ball, 1, rng.getrandbits(32))[0]
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


def gen_symmetric_body(seed: int) -> ConvexBody:
    """A random 0-symmetric convex polygon as a ConvexBody: the polygon of
    `gen_random_ball(seed)`, compiled once as a body."""
    return _symmetric_polygon(seed, make_convex_body)


def gen_asymmetric_body(seed: int) -> ConvexBody:
    """A symmetric polygon with one vertex pushed outward, breaking the pair."""
    rng = random.Random(seed)
    while True:
        ball = gen_random_ball(rng.getrandbits(32))
        verts = list(ball.vertices)
        i = rng.randrange(len(verts))
        stretch = 1 + Fraction(rng.randint(1, 4), 8)
        verts[i] = verts[i].scale(stretch)
        body = make_convex_body(verts)
        if not is_centrally_symmetric(body):
            return body


def gen_euclidean_halfplane_instance(seed: int) -> tuple[tuple[Vec2, ...], Vec2]:
    """Float unit vectors in the closed halfplane of a random direction."""
    rng = random.Random(seed)
    n = rng.choice([3, 5, 7, 9])
    phi = rng.uniform(0.0, 2.0 * math.pi)
    u = Vec2(math.cos(phi), math.sin(phi))
    vectors = gen_unit_vectors(euclidean_ball(), n, rng.getrandbits(32), halfplane=u)
    return vectors, u


def antipodal_pair_on_boundary(ball: UnitBall, u: Vec2) -> tuple[Vec2, Vec2]:
    """A boundary pair (w, -w) orthogonal to u, so both stay in u's halfplane."""
    w = boundary_point(ball, u.perp())
    return w, -w
