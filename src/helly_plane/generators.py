"""Seeded instance generators for the property suites.

Every generator is a pure function of its arguments; the same seed always
reproduces the same instance, and a seed that is not an int is bad input
(`seeded_rng`). Rational instances are drawn on the integer grid: a point
is an integer pair over one known denominator (1000 for drawn
coordinates, 1000·S on a ball whose vertices are integers over S),
rejection tests run on ints, and a family is returned as a `Family` of
those pairs, whose `Fraction`s are formed only if its vectors are read.
A halfplane direction is one such family too, one point over 1000
(`gen_direction`), and the antipodal pair on its boundary line a
two-point one formed on ints (`antipodal_pair_on_boundary`), so a trial
forms no `Fraction` for its direction either. Integers are drawn
straight off `rng.getrandbits` (`_randint`, written out in the hot
draws: directions, boundary points and ball points), with the values and
generator states of `rng.randint`/`rng.randrange`. Polygonal boundary points are convex
combinations of adjacent vertices, so their gauge is 1 exactly, with no
float slack anywhere in exact mode. Each distribution has one draw, a
boundary-point draw and a ball-point draw, run on the ball's integer
vertex cycle (`lattice_vertices`, None on the Euclidean ball). Euclidean
draws give a float `Family`, printed from its float pairs: no `Vec2` and
no `Fraction` is formed. Their angles and radii are drawn as
`b * rng.random()`, `rng.uniform(0.0, b)` written out (`uniform` is
a + (b − a)·random()): the same float, and the generator left in the
same state. A boundary draw meets a halfplane, a `Vec2` or a drawn
direction, by one mirror of its pairs (`geometry.dots`).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import BadInput, NotConvexBody
from .geometry import Family, as_direction, dots
from .norms import (
    ConvexBody, UnitBall, boundary_point, compile_lattice, euclidean_ball, lattice_boundary,
    lattice_in_ball, lattice_vertices,
)
from .scalars import le
from .vectors import Vec2

_GRID = 1000
_HALF_VERTICES = 6  # points drawn per symmetric polygon, half its most vertices
_ZERO_SUM_DRAWS = 10_000  # five-point draws before the +- triple fallback
_OFFSET_BITS = (_GRID - 1).bit_length()  # `_randint` widths of 0.._GRID - 1
_WEIGHT_BITS = _GRID.bit_length()  # of 0.._GRID
_COORD_BITS = (2 * _GRID + 1).bit_length()  # and of -_GRID.._GRID


def seeded_rng(seed: int) -> random.Random:
    """The generator of a seed, which must be an int: `random.Random(None)`
    would draw from OS entropy, and a bool or a float seed is bad input, as
    in `run_suite`."""
    if type(seed) is not int:
        raise BadInput(f"seed must be an int; got {seed!r}")
    return random.Random(seed)


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """`rng.randint(lo, hi)` read straight off `rng.getrandbits`: the same
    value, and the generator left in the same state, since this is the
    rejection loop of CPython's `Random._randbelow` on hi − lo + 1. It is
    `rng.randrange(n)` for lo = 0, hi = n − 1. Needs hi >= lo."""
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _symmetric_polygon(seed: int, cls: type) -> UnitBall:
    """The `cls` polygon of the first draw of points and their negations
    that spans the plane."""
    rng = seeded_rng(seed)
    bits = rng.getrandbits
    while True:
        coords = []  # x, y of each point: `_randint(rng, -_GRID, _GRID)` written out
        while len(coords) < 2 * _HALF_VERTICES:
            r = bits(_COORD_BITS)
            if r <= 2 * _GRID:
                coords.append(r - _GRID)
        pairs = list(zip(coords[::2], coords[1::2]))
        try:
            return compile_lattice(pairs + [(-x, -y) for x, y in pairs], _GRID, cls)
        except NotConvexBody:
            continue  # collinear draw: resample


def gen_random_ball(seed: int) -> UnitBall:
    """A random 0-symmetric polygonal ball with at most 12 vertices."""
    return _symmetric_polygon(seed, UnitBall)


def gen_unit_vectors(
    ball: UnitBall,
    n: int,
    seed: int,
    halfplane: Optional[Vec2 | Family] = None,
) -> Family:
    """n vectors of gauge exactly 1; with `halfplane` u, all dots u.v >= 0.

    The boundary-point draw gives pairs over a denominator (float pairs
    over None on the Euclidean ball), and one mirror meets the halfplane: a
    boundary point with a negative dot (`geometry.dots`) is replaced by
    its negation, which is also on the boundary.
    """
    if type(n) is not int or n < 1:
        raise BadInput(f"need an int n >= 1; got {n!r}")
    pairs, den = _boundary_points(lattice_vertices(ball), seeded_rng(seed), n)
    if halfplane is not None:
        sides = dots(halfplane, pairs, den)
        pairs = [(-x, -y) if d < 0 else (x, y) for (x, y), d in zip(pairs, sides)]
    return Family.from_lattice(pairs, den)


def _boundary_points(cycle: Optional[tuple], rng: random.Random, n: int) -> tuple[list, Optional[int]]:
    """n boundary points over one denominator, for a `lattice_vertices`
    cycle: (cos φ, sin φ) on the Euclidean ball (None), else the point
    r/1000 of the way from vertex A to vertex B, which is
    (1000·A + r·(B − A)) / (1000·S) on the lattice. The draws are
    `_randint`'s loop written out."""
    if cycle is None:
        draw, tau = rng.random, 2.0 * math.pi
        phis = [tau * draw() for _ in range(n)]
        return [(math.cos(phi), math.sin(phi)) for phi in phis], None
    pairs, scale = cycle
    m, bits = len(pairs), rng.getrandbits
    k = m.bit_length()
    out = []
    for _ in range(n):
        i = bits(k)
        while i >= m:
            i = bits(k)
        (ax, ay), (bx, by) = pairs[i], pairs[(i + 1) % m]
        r = bits(_OFFSET_BITS)
        while r >= _GRID:
            r = bits(_OFFSET_BITS)
        out.append((_GRID * ax + r * (bx - ax), _GRID * ay + r * (by - ay)))
    return out, _GRID * scale


def gen_zero_sum_six(ball: UnitBall, seed: int) -> Family:
    """Six vectors in the ball summing to zero exactly.

    Samples five points of the ball (the ball-point draw) and closes with
    the negated sum, redrawing until the closing vector is inside too; a
    +- triple fallback guarantees termination. The five are added from 0
    left to right, as `vsum` adds them; the closing vector is tested on
    ints on the lattice, else by `math.hypot` on the Euclidean ball.
    """
    rng = seeded_rng(seed)
    cycle = lattice_vertices(ball)
    for _ in range(_ZERO_SUM_DRAWS):
        pts, den = _ball_points(cycle, rng, 5)
        x = y = 0
        for px, py in pts:
            x += px
            y += py
        inside = lattice_in_ball(ball, -x, -y, den) if den else le(math.hypot(-x, -y), 1, 1e-12)
        if inside:
            return Family.from_lattice(pts + [(-x, -y)], den)
    pts, den = _ball_points(cycle, rng, 3)
    return Family.from_lattice(pts + [(-x, -y) for x, y in pts], den)


def _ball_points(cycle: Optional[tuple], rng: random.Random, count: int) -> tuple[list, Optional[int]]:
    """`count` points of the ball over one denominator, for a
    `lattice_vertices` cycle: uniform points of the disc on the Euclidean
    ball (None), else convex combinations Σ wᵢPᵢ / total of three random
    vertices, which stay in the ball: integer pairs over the lcm of their
    denominators. The draws are `_randint`'s loop written out."""
    points = []
    if cycle is None:
        draw, tau = rng.random, 2.0 * math.pi
        for _ in range(count):
            phi = tau * draw()
            r = math.sqrt(draw())
            points.append((r * math.cos(phi), r * math.sin(phi)))
        return points, None
    pairs, scale = cycle
    m, bits = len(pairs), rng.getrandbits
    k = m.bit_length()
    for _ in range(count):
        picks = []
        for _ in range(3):
            i = bits(k)
            while i >= m:
                i = bits(k)
            picks.append(pairs[i])
        x = y = total = 0
        for px, py in picks:
            w = bits(_WEIGHT_BITS)
            while w > _GRID:
                w = bits(_WEIGHT_BITS)
            x, y, total = x + w * px, y + w * py, total + w
        points.append((x, y, total or 1))
    den = math.lcm(*[t for _, _, t in points])
    return [(x * (den // t), y * (den // t)) for x, y, t in points], den * scale


def gen_direction(rng: random.Random) -> Family:
    """A nonzero rational direction, as the one-point lattice `Family` of
    (x, y) / 1000 for x, y in -1000..1000 (`geometry.as_direction`); its
    `[0]` is the `Vec2`. The draws are `_randint`'s loop written out."""
    bits = rng.getrandbits
    while True:
        x = bits(_COORD_BITS)
        while x > 2 * _GRID:
            x = bits(_COORD_BITS)
        y = bits(_COORD_BITS)
        while y > 2 * _GRID:
            y = bits(_COORD_BITS)
        if x != _GRID or y != _GRID:
            return Family.from_lattice([(x - _GRID, y - _GRID)], _GRID)


def gen_claim1_tuple(seed: int) -> list[Fraction]:
    """Six rationals in [-1, 1] with exact zero sum."""
    rng = seeded_rng(seed)
    while True:
        xs = [_randint(rng, -_GRID, _GRID) for _ in range(5)]
        closing = -sum(xs)
        if abs(closing) <= _GRID:
            return [Fraction(x, _GRID) for x in xs + [closing]]


def gen_collinear_family(ball: UnitBall, seed: int) -> tuple[Family, list[Fraction]]:
    """A collinear family in the ball whose 3-sums all have norm > 1.

    Returns the vectors along a random boundary direction together with
    their signed lengths. Most entries are drawn from (1/3, 1] so triples
    clear 1; an occasional small opposite-sign entry keeps the data honest,
    and draws that break the hypothesis are rejected. Lengths are drawn
    and tested in thousandths.
    """
    rng = seeded_rng(seed)
    n = rng.choice([5, 7, 9])
    direction = gen_unit_vectors(ball, 1, rng.getrandbits(32))
    while True:
        ks = [_randint(rng, 400, _GRID) for _ in range(n)]
        if rng.random() < 0.3:
            ks[_randint(rng, 0, n - 1)] = -_randint(rng, 0, 150)
        if all(abs(a + b + c) > _GRID for a, b, c in combinations(ks, 3)):
            xs = [Fraction(k, _GRID) for k in ks]
            [(dx, dy)] = direction.pts
            if direction.scale is None:
                return Family.from_lattice([(k / _GRID * dx, k / _GRID * dy) for k in ks], None), xs
            return Family.from_lattice([(k * dx, k * dy) for k in ks], _GRID * direction.scale), xs


def gen_symmetric_body(seed: int) -> ConvexBody:
    """A random 0-symmetric convex polygon as a ConvexBody: the polygon of
    `gen_random_ball(seed)`, compiled once as a body."""
    return _symmetric_polygon(seed, ConvexBody)


def gen_asymmetric_body(seed: int) -> ConvexBody:
    """A symmetric polygon with one vertex pushed outward, breaking the pair."""
    rng = seeded_rng(seed)
    while True:
        pairs, scale = lattice_vertices(gen_random_ball(rng.getrandbits(32)))
        i = _randint(rng, 0, len(pairs) - 1)
        k = _randint(rng, 1, 4)
        # vertex i stretched by 1 + k/8: every vertex over 8·S, that one times 8 + k
        points = [(8 * x, 8 * y) for x, y in pairs]
        points[i] = ((8 + k) * pairs[i][0], (8 + k) * pairs[i][1])
        body = compile_lattice(points, 8 * scale, ConvexBody)
        if not body.symmetric:
            return body


def gen_euclidean_halfplane_instance(seed: int) -> tuple[Family, Vec2]:
    """Float unit vectors in the closed halfplane of a random direction."""
    rng = seeded_rng(seed)
    n = rng.choice([3, 5, 7, 9])
    phi = 2.0 * math.pi * rng.random()
    u = Vec2(math.cos(phi), math.sin(phi))
    vectors = gen_unit_vectors(euclidean_ball(), n, rng.getrandbits(32), halfplane=u)
    return vectors, u


def antipodal_pair_on_boundary(ball: UnitBall, u: Vec2 | Family) -> Family:
    """The boundary pair (w, -w) along u⊥ = (−y, x), so both stay in u's
    halfplane, as a two-point `Family`. For a rational u on a polygon it is
    formed on ints, from u on its lattice, (x, y) / d: w is
    (−y·den, x·den) / m, m = max(Q·x − P·y) over the edge normals
    (`norms.lattice_boundary`); else w is `boundary_point`'s."""
    direction = as_direction(u)
    if not ball.is_polygonal or direction.scale is None:
        w = boundary_point(ball, direction[0].perp())
        return Family((w, -w))
    [(x, y)] = direction.pts
    wx, wy, m = lattice_boundary(ball, -y, x)
    return Family.from_lattice([(wx, wy), (-wx, -wy)], m)
