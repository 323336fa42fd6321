import random
from fractions import Fraction

import pytest

from helly_plane.geometry import origin_position
from helly_plane.vectors import Vec2

from oracles import brute_extreme_points, brute_origin_strictly_inside, convex_hull, point_in_triangle

F = Fraction


def _random_points(rng, n, span=4):
    return [
        Vec2(F(rng.randint(-span * 60, span * 60), 60), F(rng.randint(-span * 60, span * 60), 60))
        for _ in range(n)
    ]


def test_hull_example():
    hull = convex_hull([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1), Vec2(F(2, 10), F(2, 10))])
    assert {(p.x, p.y) for p in hull} == {(0, 0), (1, 0), (0, 1)}


def test_hull_singleton():
    assert convex_hull([Vec2(1, 1)]) == [Vec2(1, 1)]


def test_hull_collinear_returns_segment():
    hull = convex_hull([Vec2(0, 0), Vec2(2, 2), Vec2(1, 1), Vec2(3, 3)])
    assert hull == [Vec2(0, 0), Vec2(3, 3)]


def test_hull_is_ccw_and_extreme():
    rng = random.Random(11)
    for _ in range(60):
        pts = _random_points(rng, rng.randint(3, 10))
        hull = convex_hull(pts)
        if len(hull) < 3:
            continue
        n = len(hull)
        for i in range(n):
            a, b, c = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            assert (b - a).cross(c - a) > 0  # strictly convex, ccw
        assert {(p.x, p.y) for p in hull} == brute_extreme_points(pts)


def test_hull_idempotent():
    rng = random.Random(13)
    for _ in range(40):
        pts = _random_points(rng, rng.randint(1, 9))
        hull = convex_hull(pts)
        assert convex_hull(hull) == hull


def _moved(p, a, b, c):
    """The pairs of a - p, b - p and c - p: p in conv{a, b, c} exactly when
    the origin is in their hull."""
    return [(v.x - p.x, v.y - p.y) for v in (a, b, c)]


def test_origin_position_degenerate():
    a, b, c = Vec2(0, 0), Vec2(2, 2), Vec2(1, 1)
    assert origin_position(_moved(Vec2(1, 1), a, b, c)) >= 0
    assert not origin_position(_moved(Vec2(3, 3), a, b, c)) >= 0
    assert not origin_position(_moved(Vec2(1, 0), a, b, c)) >= 0
    assert origin_position(_moved(Vec2(1, 1), Vec2(1, 1), Vec2(1, 1), Vec2(1, 1))) >= 0


@pytest.mark.parametrize("pts, tol, expected", [
    ([(1, 0), (0, 1), (-1, -1)], 0.0, 1),  # strictly inside
    ([(1, 0), (-1, -1), (0, 1)], 0.0, 1),  # the other orientation
    ([(1, 0), (0, 1), (1, 1)], 0.0, -1),  # outside
    ([(1, 0), (-1, 0), (0, 1)], 0.0, 0),  # on an edge
    ([(0, 0), (1, 0), (0, 1)], 0.0, 0),  # a zero vector: the origin is a vertex
    ([(1, 0), (2, 0), (0, 1)], 0.0, -1),  # two in one direction, the third off their line
    ([(1, 1), (2, 2), (-1, -1)], 0.0, 0),  # one line through the origin, both ways
    ([(1, 1), (2, 2), (3, 3)], 0.0, -1),  # one line through the origin, one way
    ([(0, 0), (0, 0), (0, 0)], 0.0, 0),
    ([(1.0, -1e-12), (-1.0, 0.0), (0.0, 1.0)], 0.0, 1),
    ([(1.0, -1e-12), (-1.0, 0.0), (0.0, 1.0)], 1e-9, 0),  # a cross product within tol
    ([(1.0, 1e-12), (-1.0, 0.0), (0.0, 1.0)], 0.0, -1),
    ([(1.0, 1e-12), (-1.0, 0.0), (0.0, 1.0)], 1e-9, 0),
    ([(1.0, 0.0), (-1.0, 1e-12), (2.0, 0.0)], 0.0, -1),
    ([(1.0, 0.0), (-1.0, 1e-12), (2.0, 0.0)], 1e-9, 0),  # all three within tol, a dot < 0
    ([(1.0, 0.0), (2.0, 1e-12), (3.0, 0.0)], 1e-9, -1),  # all three within tol, every dot > 0
    ([(1e-12, 0.0), (1.0, 0.0), (2.0, 0.0)], 0.0, -1),
    ([(1e-12, 0.0), (1.0, 0.0), (2.0, 0.0)], 1e-9, 0),  # a dot within tol
])
def test_origin_position_table(pts, tol, expected):
    assert origin_position(pts, tol) == expected


def test_origin_position_matches_the_reference():
    # small integer coordinates, so degenerate triangles come up often
    rng = random.Random(17)
    for _ in range(3000):
        p, a, b, c = (Vec2(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4))
        pts = _moved(p, a, b, c)
        got = origin_position(pts)
        assert (got >= 0) == point_in_triangle(p, a, b, c)
        assert (got == 1) == brute_origin_strictly_inside([Vec2(x, y) for x, y in pts])
