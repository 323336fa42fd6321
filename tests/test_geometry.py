import random
from fractions import Fraction

from helly_plane.geometry import point_in_triangle
from helly_plane.vectors import Vec2

from oracles import brute_extreme_points, convex_hull

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


def test_point_in_triangle_degenerate():
    a, b, c = Vec2(0, 0), Vec2(2, 2), Vec2(1, 1)
    assert point_in_triangle(Vec2(1, 1), a, b, c)
    assert not point_in_triangle(Vec2(3, 3), a, b, c)
    assert not point_in_triangle(Vec2(1, 0), a, b, c)
    assert point_in_triangle(Vec2(1, 1), Vec2(1, 1), Vec2(1, 1), Vec2(1, 1))
