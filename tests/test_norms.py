import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helly_plane.errors import (
    BadInput,
    NotConvexBody,
    NotPolygonal,
    NotSymmetric,
    ZeroDirection,
)
from helly_plane.generators import antipodal_pair_on_boundary, gen_random_ball
from helly_plane.norms import (
    ball_from_json,
    ball_to_json,
    boundary_point,
    edge_functionals,
    euclidean_ball,
    gauge,
    lattice_vertices,
    load_json,
    load_vectors,
    make_convex_body,
    make_polygonal_ball,
    square_ball,
)
from helly_plane.vectors import Vec2

from oracles import ray_gauge

F = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=60)


def test_square_ball_canonical_order(square):
    assert square.vertices == (Vec2(1, 1), Vec2(-1, 1), Vec2(-1, -1), Vec2(1, -1))


def test_make_ball_accepts_shuffled_redundant_input(square):
    messy = [
        Vec2(-1, -1),
        Vec2(1, 1),
        Vec2(0, 1),  # interior of an edge: dropped
        Vec2(1, -1),
        Vec2(-1, 1),
        Vec2(1, 1),  # duplicate
    ]
    assert make_polygonal_ball(messy).vertices == square.vertices


def test_degenerate_segment_rejected():
    with pytest.raises(NotConvexBody):
        make_polygonal_ball([Vec2(1, 0), Vec2(-1, 0)])


def test_asymmetric_rejected():
    with pytest.raises(NotSymmetric):
        make_polygonal_ball([Vec2(2, -1), Vec2(-2, -1), Vec2(0, 2), Vec2(0, -2)])


def test_hexagon_construction(hexagon):
    assert len(hexagon.vertices) == 6
    assert hexagon.vertices[0] == Vec2(1, 1)
    for v in hexagon.vertices:
        assert gauge(hexagon, v) == 1


def test_gauge_square_examples(square):
    assert gauge(square, Vec2(0, F(1, 2))) == F(1, 2)
    assert gauge(square, Vec2(1, 1)) == 1
    assert gauge(square, Vec2(0, 0)) == 0


def test_gauge_hexagon_matches_ray_oracle(hexagon):
    z = Vec2(0, F(7, 5))
    expected = ray_gauge(hexagon, z)
    assert expected == F(91, 85)  # frozen from the oracle
    assert gauge(hexagon, z) == expected
    assert abs(float(gauge(hexagon, z)) - 1.0706) < 1e-3


def test_gauge_oracle_equivalence_random():
    rng = random.Random(991)
    for trial in range(40):
        ball = gen_random_ball(trial)
        for _ in range(25):
            z = Vec2(
                F(rng.randint(-2000, 2000), 1000), F(rng.randint(-2000, 2000), 1000)
            )
            if z.is_zero():
                continue
            assert gauge(ball, z) == ray_gauge(ball, z)


def test_gauge_euclidean(euclid):
    assert abs(gauge(euclid, Vec2(3.0, 4.0)) - 5.0) < 1e-12


@given(
    x=rationals,
    y=rationals,
    t=st.fractions(min_value=-4, max_value=4, max_denominator=20),
)
def test_gauge_homogeneity_and_symmetry(hexagon, x, y, t):
    z = Vec2(x, y)
    assert gauge(hexagon, z.scale(t)) == abs(t) * gauge(hexagon, z)
    assert gauge(hexagon, -z) == gauge(hexagon, z)


def test_triangle_inequality_random_pairs():
    rng = random.Random(7)
    for seed in range(4):
        ball = gen_random_ball(seed + 100)
        for _ in range(2500):
            x = Vec2(F(rng.randint(-999, 999), 500), F(rng.randint(-999, 999), 500))
            y = Vec2(F(rng.randint(-999, 999), 500), F(rng.randint(-999, 999), 500))
            assert gauge(ball, x + y) <= gauge(ball, x) + gauge(ball, y)


def test_edge_functionals_square(square):
    got = {(n.x, n.y) for n in edge_functionals(square)}
    assert got == {(0, 1), (0, -1), (1, 0), (-1, 0)}


def test_edge_functionals_parallelogram():
    ball = make_polygonal_ball([Vec2(1, 1), Vec2(-1, 1), Vec2(-1, -1), Vec2(1, -1)])
    got = {(n.x, n.y) for n in edge_functionals(ball)}
    assert got == {(0, 1), (0, -1), (1, 0), (-1, 0)}


def test_edge_functionals_hexagon_frozen(hexagon):
    # first edge [(1,1), (-3/10, 7/5)] solved by hand
    normals = edge_functionals(hexagon)
    assert normals[0] == Vec2(F(4, 17), F(13, 17))
    for i, n in enumerate(normals):
        a = hexagon.vertices[i]
        b = hexagon.vertices[(i + 1) % 6]
        assert n.dot(a) == 1 and n.dot(b) == 1
        assert n.dot(Vec2(0, 0)) == 0


def test_edge_functionals_euclidean_raises(euclid):
    with pytest.raises(NotPolygonal):
        edge_functionals(euclid)


def test_boundary_point(square, euclid):
    assert boundary_point(square, Vec2(2, 0)) == Vec2(1, 0)
    assert boundary_point(square, Vec2(1, 1)) == Vec2(1, 1)
    b = boundary_point(euclid, Vec2(3.0, 4.0))
    assert abs(b.x - 0.6) < 1e-12 and abs(b.y - 0.8) < 1e-12
    with pytest.raises(ZeroDirection):
        boundary_point(square, Vec2(0, 0))


@pytest.mark.parametrize("ball", [square_ball(), euclidean_ball()], ids=["square", "euclidean"])
def test_boundary_point_of_a_subnormal_direction(ball):
    # 1 / gauge overflows to inf here, and inf times 0.0 is NaN
    assert boundary_point(ball, Vec2(5e-324, 0.0)) == Vec2(1.0, 0.0)


def test_boundary_point_at_the_ends_of_float_range():
    assert boundary_point(square_ball(), Vec2(1e-310, 1e-310)) == Vec2(1.0, 1.0)
    # |direction| overflows unless the coordinates are divided by the larger first
    w = boundary_point(euclidean_ball(), Vec2(1.7e308, 1.7e308))
    assert w.x == w.y and abs(math.hypot(w.x, w.y) - 1) <= 2**-52
    assert antipodal_pair_on_boundary(square_ball(), Vec2(0.0, 5e-324)) == (Vec2(-1.0, 0.0), Vec2(1.0, 0.0))


def test_boundary_point_divides_once(square):
    # x·(1/g) rounds twice and misses 1.0 for 82 of these k; x / g is exact
    for k in range(1, 1001):
        assert gauge(square, boundary_point(square, Vec2(float(k), 0.0))) == 1.0


def test_boundary_point_of_a_rational_direction_is_its_exact_fraction():
    rng = random.Random(35)
    for seed in range(20):
        ball = gen_random_ball(seed)
        for _ in range(20):
            d = Vec2(F(rng.randint(-50, 50), rng.randint(1, 30)), F(rng.randint(-50, 50), rng.randint(1, 30)))
            if d.is_zero():
                continue
            w = boundary_point(ball, d)
            assert w == d.scale(1 / gauge(ball, d)) and type(w.x) is type(w.y) is F
            assert gauge(ball, w) == 1


@pytest.mark.parametrize("ball", [square_ball(), euclidean_ball(), gen_random_ball(3)],
                         ids=["square", "euclidean", "random"])
@pytest.mark.parametrize("z", [Vec2(math.inf, 1.0), Vec2(F(1, 3), -math.inf), Vec2(-math.inf, math.inf)])
def test_gauge_of_an_infinite_coordinate_is_inf_on_every_ball(ball, z):
    assert gauge(ball, z) == math.inf


# the kinds of ball `gauge` and `boundary_point` dispatch on: integer
# normals (of a square given by rationals or by floats) and none
BAD_INPUT_BALLS = {
    "square": square_ball(),
    "float-square": make_polygonal_ball([Vec2(float(v.x), float(v.y)) for v in square_ball().vertices]),
    "euclidean": euclidean_ball(),
}
NOT_NUMBERS = [Vec2("a", 0), Vec2(0, "a"), Vec2("1", "0"), Vec2(1.0, "0"), Vec2(Decimal(1), 0),
               Vec2(None, 1), Vec2(1j, 0), (1, 0)]


@pytest.mark.parametrize("ball", BAD_INPUT_BALLS, ids=list(BAD_INPUT_BALLS))
@pytest.mark.parametrize("direction", [Vec2(math.inf, 1.0), Vec2(1.0, -math.inf), Vec2(math.nan, 1.0),
                                       Vec2(0.0, math.nan)] + NOT_NUMBERS)
def test_boundary_point_refuses_a_direction_that_is_not_finite_numbers(ball, direction):
    with pytest.raises(BadInput, match="plane vectors of finite numbers"):
        boundary_point(BAD_INPUT_BALLS[ball], direction)


@pytest.mark.parametrize("ball", BAD_INPUT_BALLS, ids=list(BAD_INPUT_BALLS))
@pytest.mark.parametrize("z", [Vec2(math.nan, 0.0), Vec2(1, math.nan), *NOT_NUMBERS])
def test_gauge_refuses_nan_and_non_number_coordinates(ball, z):
    with pytest.raises(BadInput, match="NaN|not a plane vector of numbers"):
        gauge(BAD_INPUT_BALLS[ball], z)


def test_gauge_keeps_an_infinite_coordinate():
    # what an overflowed float sum carries on to its verdict
    assert gauge(euclidean_ball(), Vec2(math.inf, 1.0)) == math.inf


def test_vertex_normalization_random_balls():
    for seed in range(30):
        ball = gen_random_ball(seed)
        assert len(ball.vertices) >= 4
        assert len(ball.vertices) % 2 == 0
        for v in ball.vertices:
            assert gauge(ball, v) == 1


# the symmetric hull conv{+-p} of points p is the ball of the points and their negations


def test_symmetric_hull_square(square):
    pts = [Vec2(1, 1), Vec2(-1, 1)]
    ball = make_polygonal_ball(pts + [-p for p in pts])
    assert ball.vertices == square.vertices


def test_symmetric_hull_degenerate():
    pts = [Vec2(1, 0), Vec2(2, 0)]
    with pytest.raises(NotConvexBody):
        make_polygonal_ball(pts + [-p for p in pts])


def test_symmetric_hull_hexagon():
    pts = [Vec2(1, 0), Vec2(0, 1), Vec2(1, 1)]
    ball = make_polygonal_ball(pts + [-p for p in pts])
    got = [(v.x, v.y) for v in ball.vertices]
    assert got == [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def test_symmetric_hull_contains_inputs():
    rng = random.Random(55)
    for _ in range(30):
        pts = [
            Vec2(F(rng.randint(-100, 100), 50), F(rng.randint(-100, 100), 50))
            for _ in range(5)
        ]
        try:
            ball = make_polygonal_ball(pts + [-p for p in pts])
        except NotConvexBody:
            continue
        vert_set = {(v.x, v.y) for v in ball.vertices}
        for p in pts:
            assert gauge(ball, p) <= 1
        for v in ball.vertices:
            assert (v.x, v.y) in {(p.x, p.y) for p in pts} | {(-p.x, -p.y) for p in pts}


def test_ball_json_roundtrip(square, hexagon, euclid):
    for ball in (square, hexagon, euclid):
        doc = ball_to_json(ball)
        back = ball_from_json(doc)
        assert back.kind == ball.kind
        assert back.vertices == ball.vertices


def test_json_numbers_are_read_as_written(tmp_path):
    # a JSON number is its text's exact value: neither rounded to the float
    # 0.1 (whose shortest numeral is "0.1") nor overflowed to inf
    near = tmp_path / "near.json"
    near.write_text('{"vectors": [[0.1000000000000000055511151231257827, 1], [-2, 5E-1]]}')
    big = tmp_path / "big.json"
    big.write_text('{"type": "polygonal", "vertices": [[1e400, 0], [0, 1], [-1e400, 0], [0, -1]]}')
    vectors = load_vectors(load_json(str(near)))
    assert vectors == [Vec2(F(1000000000000000055511151231257827, 10**34), 1), Vec2(-2, F(1, 2))]
    assert vectors[0].x != F(1, 10)
    ball = ball_from_json(load_json(str(big)))
    assert (ball.vertices[0], ball.vertices[1]) == (Vec2(10**400, 0), Vec2(0, 1))
    assert gauge(ball, Vec2(10**400, 0)) == 1
    # a number's text is one numeral: neither a point list nor a pair of digits
    for text, message in (('{"vectors": 12}', "no 'vectors' list"), ('{"vectors": [12]}', "a pair of scalars")):
        near.write_text(text)
        with pytest.raises(BadInput, match=message):
            load_vectors(load_json(str(near)))


def test_ball_json_example():
    doc = {
        "type": "polygonal",
        "vertices": [["1", "1"], ["-1", "1"], ["-1", "-1"], ["1", "-1"]],
    }
    ball = ball_from_json(doc)
    assert gauge(ball, Vec2(F(1, 3), F(1, 7))) == F(1, 3)


def _mixed_point_sets():
    """Point lists with int or `Fraction` coordinates beside float ones; the
    random balls' lists are not symmetric as exact values."""
    pts = [Vec2(1, 0.25), Vec2(-0.5, 1), Vec2(-1, 0.75)]
    sets = [pts + [-v for v in pts], [Vec2(1, 1), Vec2(-1, 1), Vec2(-1, -1), Vec2(1.0, -1)]]
    for seed in (0, 5, 20240611):
        vertices = list(gen_random_ball(seed).vertices)
        sets.append([Vec2(float(v.x), v.y) if i % 2 else v for i, v in enumerate(vertices)])
    return sets


# a symmetric 4-gon and a fifth point that is on an edge as decimals; as
# the dyadic rational each float denotes it is just inside (ON_EDGE) or just
# outside (OFF_EDGE), which float orientation tests get wrong
ON_EDGE = [Vec2(-0.5, -0.6), Vec2(0.5, 0.6), Vec2(-0.4, -0.2), Vec2(0.4, 0.2), Vec2(-0.23, -0.36)]
OFF_EDGE = [Vec2(0.3, -0.1), Vec2(-0.3, 0.1), Vec2(-0.9, -0.8), Vec2(0.9, 0.8), Vec2(0.66, 0.44)]


def test_a_float_point_just_inside_an_edge_leaves_the_symmetric_4_gon():
    ball = make_polygonal_ball(ON_EDGE)
    assert ball.symmetric and sorted(ball.vertices.floats()) == sorted((v.x, v.y) for v in ON_EDGE[:4])
    assert gauge(ball, Vec2(F(-0.23), F(-0.36))) < 1


def test_a_float_point_just_outside_an_edge_is_not_symmetric():
    four = make_polygonal_ball(OFF_EDGE[:4])
    assert gauge(four, Vec2(F(0.66), F(0.44))) > 1
    with pytest.raises(NotSymmetric):
        make_polygonal_ball(OFF_EDGE)
    # read as decimals, the fifth point is on the edge: the 4-gon
    doc = {"type": "polygonal", "vertices": [[repr(v.x), repr(v.y)] for v in OFF_EDGE]}
    assert ball_from_json(doc).json_text == (
        '{"type":"polygonal","vertices":[["9/10","4/5"],["-3/10","1/10"],["-9/10","-4/5"],["3/10","-1/10"]]}'
    )


def _built(make, points):
    try:
        return make(points)
    except NotSymmetric as exc:
        return str(exc)


@pytest.mark.parametrize("make", [make_polygonal_ball, make_convex_body])
def test_mixed_coordinates_compile_on_their_exact_values(make):
    # a float is the dyadic rational it denotes, beside rationals kept as
    # they are: the polygon of the exact values, or the same refusal
    for points in _mixed_point_sets():
        got = _built(make, points)
        want = _built(make, [Vec2(F(v.x), F(v.y)) for v in points])
        assert type(got) is type(want)
        if isinstance(want, str):
            assert make is make_polygonal_ball and got == want
            continue
        assert got.normals is not None and got.normals == want.normals and got.den == want.den
        assert lattice_vertices(got) == lattice_vertices(want)
        assert ball_to_json(got) == ball_to_json(want)


@pytest.mark.parametrize("make", [make_polygonal_ball, make_convex_body])
def test_rational_hull_of_mixed_points_is_the_exact_polygon(make):
    # the float point is interior: the hull is the max-norm square, exactly
    points = list(square_ball().vertices) + [Vec2(0.5, 0.0)]
    got = make(points)
    assert lattice_vertices(got) is not None and got.normals is not None
    corners = [["-1", "-1"], ["-1", "1"], ["1", "-1"], ["1", "1"]]
    assert sorted(ball_to_json(got)["vertices"]) == corners
    assert gauge(got, Vec2(F(1, 2), 1)) == 1 and type(gauge(got, Vec2(1, 0))) is F
