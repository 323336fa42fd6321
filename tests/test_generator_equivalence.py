"""The lattice generators reproduce the `Fraction`-arithmetic ones exactly.

Each generator is run beside its reference in `oracles` on the same seeds
and balls, and every output must be equal in value and in type: a
`Fraction` where the reference gave a `Fraction`, the same float bits
where it gave a float. Balls cover random polygons, the max-norm ball, a
hexagon, a thin ball, balls given by float vertices (the exact polygons of
their dyadic values) and the Euclidean ball.
"""

import random
from fractions import Fraction

import pytest

import oracles
from oracles import same
from helly_plane import generators
from helly_plane.generators import (
    antipodal_pair_on_boundary,
    gen_asymmetric_body,
    gen_claim1_tuple,
    gen_collinear_family,
    gen_direction,
    gen_euclidean_halfplane_instance,
    gen_random_ball,
    gen_symmetric_body,
    gen_unit_vectors,
    gen_zero_sum_six,
)
from helly_plane.geometry import Family
from helly_plane.norms import (
    ConvexBody,
    boundary_point,
    euclidean_ball,
    gauge,
    lattice_vertices,
    make_polygonal_ball,
    square_ball,
)
from helly_plane.vectors import Vec2

F = Fraction
SEEDS = range(60)


def same_polygon(new, ref) -> bool:
    """The same class, vertex cycle and compiled edge normals."""
    return (
        type(new) is type(ref)
        and same(new.vertices, ref.vertices)
        and (new.normals, new.den) == (ref.normals, ref.den)
    )


def _hexagon():
    pts = [Vec2(1, 1), Vec2(F(-3, 10), F(7, 5)), Vec2(-1, 1)]
    return make_polygonal_ball(pts + [-p for p in pts])


def _thin():
    pts = [Vec2(1, F(1, 1000)), Vec2(F(-999, 1000), F(1, 997))]
    return make_polygonal_ball(pts + [-p for p in pts])


def _float_vertex():
    pts = [Vec2(0.7, 0.1), Vec2(-0.2, 0.9), Vec2(-0.55, 0.35)]
    return make_polygonal_ball(pts + [-p for p in pts])


def _mixed_vertex():
    # integer and float coordinates in one ball: the exact polygon of their values
    pts = [Vec2(1, 0.25), Vec2(-0.5, 1), Vec2(-1, 0.75)]
    return make_polygonal_ball(pts + [-p for p in pts])


FIXED = {
    "maxnorm": square_ball,
    "hexagon": _hexagon,
    "thin": _thin,
    "float-vertex": _float_vertex,
    "float-of-random": lambda: oracles.float_vertex_ball(gen_random_ball(5)),
    "mixed-vertex": _mixed_vertex,
    "euclidean": euclidean_ball,
}


def ball_pairs():
    """(name, ball for the generator, ball for the reference) pairs."""
    pairs = []
    for name, make in FIXED.items():
        ball = make()
        pairs.append((name, ball, ball))
    for seed in (0, 1, 7, 20240611):
        pairs.append((f"random-{seed}", gen_random_ball(seed), oracles.ref_gen_random_ball(seed)))
    return pairs


BALLS = ball_pairs()
IDS = [name for name, _, _ in BALLS]


@pytest.mark.parametrize("seed", range(200))
def test_random_ball(seed):
    assert same_polygon(gen_random_ball(seed), oracles.ref_gen_random_ball(seed))


def test_symmetric_and_asymmetric_bodies():
    for seed in range(100):
        body = gen_symmetric_body(seed)
        assert type(body) is ConvexBody
        assert same_polygon(body, oracles.ref_gen_symmetric_body(seed))
        assert same_polygon(gen_asymmetric_body(seed), oracles.ref_gen_asymmetric_body(seed))


@pytest.mark.parametrize("name, ball, ref", BALLS, ids=IDS)
def test_unit_vectors(name, ball, ref):
    rng = random.Random(name)
    for seed in SEEDS:
        n = 1 + seed % 9
        assert same(gen_unit_vectors(ball, n, seed), oracles.ref_gen_unit_vectors(ref, n, seed))
        d = gen_direction(rng)[0]
        for u in (d, Vec2(float(d.x), float(d.y))):
            assert same(
                gen_unit_vectors(ball, n, seed, halfplane=u),
                oracles.ref_gen_unit_vectors(ref, n, seed, halfplane=u),
            )


def test_unit_vectors_on_the_halfplane_line():
    # u.v == 0 exactly keeps v: on the max-norm ball with u = (0, 1) that is
    # the draw r = 500 on a vertical edge: 4 of these 9000 vectors
    ball, u = square_ball(), Vec2(0, 1)
    ties = 0
    for seed in range(1000):
        vectors = gen_unit_vectors(ball, 9, seed, halfplane=u)
        assert same(vectors, oracles.ref_gen_unit_vectors(ball, 9, seed, halfplane=u))
        ties += sum(v.y == 0 for v in vectors)
    assert ties > 0


@pytest.mark.parametrize("name, ball, ref", BALLS, ids=IDS)
def test_unit_vectors_float_halfplane(name, ball, ref):
    # a float direction flips by the float dot product, as before
    rng = random.Random(name)
    for seed in SEEDS:
        u = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert same(
            gen_unit_vectors(ball, 7, seed, halfplane=u),
            oracles.ref_gen_unit_vectors(ref, 7, seed, halfplane=u),
        )


@pytest.mark.parametrize("name, ball, ref", BALLS, ids=IDS)
def test_zero_sum_six(name, ball, ref):
    for seed in SEEDS:
        assert same(gen_zero_sum_six(ball, seed), oracles.ref_gen_zero_sum_six(ref, seed))


def test_zero_sum_six_closing_on_the_sphere():
    # the closing vector is accepted at gauge exactly 1 (closed ball) at these seeds
    ball = square_ball()
    for seed in (115, 860, 1698, 1859, 2307, 2350):
        six = gen_zero_sum_six(ball, seed)
        assert same(six, oracles.ref_gen_zero_sum_six(ball, seed))
        assert gauge(ball, six[5]) == 1


@pytest.mark.parametrize("draws", [0, 1, 3])
@pytest.mark.parametrize("name, ball, ref", BALLS, ids=IDS)
def test_zero_sum_six_fallback(name, ball, ref, draws, monkeypatch):
    # a small draw budget sends many seeds to the +- triple fallback
    monkeypatch.setattr(generators, "_ZERO_SUM_DRAWS", draws)
    monkeypatch.setattr(oracles, "ZERO_SUM_DRAWS", draws)
    for seed in range(20):
        assert same(gen_zero_sum_six(ball, seed), oracles.ref_gen_zero_sum_six(ref, seed))


@pytest.mark.parametrize("name, ball, ref", BALLS, ids=IDS)
def test_collinear_family(name, ball, ref):
    for seed in range(30):
        assert same(gen_collinear_family(ball, seed), oracles.ref_gen_collinear_family(ref, seed))


def test_claim1_tuple_and_direction():
    for seed in range(300):
        assert same(gen_claim1_tuple(seed), oracles.ref_gen_claim1_tuple(seed))
        assert same(gen_direction(random.Random(seed))[0], oracles.ref_gen_direction(random.Random(seed)))


def test_direction_is_the_former_draw():
    # a one-point lattice family whose vector is the former `Vec2`, drawn
    # off the same stream: the generator is left in the same state, draw
    # after draw
    for seed in range(2000):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            u = gen_direction(rng)
            assert type(u) is Family and len(u) == 1 and u.scale is not None
            assert same(u[0], oracles.ref_gen_direction(ref))
        assert rng.getstate() == ref.getstate()


def _former_antipodal_pair(ball, u):
    w = boundary_point(ball, u.perp())
    return w, -w


@pytest.mark.parametrize("name, ball, ref", BALLS, ids=IDS)
def test_antipodal_pair_is_the_former_boundary_pair(name, ball, ref):
    # drawn directions, their float copies, and directions whose normal u⊥
    # points at a vertex (or along an edge's normal, for u a vertex)
    rng = random.Random(name)
    drawn = [gen_direction(rng)[0] for _ in range(40)]
    directions = drawn + [Vec2(float(d.x), float(d.y)) for d in drawn]
    directions += [v for v in ball.vertices] + [Vec2(v.y, -v.x) for v in ball.vertices]
    for u in directions:
        pair, want = antipodal_pair_on_boundary(ball, u), _former_antipodal_pair(ball, u)
        assert type(pair) is Family and same(pair, want), u
        assert (pair.pts, pair.scale) == (Family(want).pts, Family(want).scale)
        assert same(antipodal_pair_on_boundary(ball, Family([u])), want)
    for u in drawn[:5]:  # a drawn direction, not read as a `Vec2`
        fam = Family.from_lattice(*Family([u]).exact())
        assert same(antipodal_pair_on_boundary(ball, fam), _former_antipodal_pair(ball, u))


@pytest.mark.parametrize("name, ball, ref", BALLS, ids=IDS)
def test_ball_points_are_the_former_zero_sum_draw(name, ball, ref):
    # each point, value and type, off the same stream as the reference's
    # point in the ball, and the whole draw the reference's zero-sum six
    grid = lattice_vertices(ball)
    for seed in range(300):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        count = 1 + seed % 5
        points = Family.from_lattice(*generators._ball_points(grid, rng, count))
        want = tuple([oracles._ref_point_in_ball(ref, ref_rng) for _ in range(count)])
        assert same(points, want)
        assert rng.getstate() == ref_rng.getstate()
        assert same(gen_zero_sum_six(ball, seed), oracles.ref_gen_zero_sum_six(ref, seed))


# the Euclidean draws write `rng.uniform(0.0, b)` out as `b * rng.random()`
DRAW_SEEDS = range(2000)


def _hex(pairs) -> list[tuple[str, str]]:
    return [(x.hex(), y.hex()) for x, y in pairs]


@pytest.mark.parametrize("draw, ref", [
    (generators._boundary_points, oracles.ref_euclidean_boundary_points),
    (generators._ball_points, oracles.ref_euclidean_ball_points),
], ids=["boundary", "ball"])
def test_euclidean_draws_are_the_former_uniform_draws(draw, ref):
    # the same floats, bit for bit, and the generator left in the same state
    for seed in DRAW_SEEDS:
        n = 1 + seed % 9
        rng, ref_rng = random.Random(seed), random.Random(seed)
        (pairs, den), (ref_pairs, ref_den) = draw(None, rng, n), ref(ref_rng, n)
        assert den is ref_den is None
        assert _hex(pairs) == _hex(ref_pairs)
        assert rng.getstate() == ref_rng.getstate()


def test_euclidean_halfplane_instance_is_the_former_draw(monkeypatch):
    # each generator seeded on the way (the instance's, then its vectors')
    # is kept, to compare its state after the draw
    made = []

    def kept(seed):
        made.append(random.Random(seed))
        return made[-1]

    monkeypatch.setattr(generators, "seeded_rng", kept)
    monkeypatch.setattr(oracles, "seeded_rng", kept)
    for seed in DRAW_SEEDS:
        made.clear()
        vectors, u = gen_euclidean_halfplane_instance(seed)
        ref_vectors, ref_u = oracles.ref_gen_euclidean_halfplane_instance(seed)
        assert _hex(vectors.pts) == _hex(ref_vectors.pts)
        assert (u.x.hex(), u.y.hex()) == (ref_u.x.hex(), ref_u.y.hex())
        assert len(made) == 4
        assert [r.getstate() for r in made[:2]] == [r.getstate() for r in made[2:]]
