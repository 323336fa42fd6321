import math
import random
from fractions import Fraction

import pytest

from helly_plane.errors import BadInput
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
from helly_plane import generators, norms
from helly_plane.norms import ConvexBody, euclidean_ball, gauge, make_convex_body, square_ball
from helly_plane.symmetry import is_centrally_symmetric
from helly_plane.vectors import Vec2, vsum

F = Fraction


def test_unit_vectors_exact_gauge():
    for seed in range(20):
        ball = gen_random_ball(seed)
        for v in gen_unit_vectors(ball, 6, seed * 3 + 1):
            g = gauge(ball, v)
            assert g == 1 and isinstance(g, Fraction)


def test_unit_vectors_halfplane_exact():
    rng = random.Random(5)
    for seed in range(20):
        ball = gen_random_ball(seed + 40)
        u = gen_direction(rng)
        for v in gen_unit_vectors(ball, 6, seed, halfplane=u):
            assert u.dot(v) >= 0
            assert gauge(ball, v) == 1


def test_unit_vectors_euclidean():
    for v in gen_unit_vectors(euclidean_ball(), 5, 9, halfplane=Vec2(0.0, 1.0)):
        assert abs(gauge(euclidean_ball(), v) - 1.0) <= 1e-12
        assert v.y >= 0


def test_unit_vectors_bad_n():
    # a count that is not an int is bad input, as a bool count is in `run_suite`
    for ball in (square_ball(), euclidean_ball()):
        for n in (0, -1, 3.0, Fraction(3), "3", None, True):
            with pytest.raises(BadInput):
                gen_unit_vectors(ball, n, 1)


SEEDED = {
    "gen_random_ball": gen_random_ball,
    "gen_unit_vectors": lambda seed: gen_unit_vectors(square_ball(), 3, seed),
    "gen_unit_vectors-euclidean": lambda seed: gen_unit_vectors(euclidean_ball(), 3, seed),
    "gen_zero_sum_six": lambda seed: gen_zero_sum_six(square_ball(), seed),
    "gen_claim1_tuple": gen_claim1_tuple,
    "gen_collinear_family": lambda seed: gen_collinear_family(square_ball(), seed),
    "gen_symmetric_body": gen_symmetric_body,
    "gen_asymmetric_body": gen_asymmetric_body,
    "gen_euclidean_halfplane_instance": gen_euclidean_halfplane_instance,
}


@pytest.mark.parametrize("seed", [None, True, 1.5], ids=["none", "true", "float"])
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seed_that_is_not_an_int_is_bad_input(name, seed):
    # `random.Random(None)` would draw from OS entropy: a different instance each call
    SEEDED[name](3)  # an int seed is good
    with pytest.raises(BadInput, match="seed must be an int"):
        SEEDED[name](seed)


@pytest.mark.parametrize("halfplane", [Vec2(math.nan, 1.0), Vec2(0, "1"), (0, 1)], ids=["nan", "str", "tuple"])
def test_unit_vectors_bad_halfplane_is_bad_input(halfplane):
    # a NaN direction would mirror no draw and leave the halfplane unmet
    for ball in (square_ball(), euclidean_ball()):
        with pytest.raises(BadInput, match="must be"):
            gen_unit_vectors(ball, 3, 0, halfplane=halfplane)


def test_unit_vectors_deterministic():
    ball = square_ball()
    assert gen_unit_vectors(ball, 5, 123) == gen_unit_vectors(ball, 5, 123)
    assert gen_unit_vectors(ball, 5, 123) != gen_unit_vectors(ball, 5, 124)


def test_random_ball_valid_and_deterministic():
    for seed in range(25):
        ball = gen_random_ball(seed)
        assert 4 <= len(ball.vertices) <= 12
        assert len(ball.vertices) % 2 == 0
        coords = {(v.x, v.y) for v in ball.vertices}
        assert coords == {(-x, -y) for x, y in coords}
        for v in ball.vertices:
            assert gauge(ball, v) == 1
    assert gen_random_ball(7).vertices == gen_random_ball(7).vertices


def test_zero_sum_six():
    for seed in range(30):
        ball = gen_random_ball(seed)
        zs = gen_zero_sum_six(ball, seed * 7 + 3)
        assert len(zs) == 6
        assert vsum(zs).is_zero()
        for z in zs:
            assert gauge(ball, z) <= 1
    ball = gen_random_ball(3)
    assert gen_zero_sum_six(ball, 11) == gen_zero_sum_six(ball, 11)


def test_zero_sum_six_scaled_ball_homogeneity():
    ball = gen_random_ball(4)
    doubled = square_ball()  # a different ball entirely; sanity only
    zs = gen_zero_sum_six(ball, 8)
    scaled = [z.scale(F(1, 2)) for z in zs]
    assert vsum(scaled).is_zero()
    for z in scaled:
        assert gauge(ball, z) <= F(1, 2)


def test_claim1_tuple():
    for seed in range(40):
        xs = gen_claim1_tuple(seed)
        assert len(xs) == 6
        assert sum(xs) == 0
        assert all(abs(x) <= 1 for x in xs)


def test_collinear_family():
    ball = square_ball()
    for seed in range(20):
        vectors, xs = gen_collinear_family(ball, seed)
        assert len(vectors) == len(xs)
        pivot = vectors[0]
        for v, x in zip(vectors, xs):
            assert pivot.cross(v) == 0
            assert gauge(ball, v) == abs(x) <= 1


def test_symmetric_and_asymmetric_bodies():
    for seed in range(20):
        assert is_centrally_symmetric(gen_symmetric_body(seed))
        assert not is_centrally_symmetric(gen_asymmetric_body(seed))


def test_symmetric_body_is_compiled_once(monkeypatch):
    # the drawn polygon is compiled as a body directly, never as a ball first
    compile_lattice = norms.compile_lattice
    compiled = []

    def counting(pairs, scale, cls):
        body = compile_lattice(pairs, scale, cls)
        compiled.append(cls)
        return body

    # the one compiler, at every binding site
    monkeypatch.setattr(norms, "compile_lattice", counting)
    monkeypatch.setattr(generators, "compile_lattice", counting)
    for seed in range(20):
        compiled.clear()
        body = gen_symmetric_body(seed)
        assert compiled == [ConvexBody]
        # the same polygon, in the same vertex order, as gen_random_ball(seed)
        assert body.vertices == make_convex_body(list(gen_random_ball(seed).vertices)).vertices


def test_euclidean_halfplane_instance():
    for seed in range(20):
        vectors, u = gen_euclidean_halfplane_instance(seed)
        assert len(vectors) % 2 == 1
        for v in vectors:
            assert u.dot(v) >= -1e-12


def test_antipodal_pair():
    ball = square_ball()
    u = Vec2(0, 1)
    w, nw = antipodal_pair_on_boundary(ball, u)
    assert nw == -w
    assert u.dot(w) == 0
    assert gauge(ball, w) == 1


RANGE_SIZES = (1, 2, 4, 12, 1000, 1001, 2001)


def test_randint_reads_the_same_stream_as_random():
    # the draw helper returns what randint/randrange return and leaves the
    # generator in the same state, draw after draw, on ranges of every size
    # the generators use (a power of two and one either side of it included)
    for seed in range(40):
        for size in RANGE_SIZES:
            for lo in (0, -(size // 2), 7):
                ours, ref = random.Random(seed), random.Random(seed)
                for _ in range(25):
                    assert generators._randint(ours, lo, lo + size - 1) == ref.randint(
                        lo, lo + size - 1
                    )
                    if lo == 0:
                        assert generators._randint(ours, 0, size - 1) == ref.randrange(size)
                assert ours.getstate() == ref.getstate()
