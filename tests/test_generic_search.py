"""`make_generic` draws each family once and checks it in one pass.

The pass is `norms.shared_edge_value`; here it is checked against a brute
force over `edge_functionals` and the exact sums, and the whole procedure against
`oracles.ref_make_generic`, the former search that rejection-sampled one
vector at a time on `Fraction` keys. Where that search accepts every
vector's first candidate, both consume the rng alike and must return the
same family.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helly_plane.algorithms import make_generic
from helly_plane.generators import gen_random_ball
from helly_plane.norms import edge_functionals, make_polygonal_ball, shared_edge_value, square_ball
from helly_plane.suites import SuiteConfig, _ball_source, draw_instance
from helly_plane.vectors import Vec2, vsum

from oracles import ref_make_generic, same
from test_report_digests import BALL_FILE, RANDOM_BALL_FILE

F = Fraction

# (ball source, mode, draws): 3200 generic-suite draws in all
CORPUS = [
    ("random", "exact", 1000),
    ("maxnorm", "exact", 600),
    ("hexagon", "exact", 400),
    ("hexagon", "float", 400),
    ("ten-gon", "exact", 400),
    ("ten-gon", "float", 400),
]
FILES = {"hexagon": BALL_FILE, "ten-gon": RANDOM_BALL_FILE}


@pytest.mark.parametrize("source, mode, draws", CORPUS, ids=[f"{s}-{m}" for s, m, _ in CORPUS])
def test_make_generic_equals_the_former_search_on_suite_draws(tmp_path, source, mode, draws):
    if source in FILES:
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(FILES[source]))
        source = str(path)
    config = SuiteConfig(suite="generic", trials=draws, seed=9173, mode=mode, ball_source=source)
    balls = _ball_source(config)
    for index in range(draws):
        inst = draw_instance(config, index, balls)
        lam, eps, seed = inst.data
        got = make_generic(inst.ball, inst.vectors, lam, eps, seed)
        assert same(got, ref_make_generic(inst.ball, inst.vectors, lam, eps, seed)), index


def _brute_values(ball, vectors, k) -> dict:
    """subset -> the set of its exact sum's values under the edge functionals,
    for every subset of at most k vectors, the empty one included: a float
    coordinate is the dyadic rational it denotes, and is summed exactly."""
    normals = edge_functionals(ball)
    exact = [Vec2(F(v.x), F(v.y)) for v in vectors]
    return {
        t: {n.dot(vsum(exact[i] for i in t)) for n in normals}
        for j in range(k + 1)
        for t in combinations(range(len(vectors)), j)
    }


# rational balls, and the `--ball FILE` hexagon read exactly and in floats
BALLS = [square_ball(), gen_random_ball(5)] + [
    make_polygonal_ball([Vec2(kind(x), kind(y)) for x, y in BALL_FILE["vertices"]])
    for kind in (F, float)
]
# few distinct coordinates, so repeated vectors, the zero vector and
# shared values come up often
rationals = st.sampled_from([F(0), F(1, 2), F(-1, 2), F(1, 3), F(-2, 3), F(1), F(7, 10)])
floats = st.sampled_from([0.0, 0.5, -0.5, 0.1, -0.3, 0.7, 1e-3])


@st.composite
def families(draw):
    coords = draw(st.sampled_from([rationals, floats]))
    base = draw(st.lists(st.builds(Vec2, coords, coords), min_size=1, max_size=4))
    # unperturbed repeats of the drawn vectors
    return draw(st.lists(st.sampled_from(base), min_size=0, max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BALLS), families(), st.integers(0, 5))
# the float sums of (0, 1) and (0, 2) round onto one value, the exact sums do not
@example(BALLS[1], [Vec2(-0.3, 0.0), Vec2(0.5, 0.5), Vec2(0.1, -0.5)], 2)
def test_shared_edge_value_finds_a_shared_value_exactly_when_one_exists(ball, vectors, k):
    values = _brute_values(ball, vectors, k)
    shared = any(a & b for a, b in combinations(values.values(), 2))
    found = shared_edge_value(ball, vectors, k)
    assert (found is not None) == shared
    if found is not None:
        a, b = found
        assert a != b and a in values and b in values
        assert values[a] & values[b]


def test_shared_edge_value_on_families_that_collide():
    square = square_ball()
    # the zero vector shares 0 with the empty subset
    assert shared_edge_value(square, [Vec2(0, 0)], 5) == ((), (0,))
    # a repeated vector: its two singletons share every value
    v = Vec2(F(1, 3), F(1, 7))
    assert shared_edge_value(square, [v, v], 1) == ((0,), (1,))
    # (1/2, 1/4) under x and (1/4, 1/2) under y, another edge, share 1/2
    assert shared_edge_value(square, [Vec2(F(1, 2), F(1, 4)), Vec2(F(1, 4), F(1, 2))], 1) == ((0,), (1,))
    # the third vector is v + w; subsets larger than k are not compared
    w = Vec2(F(2, 9), F(1, 11))
    assert shared_edge_value(square, [v, w, v + w], 1) is None
    assert shared_edge_value(square, [v, w, v + w], 2) == ((2,), (0, 1))
