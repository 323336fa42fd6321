"""A rational past float range is a `BadInput` wherever it is rounded.

Exact data has no range: the lattice holds any rational, and a ball given
by float vertices is the exact polygon they denote. Rounding to floats
happens on the Euclidean ball, in the rotation reduction and against a
float direction; there a coordinate, or the exact sum of coordinates each
in range, past the float maximum raises `BadInput`, never a bare
`OverflowError`. Float families keep their `inf`.
"""

import math
from fractions import Fraction

import pytest

from helly_plane.algorithms import choose_signs, ginzburg_reduce, make_generic
from helly_plane.errors import BadInput, EpsilonTooLarge, NotUnitVectors
from helly_plane.norms import euclidean_ball, gauge, make_polygonal_ball
from helly_plane.theorems import verify_helly, verify_theorem1
from helly_plane.vectors import Vec2

F = Fraction
BIG = Vec2(F(10**400), 0)
UP = Vec2(0, 1)

# the float hexagon of the `--ball FILE` digests, given by its float
# vertices: the exact polygon of their dyadic values
FLOAT_BALL = make_polygonal_ball([
    Vec2(0.7, 0.1), Vec2(-0.2, 0.9), Vec2(-0.55, 0.35),
    Vec2(-0.7, -0.1), Vec2(0.2, -0.9), Vec2(0.55, -0.35),
])
BALLS = {"euclidean": euclidean_ball(), "float-vertex": FLOAT_BALL}

CASES = {
    "gauge": lambda ball: gauge(ball, BIG),
    "helly": lambda ball: verify_helly(ball, [BIG, UP, -UP], strict=False),
    "theorem1": lambda ball: verify_theorem1(ball, [BIG, UP, -UP], UP),
    "theorem1, float u": lambda ball: verify_theorem1(ball, [BIG, UP, -UP], Vec2(0.0, 1.0)),
    "signs": lambda ball: choose_signs(ball, [BIG]),
    # each coordinate is in range, their exact total is not
    "helly, sum": lambda ball: verify_helly(ball, [Vec2(F(10**308), 0)] * 3, strict=False),
}


def _rounds(case: str, ball: str) -> bool:
    """Whether the case rounds a rational to floats: every case on the
    Euclidean ball, and on a polygon only against a float direction."""
    return ball == "euclidean" or case == "theorem1, float u"


@pytest.mark.parametrize("ball", BALLS, ids=list(BALLS))
@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_a_rational_past_float_range_is_bad_input(case, ball):
    if not _rounds(case, ball):
        try:  # decided exactly: BIG has an exact gauge, far past 1
            CASES[case](BALLS[ball])
        except NotUnitVectors:
            assert case == "signs"
        return
    with pytest.raises(BadInput, match="past float range"):
        CASES[case](BALLS[ball])


@pytest.mark.parametrize("vectors, u", [([BIG], UP), ([UP], BIG)], ids=["vector", "u"])
def test_rotation_reduction_rounds_past_float_range_to_bad_input(vectors, u):
    with pytest.raises(BadInput, match="past float range"):
        ginzburg_reduce(vectors, u)


def test_generic_on_a_float_vertex_ball_decides_a_rational_past_float_range_exactly():
    # BIG's exact gauge is far past 1, so its neighbourhood leaves the ball
    with pytest.raises(EpsilonTooLarge):
        make_generic(FLOAT_BALL, [BIG], F(1, 2), F(1, 100), seed=1)


def test_float_families_keep_their_inf():
    report = verify_helly(euclidean_ball(), [Vec2(1e308, 0.0)] * 3, strict=False)
    assert not report.hypothesis_holds
    assert report.total_norm == math.inf
    assert gauge(FLOAT_BALL, Vec2(1e308, 1e308)) == math.inf
    assert gauge(FLOAT_BALL, BIG) > 10**399  # exact
