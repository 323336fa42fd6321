"""The three-sum hypothesis is judged in one place.

`verify_helly` judges collinear families in the plane like any other, and
must agree with the line oracle `oracles.verify_helly_1d`, which judges
their signed lengths over the segment [-1, 1]; `corollary_check` takes its strict hypothesis from the
judge `verify_helly(strict=True)` uses. These properties pin the agreement
on arbitrary rational families.
"""

from fractions import Fraction

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from helly_plane.generators import gen_random_ball, gen_unit_vectors
from helly_plane.norms import boundary_point, make_polygonal_ball, square_ball
from helly_plane.theorems import corollary_check, verify_helly
from helly_plane.vectors import Vec2

from oracles import verify_helly_1d

BALLS = [
    square_ball(),
    make_polygonal_ball(
        [Vec2(1, 1), Vec2(Fraction(-3, 10), Fraction(7, 5)), Vec2(-1, 1),
         Vec2(-1, -1), Vec2(Fraction(3, 10), Fraction(-7, 5)), Vec2(1, -1)]
    ),
    gen_random_ball(3),
]

rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 10, 20]))
points = st.builds(Vec2, rationals, rationals)
odd_sizes = st.sampled_from([3, 5, 7])


# signed lengths in [-1, 1], with the unit ends and values above 1/3 common
# enough that both hypotheses hold on a fair share of families
lengths = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(9, 10), Fraction(1, 2)]),
    st.builds(Fraction, st.integers(-20, 20), st.just(20)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(BALLS),
    points.filter(lambda d: not d.is_zero()),
    odd_sizes.flatmap(lambda n: st.lists(lengths, min_size=n, max_size=n)),
    st.booleans(),
)
def test_collinear_families_agree_with_the_line_judge(ball, d, xs, strict):
    d = boundary_point(ball, d)
    plane = verify_helly(ball, [d.scale(x) for x in xs], strict)
    # xs are the signed lengths along d, so the plane judge's norms are their
    # absolute values
    line = verify_helly_1d(xs, strict)
    event(f"strict={strict}, hypothesis holds: {line.hypothesis_holds}")
    assert plane.hypothesis_holds == line.hypothesis_holds
    assert plane.conclusion_holds == line.conclusion_holds
    assert [w.subset for w in plane.witnesses] == [w.subset for w in line.witnesses]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(BALLS),
    st.sampled_from([5, 7]),
    st.integers(0, 2**32 - 1),
    points.filter(lambda u: not u.is_zero()),
    st.lists(st.sampled_from([Fraction(1), Fraction(9, 10), Fraction(3, 4), Fraction(1, 2)]),
             min_size=7, max_size=7),
)
def test_corollary_hypothesis_is_the_strict_three_sum_hypothesis(ball, n, seed, u, scales):
    # shrunk halfplane families: the strict hypothesis holds on about half
    vs = [v.scale(s) for v, s in zip(gen_unit_vectors(ball, n, seed, halfplane=u), scales)]
    assume(any(vs[0].cross(v) != 0 for v in vs))
    holds = corollary_check(ball, vs, 5).hypothesis_holds
    event(f"hypothesis holds: {holds}")
    assert holds == verify_helly(ball, vs, strict=True).hypothesis_holds
