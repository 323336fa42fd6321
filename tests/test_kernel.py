"""Property tests of the compiled integer kernel against plain references.

Balls are drawn with denominators off the 1/1000 grid of the generators
(1/3, 1/7, 1/1001) as well as with integer vertices. The references are the
definitions the kernel replaces: the ray-boundary gauge oracle, the float
edge-functional maximum, `gauge` of a `vsum`, and a `Fraction`
monotone chain kept here.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import assume, given
from hypothesis import strategies as st

from helly_plane.errors import DegenerateHull
from helly_plane.generators import gen_asymmetric_body
from helly_plane.geometry import convex_hull, orientation
from helly_plane.norms import (
    ball_from_json,
    ball_to_json,
    boundary_point,
    euclidean_ball,
    gauge,
    subset_gauges,
    symmetric_hull,
)
from helly_plane.vectors import Vec2, vsum

from oracles import ray_gauge

DENOMINATORS = (1, 3, 7, 1000, 1001)


@st.composite
def rationals(draw, bound=3):
    d = draw(st.sampled_from(DENOMINATORS))
    return Fraction(draw(st.integers(-bound * d, bound * d)), d)


integers = st.integers(-3, 3)
rational_points = st.builds(Vec2, rationals(), rationals())
integer_points = st.builds(Vec2, integers, integers)
float_points = st.builds(
    Vec2,
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)


@st.composite
def balls(draw):
    points = st.one_of(rational_points, integer_points)
    try:
        return symmetric_hull(draw(st.lists(points, min_size=2, max_size=6)))
    except DegenerateHull:
        assume(False)


def subsets(n):
    return [t for k in range(1, n + 1) for t in combinations(range(n), k)]


def reference_hull(points):
    """The Fraction monotone chain on Vec2, as it was before the lattice kernel."""
    pts = [Vec2(x, y) for x, y in sorted({(p.x, p.y) for p in points})]
    if len(pts) <= 2:
        return pts

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and orientation(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    hull = build(pts)[:-1] + build(list(reversed(pts)))[:-1]
    return hull if len(hull) >= 3 else [pts[0], pts[-1]]


@given(ball=balls(), z=rational_points)
def test_integer_gauge_matches_ray_oracle(ball, z):
    g = gauge(ball, z)
    assert isinstance(g, Fraction)
    assert g == ray_gauge(ball, z)


@given(seed=st.integers(0, 2**32 - 1), z=rational_points)
def test_body_gauge_matches_ray_oracle(seed, z):
    # an asymmetric body's gauge is still the maximum of its edge functionals
    body = gen_asymmetric_body(seed)
    assert gauge(body, z) == ray_gauge(body, z)
    assume(not z.is_zero())
    assert gauge(body, boundary_point(body, z)) == 1


@given(ball=balls(), z=float_points)
def test_float_gauge_is_bitwise_edge_maximum(ball, z):
    expected = max(float(e.p) * z.x + float(e.q) * z.y for e in ball.edges)
    assert gauge(ball, z).hex() == expected.hex()


@given(ball=balls(), vectors=st.lists(rational_points, min_size=1, max_size=6))
def test_subset_gauges_rational(ball, vectors):
    got = list(subset_gauges(ball, vectors, subsets(len(vectors))))
    assert got == [(t, gauge(ball, vsum(vectors[i] for i in t))) for t in subsets(len(vectors))]


@given(ball=balls(), vectors=st.lists(float_points, min_size=1, max_size=6))
def test_subset_gauges_float_bitwise(ball, vectors):
    for t, g in subset_gauges(ball, vectors, subsets(len(vectors))):
        assert g.hex() == gauge(ball, vsum(vectors[i] for i in t)).hex()


families = st.one_of(
    st.lists(rational_points, min_size=1, max_size=5),
    st.lists(float_points, min_size=1, max_size=5),
)


@given(vectors=families)
def test_subset_gauges_euclidean(vectors):
    ball = euclidean_ball()
    for t, g in subset_gauges(ball, vectors, subsets(len(vectors))):
        assert g.hex() == gauge(ball, vsum(vectors[i] for i in t)).hex()


@given(ball=balls(), z=st.one_of(rational_points, float_points), vectors=families)
def test_float_vertex_ball(ball, z, vectors):
    fball = ball_from_json(ball_to_json(ball), "float")
    assert fball.normals is None
    expected = max(e.p * float(z.x) + e.q * float(z.y) for e in fball.edges)
    assert gauge(fball, z).hex() == expected.hex()
    for t, g in subset_gauges(fball, vectors, subsets(len(vectors))):
        assert g.hex() == gauge(fball, vsum(vectors[i] for i in t)).hex()


@given(
    points=st.one_of(
        st.lists(rational_points, min_size=1, max_size=12),
        st.lists(integer_points, min_size=1, max_size=12),
        st.lists(float_points, min_size=1, max_size=12),
    )
)
def test_convex_hull_matches_fraction_chain(points):
    assert convex_hull(points) == reference_hull(points)
