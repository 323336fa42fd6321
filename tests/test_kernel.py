"""Property tests of the compiled integer kernel against plain references.

Balls are drawn with denominators off the 1/1000 grid of the generators
(1/3, 1/7, 1/1001) as well as with integer vertices. The references are the
definitions the kernel replaces: the edge functional solved on `Fraction`s,
the ray-boundary gauge oracle, `gauge` of a `vsum` (compared with 1 through
`scalars` for `SubsetSums.tests`), and a `Fraction` monotone chain kept here.
Float data on a polygon is checked against the exact reference of
`oracles`: the ray oracle's gauge of the exact dyadic sum, rounded once,
and each comparison decided on it within the band Fraction(tol).
"""

import math
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helly_plane import geometry, norms, scalars, suites
from helly_plane.algorithms import choose_signs, make_generic
from helly_plane.errors import NotConvexBody
from helly_plane.gallery import gallery_case
from helly_plane.generators import (
    gen_asymmetric_body, gen_random_ball, gen_unit_vectors, gen_zero_sum_six,
)
from helly_plane.norms import (
    SubsetSums,
    UnitBall,
    ball_to_json,
    boundary_point,
    compile_lattice,
    edge_functionals,
    euclidean_ball,
    gauge,
    lattice_vertices,
    make_convex_body,
    make_polygonal_ball,
    square_ball,
)
from helly_plane.scalars import eq, ge, gt, le
from helly_plane.suites import SuiteConfig
from helly_plane.theorems import (
    corollary_check, halfplane_certificate, lemma_conv_check, lemma_main_witness, verify_helly,
    verify_theorem1,
)
from helly_plane.vectors import Vec2, vsum

from oracles import (
    band, convex_hull, dyadic, edge_functional, exact_sum, float_vertex_ball, orientation,
    ray_gauge, rounded, same,
)

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

# the tolerances float data on a polygon is checked at against the exact
# reference: zero, the default, and bands up to and past the gauge itself
BANDS = [0.0, 1e-9, 1e-3, 1.0, 1e6]
BAND_TOLS = st.sampled_from(BANDS)


@st.composite
def balls(draw, points=st.one_of(rational_points, integer_points)):
    pts = draw(st.lists(points, min_size=2, max_size=6))
    try:
        return make_polygonal_ball(pts + [-p for p in pts])
    except NotConvexBody:
        assume(False)


@st.composite
def skinny_balls_with_axis(draw):
    """A thin ball and its long axis L: conv{±L, ±S}, S across L and m times
    shorter, with a corner L/2 + S or not. Its edge normals have |P| + |Q|
    about m times what a vector along L reaches, so `SubsetSums`' bound on
    |P·X + Q·Y| is far above the true reach along L."""
    a, b = draw(st.tuples(integers, integers).filter(lambda ab: ab != (0, 0)))
    m = draw(st.sampled_from([10**3, 10**6, 10**12 + 39]))
    axis, short = Vec2(a, b), Vec2(Fraction(-b, m), Fraction(a, m))
    corners = draw(st.sampled_from([[], [axis.scale(Fraction(1, 2)) + short]]))
    pts = [axis, short, *corners]
    return make_polygonal_ball(pts + [-p for p in pts]), axis


skinny_balls = skinny_balls_with_axis().map(lambda ball_axis: ball_axis[0])
# rational points far outside every drawn ball
far_points = st.builds(Vec2, st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))

# bodies: random asymmetric ones, and balls recompiled as bodies (hull order)
bodies = st.one_of(
    st.builds(gen_asymmetric_body, st.integers(0, 2**32 - 1)),
    balls().map(lambda ball: make_convex_body(list(ball.vertices))),
)


def edges(ball):
    """The (start, end) vertex pairs of the boundary, in edge order."""
    vs = ball.vertices
    return list(zip(vs, vs[1:] + vs[:1]))


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


@given(ball=st.one_of(balls(), balls(integer_points), bodies))
def test_edge_functionals_match_the_fraction_oracle(ball):
    normals = edge_functionals(ball)
    assert normals == [edge_functional(a, b) for a, b in edges(ball)]


@given(ball=balls())
def test_float_vertex_edge_functionals(ball):
    # a ball given by float vertices is the polygon of their dyadic values:
    # its functionals are exact
    fball = float_vertex_ball(ball)
    normals = edge_functionals(fball)
    assert all(type(c) is Fraction for n in normals for c in (n.x, n.y))
    assert normals == [edge_functional(a, b) for a, b in edges(fball)]


@given(ball=st.one_of(balls(), balls(integer_points)))
def test_lattice_ball_json_is_the_fraction_text(ball):
    # written from the integer vertex cycle before any vertex is formed,
    # byte for byte what the `Fraction` vertices print
    got = ball_to_json(ball)
    assert "vectors" not in vars(ball.vertices)
    assert got == {"type": "polygonal", "vertices": [v.to_json() for v in ball.vertices]}


def test_lattice_ball_forms_no_fraction_until_its_vertices_are_read(monkeypatch):
    formed = []

    def counted(*args):
        formed.append(args)
        return Fraction(*args)

    # a vertex `Fraction` is formed where the vertex `Family` forms its vectors
    for module in (norms, geometry):
        monkeypatch.setattr(module, "Fraction", counted)
    ball = gen_random_ball(11)
    same = compile_lattice(*lattice_vertices(ball), UnitBall)
    ball_to_json(same)
    assert (same.normals, same.den) == (ball.normals, ball.den)
    assert formed == []
    vertices = tuple(same.vertices)
    assert len(formed) == 2 * len(vertices)
    assert tuple(same.vertices) == vertices and same.vertices[0] is vertices[0]
    assert len(formed) == 2 * len(vertices)  # formed once
    assert same == ball and hash(same) == hash(ball) and repr(same) == repr(ball)


@given(ball=st.one_of(balls(), bodies), z=float_points)
def test_float_gauge_is_bitwise_edge_maximum(ball, z):
    # the exact edge maximum at z's dyadic value, rounded once
    exact = max(n.dot(dyadic(z)) for n in edge_functionals(ball))
    assert exact == ray_gauge(ball, dyadic(z))
    assert gauge(ball, z).hex() == float(exact).hex()


@given(ball=balls(), vectors=st.lists(rational_points, min_size=1, max_size=6))
def test_subset_gauges_rational(ball, vectors):
    got = list(SubsetSums(ball, vectors).gauges(subsets(len(vectors))))
    assert got == [(t, gauge(ball, vsum(vectors[i] for i in t))) for t in subsets(len(vectors))]


@given(
    ball=st.one_of(
        balls(), balls().map(float_vertex_ball),
        st.just(euclidean_ball()),
    ),
    vectors=st.lists(float_points, min_size=1, max_size=6),
    tol=BAND_TOLS,
)
def test_subset_gauges_float_bitwise(ball, vectors, tol):
    # on a polygon the exact gauge of each exact sum rounded once, on the
    # Euclidean ball `gauge` of the float sum, bit for bit
    ts = subsets(len(vectors))
    expected, _ = reference(ball, vectors, ts, tol)
    got = list(SubsetSums(ball, vectors).gauges(ts))
    assert [t for t, _ in got] == ts
    assert [g.hex() for _, g in got] == [g.hex() for g in expected]
    # the k-form walks the same float sums as the explicit form: the same
    # gauges bit for bit and the same answers, for every k
    sums = SubsetSums(ball, vectors)
    for k in range(len(vectors) + 1):
        ts = list(combinations(range(len(vectors)), k))
        kform, explicit = list(sums.gauges(k)), list(sums.gauges(ts))
        assert [t for t, _ in kform] == ts == [t for t, _ in explicit]
        assert [g.hex() for _, g in kform] == [g.hex() for _, g in explicit]
        for rel in (eq, le, ge, gt):
            assert list(sums.tests(k, rel, tol)) == list(sums.tests(ts, rel, tol))


families = st.one_of(
    st.lists(rational_points, min_size=1, max_size=5),
    st.lists(float_points, min_size=1, max_size=5),
    st.lists(st.one_of(rational_points, far_points), min_size=1, max_size=5),
)


@given(vectors=families)
def test_subset_gauges_euclidean(vectors):
    ball = euclidean_ball()
    for t, g in SubsetSums(ball, vectors).gauges(subsets(len(vectors))):
        assert g.hex() == gauge(ball, vsum(vectors[i] for i in t)).hex()


@given(ball=balls(), z=st.one_of(rational_points, float_points), vectors=families)
def test_float_vertex_ball(ball, z, vectors):
    # compiled on the lattice of its dyadic vertices: exact on rational data,
    # and on float data the exact gauge of the dyadic values rounded once
    fball = float_vertex_ball(ball)
    assert fball.normals is not None and lattice_vertices(fball) is not None
    if type(z.x) is float:
        assert gauge(fball, z).hex() == rounded(ray_gauge(fball, dyadic(z))).hex()
    else:
        assert gauge(fball, z) == ray_gauge(fball, z)
    ts = subsets(len(vectors))
    expected, _ = reference(fball, vectors, ts, 1e-9)
    assert same([g for _, g in SubsetSums(fball, vectors).gauges(ts)], expected)


@given(
    points=st.one_of(
        st.lists(rational_points, min_size=1, max_size=12),
        st.lists(integer_points, min_size=1, max_size=12),
        st.lists(float_points, min_size=1, max_size=12),
    )
)
def test_convex_hull_matches_fraction_chain(points):
    assert convex_hull(points) == reference_hull(points)


RELS = (eq, le, ge, gt)
# the exact meaning of each comparison with 1, and its tolerant one on a
# float gauge: the band Fraction(tol) on the float's exact value
EXACT = {eq: lambda g, tol: g == 1, le: lambda g, tol: g <= 1,
         ge: lambda g, tol: g >= 1, gt: lambda g, tol: g > 1}
TOLERANT = {rel: lambda g, tol, rel=rel: band(rel, Fraction(g), tol) for rel in RELS}
TOLS = st.sampled_from([1e-9, 0.0, 1e-3])


def mixed_vertices(ball):
    """The ball's vertex list with the x of every other vertex as a float."""
    return make_polygonal_ball(
        [Vec2(float(v.x), v.y) if i % 2 else v for i, v in enumerate(ball.vertices)]
    )


# every dispatch of the kernel: integer normals over a denominator or not,
# over the wide dyadic lattice of float vertices, the Euclidean ball, and
# bodies (no opposite edge pairs)
kernel_balls = st.one_of(
    balls(),
    balls(integer_points),
    balls().map(float_vertex_ball),
    balls(integer_points).map(mixed_vertices),
    st.just(square_ball()),
    st.just(euclidean_ball()),
    bodies,
    skinny_balls,
)


def floats_on_polygon(ball, vectors) -> bool:
    """Whether the kernel decides float data exactly: a polygon, and a
    family with a float coordinate."""
    return ball.is_polygonal and any(type(c) is float for v in vectors for c in (v.x, v.y))


def reference(ball, vectors, ts, tol):
    """The gauges of the sums of the subsets ts, and rel -> the answers of
    `SubsetSums.tests`. On a polygon and float data: the ray oracle's gauge
    of each exact dyadic sum, rounded once, and each answer decided on that
    exact gauge within the band Fraction(tol). Otherwise
    `gauge(ball, vsum(...))` and `rel(gauge, 1, tol)`."""
    if floats_on_polygon(ball, vectors):
        exact = [ray_gauge(ball, exact_sum(vectors, t)) for t in ts]
        return [rounded(g) for g in exact], lambda rel: [band(rel, g, tol) for g in exact]
    gauges = [gauge(ball, vsum(vectors[i] for i in t)) for t in ts]
    return gauges, lambda rel: [rel(g, 1, tol) for g in gauges]


def assert_sphere_tests(ball, vectors, tol, meaning=None):
    """`SubsetSums.tests` against the reference answers (`reference`) for
    every rel and subset, and against `meaning[rel]` of the reference gauge
    when given; then the k-form of `SubsetSums` for every k = 0..n the
    same way."""
    ts = subsets(len(vectors))
    gauges, answers = reference(ball, vectors, ts, tol)
    for rel in RELS:
        got = list(SubsetSums(ball, vectors).tests(ts, rel, tol))
        assert got == list(zip(ts, answers(rel)))
        if meaning is not None:
            assert [ok for _, ok in got] == [meaning[rel](g, tol) for g in gauges]
    assert_k_form(ball, vectors, tol, meaning)


def assert_k_form(ball, vectors, tol, meaning=None):
    """`SubsetSums.tests(k, ...)` and `.gauges(k)` for k = 0..n, each on a
    fresh packing and on one shared by every k, against the reference."""
    n = len(vectors)
    shared = SubsetSums(ball, vectors)
    for k in range(n + 1):
        ts = list(combinations(range(n), k))
        gauges, answers = reference(ball, vectors, ts, tol)
        for sums in (SubsetSums(ball, vectors), shared):
            for rel in RELS:
                got = list(sums.tests(k, rel, tol))
                assert got == list(zip(ts, answers(rel)))
                assert list(sums.tests(ts, rel, tol)) == got  # the explicit form
                if meaning is not None:
                    assert [ok for _, ok in got] == [meaning[rel](g, tol) for g in gauges]
            got = list(sums.gauges(k))
            assert [t for t, _ in got] == ts
            assert_same_gauges([g for _, g in got], gauges)
            assert [g for _, g in sums.gauges(ts)] == [g for _, g in got]


def assert_same_gauges(got, expected):
    """Equal gauges of equal types, floats bit for bit. The empty sum is the
    int origin, whose reference gauge is exact even on float data, so a
    zero is compared by value only."""
    assert got == expected
    for g, ref in zip(got, expected):
        if ref:
            assert type(g) is type(ref) and (not isinstance(g, float) or g.hex() == ref.hex())


@given(ball=kernel_balls, vectors=families, tol=BAND_TOLS)
def test_subset_tests_match_gauge_against_one(ball, vectors, tol):
    assert_sphere_tests(ball, vectors, tol)


@given(ball=st.one_of(balls(), balls(integer_points)),
       vectors=st.lists(rational_points, min_size=1, max_size=5), tol=TOLS)
def test_subset_tests_are_exact_on_rational_data(ball, vectors, tol):
    assert_sphere_tests(ball, vectors, tol, EXACT)


@st.composite
def explicit_subsets(draw, n):
    """Subsets as callers hand them over one by one: the empty one, sorted
    samples that may repeat (`choose_signs` past 15 vectors), a single
    given triple (lemma-main's re-check), and indices repeated in one."""
    sample = st.lists(st.integers(0, n - 1), max_size=n).map(lambda t: tuple(sorted(set(t))))
    picked = draw(st.lists(sample, max_size=6))
    triple = tuple(draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3)))
    return draw(st.sampled_from([[()], [triple], [(), *picked, *picked, triple, triple]]))


@given(ball=kernel_balls, vectors=families, tol=BAND_TOLS, data=st.data())
def test_kernel_on_explicit_subsets(ball, vectors, tol, data):
    ts = data.draw(explicit_subsets(len(vectors)))
    gauges, answers = reference(ball, vectors, ts, tol)
    for rel in RELS:
        got = list(SubsetSums(ball, vectors).tests(iter(ts), rel, tol))
        assert got == list(zip(ts, answers(rel)))
    got = list(SubsetSums(ball, vectors).gauges(iter(ts)))
    assert [t for t, _ in got] == ts
    for (t, g), ref in zip(got, gauges):
        assert g == ref
        if t:  # the empty sum is the int origin, whose reference gauge is exact
            assert type(g) is type(ref) and (not isinstance(g, float) or g.hex() == ref.hex())


def true_reach(ball, vectors) -> int:
    """max |P·X + Q·Y| over the family's lattice points and the ball's edges."""
    fam = geometry.Family(vectors)
    return max(abs(p * x + q * y) for x, y in fam.pts for p, q in ball.normals)


@given(data=st.data(), tol=TOLS)
def test_reach_bound_on_skinny_balls(data, tol):
    # vectors along the long axis, inside the ball and far outside it,
    # where the bound is far above the true reach, and any others
    ball, axis = data.draw(skinny_balls_with_axis())
    ts = data.draw(st.lists(rationals(bound=1000), min_size=1, max_size=5))
    others = data.draw(st.lists(st.one_of(rational_points, far_points), max_size=2))
    vectors = [axis.scale(t) for t in ts] + others
    sums = SubsetSums(ball, vectors)
    assert sums._reach >= true_reach(ball, vectors)
    assert_sphere_tests(ball, vectors, tol, EXACT)
    ts = data.draw(explicit_subsets(len(vectors)))
    gauges = [gauge(ball, vsum(vectors[i] for i in t)) for t in ts]
    assert list(sums.gauges(ts)) == list(zip(ts, gauges))
    for rel in RELS:
        assert list(sums.tests(ts, rel, tol)) == [(t, rel(g, 1, tol)) for t, g in zip(ts, gauges)]


def test_reach_bound_is_far_above_the_reach_along_a_thin_axis():
    m = 10**6
    pts = [Vec2(1, 0), Vec2(0, Fraction(1, m))]
    ball = make_polygonal_ball(pts + [-p for p in pts])
    vectors = [Vec2(1000, 0), Vec2(Fraction(1, 2), 0), Vec2(-3, 0)]
    sums = SubsetSums(ball, vectors)
    assert sums._reach >= m * true_reach(ball, vectors)
    assert_sphere_tests(ball, vectors, 1e-9, EXACT)


def test_subset_tests_on_gallery_equality_families():
    # sums at gauge exactly 1: min 3-sum of thm3-closed-fails, the total of remark1-equality
    for name in ("thm3-closed-fails", "remark1-equality"):
        case = gallery_case(name)
        sums = [vsum(case.vectors[i] for i in t) for t in subsets(len(case.vectors)) if len(t) > 1]
        assert any(gauge(case.ball, z) == 1 for z in sums)
        assert_sphere_tests(case.ball, case.vectors, 1e-9, EXACT)


@given(seed=st.integers(0, 2**32 - 1), tol=TOLS)
def test_subset_tests_on_boundary_points(seed, tol):
    # rational balls off the max-norm lattice (den > 1), unit vectors on their boundary
    ball = gen_random_ball(seed)
    vectors = list(gen_unit_vectors(ball, 3, seed))
    singles = [(0,), (1,), (2,)]
    assert [ok for _, ok in SubsetSums(ball, vectors).tests(singles, eq, tol)] == [True] * 3
    assert [ok for _, ok in SubsetSums(ball, vectors).tests(singles, gt, tol)] == [False] * 3
    assert_sphere_tests(ball, vectors, tol, EXACT)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1.0])
def test_sign_table_holds_the_comparisons_answers_on_ints(tol):
    assert scalars.SIGN_ANSWERS == {
        eq: (False, True, False), le: (True, True, False), ge: (False, True, True), gt: (False, False, True),
    }
    for rel, answers in scalars.SIGN_ANSWERS.items():
        assert answers == (rel(-1, 0, tol), rel(0, 0, tol), rel(1, 0, tol))
        assert [type(a) for a in answers] == [bool] * 3


@pytest.mark.parametrize("seed", range(6))
def test_subset_tests_at_the_equality_boundary(seed):
    # unit vectors of a rational ball, one of them negated and one halved:
    # every single but the half, and sums such as u0 + u1 - u0, have gauge 1
    ball = gen_random_ball(seed)
    units = list(gen_unit_vectors(ball, 3, seed))
    vectors = units + [-units[0], units[1].scale(Fraction(1, 2))]
    asked = []

    def ne(a, b, tol=1e-9):  # no `scalars` comparison: asked its sign answers
        asked.append((a, b))
        return not eq(a, b, tol)

    meaning = {**EXACT, ne: lambda g, tol: g != 1}
    n, ts = len(vectors), subsets(len(vectors))
    gauges = [gauge(ball, vsum(vectors[i] for i in t)) for t in ts]
    assert gauges.count(1) > n
    sums = SubsetSums(ball, vectors)
    for rel in (*RELS, ne):
        expected = [(t, meaning[rel](g, 0.0)) for t, g in zip(ts, gauges)]
        assert list(sums.tests(ts, rel)) == expected
        got = [pair for k in range(1, n + 1) for pair in sums.tests(k, rel)]
        assert got == expected
    # once per sign on each of the n + 1 passes
    assert asked == [(-1, 0), (0, 0), (1, 0)] * (n + 1)


def test_subset_tests_on_float_gauges_near_one():
    # on these balls the gauge of (c, 0.0) is |c|, so the family hits gauges
    # at 1 and at 1 +- tol as floats round them, and one ulp either side of
    # each: decided within the band Fraction(tol), on the square on the
    # exact c, on the Euclidean ball on the float gauge's exact value
    for tol in BANDS:
        cs = [1.0, 1.0 + tol, 1.0 - tol]
        cs += [math.nextafter(c, d) for c in cs for d in (-math.inf, math.inf)]
        for c in cs:
            z = Vec2(c, 0.0)
            assert gauge(square_ball(), z) == gauge(euclidean_ball(), z) == abs(c)
            assert_sphere_tests(square_ball(), [z], tol, {rel: partial(band, rel) for rel in RELS})
            assert_sphere_tests(euclidean_ball(), [z], tol, TOLERANT)
        # where 1 + tol is a float, it is the band's edge, inside the band
        edge, exact = SubsetSums(square_ball(), [Vec2(1.0 + tol, 0.0)]), Fraction(1.0 + tol)
        assert [ok for _, ok in edge.tests(1, eq, tol)] == [exact <= 1 + Fraction(tol)]
        assert [ok for _, ok in edge.tests(1, gt, tol)] == [exact > 1 + Fraction(tol)]
        assert (exact == 1 + Fraction(tol)) == (tol in (0.0, 1.0, 1e6))


@pytest.mark.parametrize("tol", BANDS)
@pytest.mark.parametrize("ball", [
    square_ball(), gen_random_ball(5), float_vertex_ball(gen_random_ball(7)), gen_asymmetric_body(3),
], ids=["maxnorm", "random", "float-vertex", "body"])
def test_kernel_on_subnormal_and_extreme_floats(ball, tol):
    # one family spans 5e-324 to 1e308: its lattice is exact, sums past
    # the float maximum have gauge inf, and no comparison rounds
    tiny, sub = 5e-324, 2.2250738585072014e-308 / 3
    families = [
        [Vec2(tiny, 0.0), Vec2(sub, -tiny), Vec2(1e-308, 1.0), Vec2(-1e308, 1e308), Vec2(1e308, 0.5)],
        [Vec2(1e308, 0.0), Vec2(1.7976931348623157e308, -1e-308), Vec2(0.75, tiny)],
        [Vec2(1.0, tiny), Vec2(-tiny, 1.0), Vec2(1.0 - 2**-53, sub), Vec2(sub, sub)],
    ]
    seen = []
    for vectors in families:
        assert_sphere_tests(ball, vectors, tol)
        ts = subsets(len(vectors))
        gauges, _ = reference(ball, vectors, ts, tol)
        assert [g for _, g in SubsetSums(ball, vectors).gauges(ts)] == gauges
        seen += gauges
    assert math.inf in seen


def test_each_family_is_put_on_the_lattice_once(monkeypatch):
    # the readers of `scalars` that put coordinates on the lattice,
    # `lattice_pairs` (which `Family(vectors)` reads a family with) and
    # `exact_pairs`, are counted at every module that binds them; each
    # verifier call must put each of its families on the lattice once
    readers = {scalars.lattice_pairs, scalars.exact_pairs}
    seen = []

    def spy(original):
        def read(pts):
            seen.append(tuple(c for xy in pts for c in xy))
            return original(pts)
        return read

    for name, module in list(sys.modules.items()):
        if name == "helly_plane" or name.startswith("helly_plane."):
            for attr, value in list(vars(module).items()):
                if any(value is r for r in readers):
                    monkeypatch.setattr(module, attr, spy(value))

    ball = gen_random_ball(3)
    # plain tuples of vectors, as a caller passes them: the generators'
    # own families are on the lattice already and are never put there again
    vs = tuple(gen_unit_vectors(ball, 7, 5, halfplane=Vec2(1, 2)))
    zs = tuple(gen_zero_sum_six(ball, 6))
    calls = [
        (lambda: verify_helly(ball, vs, strict=False), [vs]),
        (lambda: verify_helly(ball, vs, strict=True), [vs]),
        (lambda: corollary_check(ball, vs, 5), [vs]),
        (lambda: lemma_main_witness(ball, zs), [zs]),
        (lambda: lemma_conv_check(ball, vs[:3]), [vs[:3]]),
        (lambda: choose_signs(ball, vs), [vs]),  # its signed copy reuses the lattice
    ]
    for call, families in calls:
        seen.clear()
        call()
        assert len(seen) == len(families)
        assert all(got == tuple(c for v in f for c in (v.x, v.y)) for got, f in zip(seen, families))


# denominators near 10^12: balls and families over them pack into lanes
# wider than a machine word
WIDE = (10**12 + 39, 999_999_999_989, 3 * 10**12 + 1)


@st.composite
def wide_rationals(draw, bound=3):
    d = draw(st.sampled_from(WIDE))
    return Fraction(draw(st.integers(-bound * d, bound * d)), d)


wide_points = st.builds(Vec2, wide_rationals(), wide_rationals())


@given(ball=kernel_balls, vectors=st.lists(
    st.one_of(rational_points, far_points, wide_points), min_size=1, max_size=5))
def test_reach_is_a_bound_on_every_edge_value(ball, vectors):
    assume(ball.normals is not None)
    assert SubsetSums(ball, vectors)._reach >= true_reach(ball, vectors)


@given(ball=st.one_of(balls(wide_points), balls(), st.just(square_ball())),
       vectors=st.lists(wide_points, min_size=1, max_size=5), tol=TOLS)
def test_kernel_on_wide_lanes(ball, vectors, tol):
    assert_sphere_tests(ball, vectors, tol, EXACT)


def test_wide_lanes_pass_a_machine_word():
    c = Fraction(1, WIDE[0])
    ball = make_polygonal_ball([Vec2(1, c), Vec2(-1, 1), Vec2(-1, -c), Vec2(1, -1)])
    vectors = [Vec2(Fraction(1, WIDE[1]), Fraction(-2, WIDE[2])), Vec2(1, 1), Vec2(Fraction(1, 3), 0)]
    sums = SubsetSums(ball, vectors)
    list(sums.tests(3, gt))
    assert min(lane.bit_length() for lane in sums._lanes) > 64
    assert_sphere_tests(ball, vectors, 1e-9, EXACT)


@given(
    points=st.lists(st.builds(Vec2, st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=5),
    vectors=st.lists(st.builds(Vec2, st.integers(-30, 30), st.integers(-30, 30)), min_size=1,
                     max_size=4),
    tol=TOLS,
)
def test_kernel_on_bodies(points, vectors, tol):
    # a body has no opposite edge pairs (a triangle has an odd count): the
    # largest |edge value| of a family may sit on any edge
    try:
        body = make_convex_body(points)
    except NotConvexBody:
        assume(False)
    assert_sphere_tests(body, vectors, tol, EXACT)


@given(ball=kernel_balls, n=st.integers(1, 6), zero=st.sampled_from([0, Fraction(0), 0.0]),
       tol=TOLS)
def test_kernel_on_all_zero_families(ball, n, zero, tol):
    # every edge value is 0, so R = 0 and every sum has gauge 0
    assert_sphere_tests(ball, [Vec2(zero, zero)] * n, tol, EXACT)


@given(ball=kernel_balls, vectors=families, tol=BAND_TOLS)
def test_explicit_subsets_longer_than_the_family(ball, vectors, tol):
    n = len(vectors)
    ts = [(0,), (0,) * 40, (n - 1,) * 41, tuple(range(n)) * 3]
    gauges, answers = reference(ball, vectors, ts, tol)
    # one-off calls, and a packing made for the family and used for
    # single vectors, which must widen
    shared = SubsetSums(ball, vectors)
    list(shared.tests(1, eq, tol))
    for rel in RELS:
        expected = list(zip(ts, answers(rel)))
        assert list(SubsetSums(ball, vectors).tests(ts, rel, tol)) == expected
        assert list(shared.tests(ts, rel, tol)) == expected
    for got in (list(SubsetSums(ball, vectors).gauges(ts)), list(shared.gauges(ts))):
        assert [t for t, _ in got] == ts
        assert_same_gauges([g for _, g in got], gauges)


@pytest.mark.parametrize("seed", [1, 2])
def test_sampled_choose_signs_path(monkeypatch, seed):
    # past 15 vectors `choose_signs` checks 1000 sampled odd subsets through
    # the explicit form; every answer it read is checked against the gauge
    seen = []
    original = SubsetSums.tests

    def spy(self, subsets, rel, tol=1e-9):
        subsets = subsets if isinstance(subsets, int) else list(subsets)
        got = list(original(self, subsets, rel, tol))
        seen.append((rel, tol, got))
        return iter(got)

    monkeypatch.setattr(SubsetSums, "tests", spy)
    ball = gen_random_ball(seed)
    vs = gen_unit_vectors(ball, 17, seed)
    sv = choose_signs(ball, vs)
    assert sv.odd_subsets_checked == 1000
    [(rel, tol, got)] = [x for x in seen if len(x[2]) == 1000]
    assert rel is ge
    signed = [v if s > 0 else -v for v, s in zip(vs, sv.signs)]
    for t, ok in got:
        assert len(t) % 2 == 1 and ok is ge(gauge(ball, vsum(signed[i] for i in t)), 1, tol) is True
    # the same sampled subsets on the unsigned family, where sums do fall inside
    monkeypatch.undo()
    ts = [t for t, _ in got][:200]
    gauges = [gauge(ball, vsum(vs[i] for i in t)) for t in ts]
    assert any(g < 1 for g in gauges)
    sums = SubsetSums(ball, vs)
    for rel in RELS:
        assert list(sums.tests(ts, rel)) == [(t, rel(g, 1)) for t, g in zip(ts, gauges)]


def test_one_packing_per_ball_and_family_per_verifier_call(monkeypatch):
    packed = []
    original = SubsetSums._pack

    def spy(self, k):
        packed.append((self._ball, self._pts))
        return original(self, k)

    monkeypatch.setattr(SubsetSums, "_pack", spy)
    u = Vec2(1, 2)
    lemma_main = SuiteConfig(suite="lemma-main", trials=1, seed=6)
    for ball in (gen_random_ball(3), square_ball()):
        vs = gen_unit_vectors(ball, 7, 5, halfplane=u)
        zs = gen_zero_sum_six(ball, 6)
        calls = [
            (lambda: verify_theorem1(ball, vs, u), 1),
            (lambda: halfplane_certificate(ball, vs, u), 1),
            (lambda: verify_helly(ball, vs, strict=False), 1),
            (lambda: verify_helly(ball, vs, strict=True), 1),
            (lambda: corollary_check(ball, vs, 5), 1),
            (lambda: corollary_check(ball, vs, 7), 1),
            (lambda: lemma_main_witness(ball, zs), 1),
            # a lemma-main trial: the witness search and the suite's re-check
            (lambda: suites._run_trial(lemma_main, 0, lambda rng: ball), 1),
            (lambda: lemma_conv_check(ball, vs[:3]), 1),
            (lambda: choose_signs(ball, vs), 2),  # the family, then its signed copy
            (lambda: make_generic(ball, vs[:4], Fraction(9, 10), Fraction(1, 1000), 7), 1),
        ]
        for call, count in calls:
            packed.clear()
            call()
            assert len(packed) == count
            assert len({(id(b), id(p)) for b, p in packed}) == count
