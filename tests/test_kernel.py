"""Property tests of the compiled integer kernel against plain references.

Balls are drawn with denominators off the 1/1000 grid of the generators
(1/3, 1/7, 1/1001) as well as with integer vertices. The references are the
definitions the kernel replaces: the edge functional solved on `Fraction`s,
the ray-boundary gauge oracle, the float edge-functional maximum, `gauge`
of a `vsum` (compared with 1 through `scalars` for `subset_tests`), and a
`Fraction` monotone chain kept here.
"""

import math
import sys
from fractions import Fraction
from itertools import combinations

from hypothesis import assume, given
from hypothesis import strategies as st

from helly_plane import geometry, norms
from helly_plane.algorithms import choose_signs
from helly_plane.errors import NotConvexBody
from helly_plane.gallery import gallery_case
from helly_plane.generators import (
    gen_asymmetric_body, gen_random_ball, gen_unit_vectors, gen_zero_sum_six,
)
from helly_plane.geometry import convex_hull, orientation
from helly_plane.norms import (
    UnitBall,
    ball_from_json,
    ball_to_json,
    boundary_point,
    compile_lattice,
    edge_functionals,
    euclidean_ball,
    gauge,
    make_convex_body,
    make_polygonal_ball,
    square_ball,
    subset_gauges,
    subset_tests,
)
from helly_plane.scalars import eq, ge, gt, le
from helly_plane.theorems import corollary_check, lemma_conv_check, lemma_main_witness, verify_helly
from helly_plane.vectors import Vec2, vsum

from oracles import edge_functional, ray_gauge

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
def balls(draw, points=st.one_of(rational_points, integer_points)):
    pts = draw(st.lists(points, min_size=2, max_size=6))
    try:
        return make_polygonal_ball(pts + [-p for p in pts])
    except NotConvexBody:
        assume(False)


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
    # the float copies are the correctly rounded functionals, bit for bit
    assert [(p.hex(), q.hex()) for p, q in ball.float_normals] == [
        (float(n.x).hex(), float(n.y).hex()) for n in normals
    ]


@given(ball=balls())
def test_float_vertex_edge_functionals(ball):
    fball = ball_from_json(ball_to_json(ball), "float")
    normals = edge_functionals(fball)
    assert [(n.x, n.y) for n in normals] == list(fball.float_normals)
    for n, (a, b) in zip(normals, edges(fball)):
        # float division on the float vertices, as the report digests pin
        det = a.x * b.y - a.y * b.x
        assert (n.x.hex(), n.y.hex()) == (((b.y - a.y) / det).hex(), ((a.x - b.x) / det).hex())
        exact = edge_functional(a, b)
        assert math.isclose(n.x, exact.x, rel_tol=1e-6, abs_tol=1e-9)
        assert math.isclose(n.y, exact.y, rel_tol=1e-6, abs_tol=1e-9)


@given(ball=st.one_of(balls(), balls(integer_points)))
def test_lattice_ball_json_is_the_fraction_text(ball):
    # written from the integer vertex cycle before any vertex is formed,
    # byte for byte what the `Fraction` vertices print
    got = ball_to_json(ball)
    assert "vertices" not in vars(ball)
    assert got == {"type": "polygonal", "vertices": [v.to_json() for v in ball.vertices]}


def test_lattice_ball_forms_no_fraction_until_its_vertices_are_read(monkeypatch):
    formed = []

    def counted(*args):
        formed.append(args)
        return Fraction(*args)

    monkeypatch.setattr(norms, "Fraction", counted)
    ball = gen_random_ball(11)
    same = compile_lattice(*ball.vertex_grid, UnitBall)
    ball_to_json(same)
    assert same.float_normals == ball.float_normals
    assert formed == []
    vertices = same.vertices
    assert len(formed) == 2 * len(vertices)
    assert same.vertices is vertices  # formed once
    assert same == ball and hash(same) == hash(ball) and repr(same) == repr(ball)


@given(ball=balls(), z=float_points)
def test_float_gauge_is_bitwise_edge_maximum(ball, z):
    expected = max(float(n.x) * z.x + float(n.y) * z.y for n in edge_functionals(ball))
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
    expected = max(n.x * float(z.x) + n.y * float(z.y) for n in edge_functionals(fball))
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


RELS = (eq, le, ge, gt)
# the exact meaning of each comparison with 1, and its tolerant one on floats
EXACT = {eq: lambda g, tol: g == 1, le: lambda g, tol: g <= 1,
         ge: lambda g, tol: g >= 1, gt: lambda g, tol: g > 1}
TOLERANT = {eq: lambda g, tol: abs(g - 1) <= tol, le: lambda g, tol: g <= 1 + tol,
            ge: lambda g, tol: g >= 1 - tol, gt: lambda g, tol: g > 1 + tol}
TOLS = st.sampled_from([1e-9, 0.0, 1e-3])


def mixed_vertices(ball):
    """The ball's vertex list with the x of every other vertex as a float."""
    return make_polygonal_ball(
        [Vec2(float(v.x), v.y) if i % 2 else v for i, v in enumerate(ball.vertices)]
    )


# every dispatch of the kernel: integer normals over a denominator or not,
# float normals from float vertices, and the Euclidean ball
kernel_balls = st.one_of(
    balls(),
    balls(integer_points),
    balls().map(lambda ball: ball_from_json(ball_to_json(ball), "float")),
    balls(integer_points).map(mixed_vertices),
    st.just(square_ball()),
    st.just(euclidean_ball()),
)


def assert_sphere_tests(ball, vectors, tol, meaning=None):
    """`subset_tests` against `rel(gauge(vsum), 1, tol)` for every rel and
    subset, and against `meaning[rel]` of the reference gauge when given."""
    ts = subsets(len(vectors))
    gauges = [gauge(ball, vsum(vectors[i] for i in t)) for t in ts]
    for rel in RELS:
        got = list(subset_tests(ball, vectors, ts, rel, tol))
        assert got == [(t, rel(g, 1, tol)) for t, g in zip(ts, gauges)]
        if meaning is not None:
            assert [ok for _, ok in got] == [meaning[rel](g, tol) for g in gauges]


@given(ball=kernel_balls, vectors=families, tol=TOLS)
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


@given(ball=kernel_balls, vectors=families, tol=TOLS, data=st.data())
def test_kernel_on_explicit_subsets(ball, vectors, tol, data):
    ts = data.draw(explicit_subsets(len(vectors)))
    gauges = [gauge(ball, vsum(vectors[i] for i in t)) for t in ts]
    for rel in RELS:
        got = list(subset_tests(ball, vectors, iter(ts), rel, tol))
        assert got == [(t, rel(g, 1, tol)) for t, g in zip(ts, gauges)]
    got = list(subset_gauges(ball, vectors, iter(ts)))
    assert [t for t, _ in got] == ts
    for (t, g), ref in zip(got, gauges):
        assert g == ref
        if t:  # the empty sum is the int origin, whose reference gauge is exact
            assert type(g) is type(ref) and (not isinstance(g, float) or g.hex() == ref.hex())


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
    assert [ok for _, ok in subset_tests(ball, vectors, singles, eq, tol)] == [True] * 3
    assert [ok for _, ok in subset_tests(ball, vectors, singles, gt, tol)] == [False] * 3
    assert_sphere_tests(ball, vectors, tol, EXACT)


def test_subset_tests_on_float_gauges_near_one():
    # on these balls the float gauge of (c, 0.0) is c, so the family hits
    # gauges at 1 and 1 +- tol exactly, and one ulp either side of each
    tol = 1e-9
    cs = [1.0, 1.0 + tol, 1.0 - tol]
    cs += [math.nextafter(c, d) for c in cs for d in (0.0, 2.0)]
    fsquare = ball_from_json(ball_to_json(square_ball()), "float")
    for ball in (square_ball(), fsquare, euclidean_ball()):
        for c in cs:
            assert gauge(ball, Vec2(c, 0.0)) == c
            assert_sphere_tests(ball, [Vec2(c, 0.0)], tol, TOLERANT)


def test_each_family_is_put_on_the_lattice_once(monkeypatch):
    # `geometry.lattice` is counted at every module that binds it; each
    # verifier call must put each of its families on the lattice once
    original = geometry.lattice
    seen = []

    def spy(points):
        seen.append(tuple(points))
        return original(points)

    for name, module in list(sys.modules.items()):
        if name == "helly_plane" or name.startswith("helly_plane."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)

    ball = gen_random_ball(3)
    vs = gen_unit_vectors(ball, 7, 5, halfplane=Vec2(1, 2))
    zs = gen_zero_sum_six(ball, 6)
    calls = [
        (lambda: verify_helly(ball, vs, strict=False), [vs]),
        (lambda: verify_helly(ball, vs, strict=True), [vs]),
        (lambda: corollary_check(ball, vs, 5), [vs]),
        (lambda: lemma_main_witness(ball, zs), [zs]),
        (lambda: lemma_conv_check(ball, *vs[:3]), [vs[:3]]),
        (lambda: choose_signs(ball, vs), [vs]),  # its signed copy reuses the lattice
    ]
    for call, families in calls:
        seen.clear()
        call()
        assert len(seen) == len(families)
        assert all(got == tuple(f) for got, f in zip(seen, families))
