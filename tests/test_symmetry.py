import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from helly_plane.errors import NotConvexBody, NotSymmetric
from helly_plane.generators import (
    gen_asymmetric_body,
    gen_direction,
    gen_random_ball,
    gen_symmetric_body,
    gen_unit_vectors,
)
from helly_plane.norms import ConvexBody, UnitBall, boundary_point, compile_lattice, edge_functionals, gauge
from helly_plane.symmetry import (
    ViolationWitness,
    WitnessKind,
    _boundary_neighbours,
    _chord_ends,
    _halfplane_candidates,
    _surrounding_candidates,
    find_violation_halfplane,
    find_violation_surrounding,
    is_centrally_symmetric,
    make_convex_body,
    verify_halfplane_witness,
    verify_surrounding_witness,
)
from helly_plane.theorems import lemma_conv_check, verify_theorem1
from helly_plane.vectors import ORIGIN, Vec2

import oracles
from oracles import boundary_neighbours, brute_origin_strictly_inside, line_polygon_hits, ray_gauge

F = Fraction


@pytest.fixture(scope="module")
def square_body():
    return make_convex_body([Vec2(1, 1), Vec2(-1, 1), Vec2(-1, -1), Vec2(1, -1)])


@pytest.fixture(scope="module")
def triangle_body():
    return make_convex_body([Vec2(2, -1), Vec2(-2, -1), Vec2(0, 2)])


def test_body_validation():
    with pytest.raises(NotConvexBody):
        make_convex_body([Vec2(1, 0), Vec2(2, 0)])
    with pytest.raises(NotConvexBody):
        make_convex_body([Vec2(1, 1), Vec2(2, 1), Vec2(1, 2)])  # origin outside


def _accepted(points):
    try:
        make_convex_body(points)
    except NotConvexBody:
        return False
    return True


def test_body_accepted_exactly_when_origin_strictly_inside():
    edge = [Vec2(1, 0), Vec2(-1, 0), Vec2(0, 1)]
    vertex = [Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)]
    interior_point = [Vec2(0, 0), Vec2(1, 1), Vec2(-1, 1), Vec2(0, -1)]
    for points, inside in [(edge, False), (vertex, False), (interior_point, True), ([], False)]:
        assert _accepted(points) == inside == brute_origin_strictly_inside(points)
    # a coarse grid puts the origin on edges and at vertices often
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(1500):
        coords = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(2 * rng.randint(1, 7))]
        points = [Vec2(x, y) for x, y in zip(coords[::2], coords[1::2])]
        inside = brute_origin_strictly_inside(points)
        assert _accepted(points) == inside, points
        seen[inside] += 1
    assert min(seen.values()) > 200, seen


def test_is_centrally_symmetric_examples(square_body, triangle_body, hexagon):
    assert is_centrally_symmetric(square_body)
    assert not is_centrally_symmetric(triangle_body)
    hex_body = make_convex_body(list(hexagon.vertices))
    assert is_centrally_symmetric(hex_body)


def test_symmetric_bodies_have_no_witnesses(square_body):
    assert find_violation_halfplane(square_body) is None
    assert find_violation_surrounding(square_body) is None


def test_triangle_witnesses(triangle_body):
    w1 = find_violation_halfplane(triangle_body)
    assert w1 is not None and w1.kind is WitnessKind.HALFPLANE_INTERIOR_SUM
    assert verify_halfplane_witness(triangle_body, w1)
    assert w1.h == w1.a + w1.b + w1.c
    assert ray_gauge(triangle_body, w1.h) < 1

    w2 = find_violation_surrounding(triangle_body)
    assert w2 is not None and w2.kind is WitnessKind.SURROUNDING_EXTERIOR_SUM
    assert verify_surrounding_witness(triangle_body, w2)
    assert ray_gauge(triangle_body, w2.h) >= 1


def test_witness_verifiers_reject_wrong_kind(triangle_body):
    w1 = find_violation_halfplane(triangle_body)
    assert not verify_surrounding_witness(triangle_body, w1)


def test_square_surrounded_triple_touches_boundary(square_body, square):
    # on a symmetric body a surrounded boundary triple can sum onto the
    # boundary: the paper's condition keeps such sums in the closed body, so
    # a surrounding witness needs its sum strictly outside
    a, b, c = Vec2(1, 1), Vec2(-1, 1), Vec2(0, -1)
    h = a + b + c
    assert h == Vec2(0, 1)
    assert ray_gauge(square_body, h) == 1
    assert lemma_conv_check(square, (a, b, c)) == (True, True)
    w = ViolationWitness(a, b, c, h, WitnessKind.SURROUNDING_EXTERIOR_SUM)
    assert not verify_surrounding_witness(square_body, w)


def test_agreement_on_test_corpus():
    for seed in range(40):
        sym = gen_symmetric_body(seed)
        assert is_centrally_symmetric(sym)
        assert find_violation_halfplane(sym) is None
        asym = gen_asymmetric_body(seed)
        assert not is_centrally_symmetric(asym)
        w1 = find_violation_halfplane(asym)
        assert w1 is not None and verify_halfplane_witness(asym, w1)
        w2 = find_violation_surrounding(asym)
        assert w2 is not None and verify_surrounding_witness(asym, w2)


def test_surrounding_witness_when_both_extremes_are_edges():
    # the one chord with unequal arms is horizontal, and on both sides of it
    # the extreme orthogonal to it is an edge parallel to it: each end of
    # such an edge is tried as the surrounding triple's middle point
    pentagon = [Vec2(x, y) for x, y in [(-2, 0), (-1, -1), (1, -1), (1, 1), (-1, 1)]]
    for body in (make_convex_body(pentagon), _float_copy(make_convex_body(pentagon))):
        assert not is_centrally_symmetric(body)
        w1, w2 = find_violation_halfplane(body), find_violation_surrounding(body)
        assert w1 is not None and verify_halfplane_witness(body, w1)
        assert w2 is not None and verify_surrounding_witness(body, w2)
        assert w2.b in pentagon[1:]


def _float_copy(body):
    return make_convex_body([Vec2(float(v.x), float(v.y)) for v in body.vertices])


def test_float_bodies_are_decided_as_the_polygon_their_floats_denote():
    # every float is a dyadic rational, so a float body is an exact polygon
    for seed in range(40):
        sym = _float_copy(gen_symmetric_body(seed))
        assert find_violation_halfplane(sym) is None and find_violation_surrounding(sym) is None
        asym = _float_copy(gen_asymmetric_body(seed))
        w1 = find_violation_halfplane(asym)
        assert w1 is not None and verify_halfplane_witness(asym, w1)
        w2 = find_violation_surrounding(asym)
        assert w2 is not None and verify_surrounding_witness(asym, w2)
        assert all(isinstance(c, Fraction) for p in (w1.a, w2.h) for c in (p.x, p.y))


def test_symmetric_closed_sum_property():
    # boundary triples strictly surrounding the origin on a symmetric body
    # always sum into the closed body
    rng = random.Random(2024)
    checked = 0
    for seed in range(12):
        ball = gen_random_ball(seed)
        body = make_convex_body(list(ball.vertices))
        for k in range(300):
            a, b, c = gen_unit_vectors(ball, 3, rng.getrandbits(32))
            s1 = (b - a).cross(ORIGIN - a)
            s2 = (c - b).cross(ORIGIN - b)
            s3 = (a - c).cross(ORIGIN - c)
            if not (s1 > 0 and s2 > 0 and s3 > 0) and not (s1 < 0 and s2 < 0 and s3 < 0):
                continue
            checked += 1
            assert gauge(ball, a + b + c) <= 1
            w = ViolationWitness(a, b, c, a + b + c, WitnessKind.SURROUNDING_EXTERIOR_SUM)
            assert not verify_surrounding_witness(body, w)
    assert checked > 100


def test_halfplane_triples_on_symmetric_body_never_sum_inside():
    # sampling oracle for the halfplane condition on symmetric bodies
    rng = random.Random(99)
    checked = 0
    for seed in range(12):
        ball = gen_random_ball(seed + 50)
        body = make_convex_body(list(ball.vertices))
        for _ in range(250):
            u = Vec2(F(rng.randint(-100, 100), 100), F(rng.randint(-100, 100), 100))
            if u.is_zero():
                continue
            a, b, c = gen_unit_vectors(ball, 3, rng.getrandbits(32), halfplane=u)
            if len({(p.x, p.y) for p in (a, b, c)}) != 3:
                continue
            checked += 1
            assert ray_gauge(body, a + b + c) >= 1
            w = ViolationWitness(a, b, c, a + b + c, WitnessKind.HALFPLANE_INTERIOR_SUM)
            assert not verify_halfplane_witness(body, w)
    assert checked > 100


def test_symmetric_bodies_meet_t1_and_lemma_conv_on_their_own_gauge():
    # the characterization's symmetric half: on a 0-symmetric body's own
    # gauge, a boundary triple in a closed halfplane sums to gauge >= 1
    # (T1 at n = 3), and a boundary triple's hull holds the origin exactly
    # when it holds the triple's sum (lemma-conv)
    rng = random.Random(13)
    for s in range(300):
        body = gen_symmetric_body(s)
        u = gen_direction(rng)
        report = verify_theorem1(body, gen_unit_vectors(body, 3, s, halfplane=u), u, 0.0)
        assert report.hypothesis_holds and report.conclusion_holds, s
        origin_in, h_in = lemma_conv_check(body, gen_unit_vectors(body, 3, rng.getrandbits(32)), 0.0)
        assert origin_in == h_in, s


def _first_accepted(body, candidates, verify):
    return next(w for w in candidates(body) if verify(body, w))


def _outside_and_formerly_accepted(body, w):
    return oracles.ref_verify_surrounding_witness(body, w) and gauge(body, w.h) > 1


def _finders_match_the_former_verifiers(body) -> bool:
    """The finders return the first candidate the former verifiers accept, a
    surrounding one with its sum strictly outside: the former rule also
    took a sum on the boundary. Whether the former rule's own first
    surrounding pick is the finder's."""
    assert not is_centrally_symmetric(body)
    halfplane = _first_accepted(body, _halfplane_candidates, oracles.ref_verify_halfplane_witness)
    former = _first_accepted(body, _surrounding_candidates, oracles.ref_verify_surrounding_witness)
    surrounding = former
    if gauge(body, former.h) == 1:
        surrounding = _first_accepted(body, _surrounding_candidates, _outside_and_formerly_accepted)
    assert find_violation_halfplane(body) == halfplane
    assert find_violation_surrounding(body) == surrounding
    return former == surrounding


def test_finders_return_the_first_candidate_the_former_verifiers_accept():
    # the T1 reading of a halfplane witness and the strict surrounding rule
    # pick the former verifiers' first candidate on every generated body
    bodies = [gen_asymmetric_body(seed) for seed in range(200)]
    bodies += [_float_copy(gen_asymmetric_body(seed)) for seed in range(50)]
    assert all([_finders_match_the_former_verifiers(body) for body in bodies])


def test_witness_verifiers_agree_with_the_former_ones_on_boundary_triples():
    # every triple of vertices and edge midpoints: the two rules part only
    # on a surrounding triple whose sum lies on the boundary
    kinds = [
        (WitnessKind.HALFPLANE_INTERIOR_SUM, verify_halfplane_witness, oracles.ref_verify_halfplane_witness),
        (WitnessKind.SURROUNDING_EXTERIOR_SUM, verify_surrounding_witness, oracles.ref_verify_surrounding_witness),
    ]
    seen = Counter()
    for seed in range(6):
        body = gen_asymmetric_body(seed)
        verts = list(body.vertices)
        points = verts + [(p + q).scale(F(1, 2)) for p, q in zip(verts, verts[1:] + verts[:1])]
        for a, b, c in combinations(points, 3):
            touches = gauge(body, a + b + c) == 1
            for kind, verify, former in kinds:
                w = ViolationWitness(a, b, c, a + b + c, kind)
                got, was = verify(body, w), former(body, w)
                assert got == (was and not (kind is WitnessKind.SURROUNDING_EXTERIOR_SUM and touches))
                seen[kind, got, was] += 1
    assert min(seen.values()) >= 5 and len(seen) == 5, seen


def test_surrounding_finder_skips_a_triple_summing_onto_the_boundary():
    # the former rule's first pick on this triangle sums onto the boundary,
    # which a symmetric body allows too; the finder goes on to a sum outside
    body = make_convex_body([Vec2(F(-5, 3), F(1, 2)), Vec2(1, -3), Vec2(1, F(8, 3))])
    assert not _finders_match_the_former_verifiers(body)
    former = _first_accepted(body, _surrounding_candidates, oracles.ref_verify_surrounding_witness)
    assert gauge(body, former.h) == 1 and not verify_surrounding_witness(body, former)
    assert gauge(body, find_violation_surrounding(body).h) == F(199, 178)


# rational convex bodies of 3 to 8 points, off any generator's grid; small
# coordinates put lines through vertices often
_coordinates = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7]))


@st.composite
def _bodies(draw):
    points = draw(st.lists(st.builds(Vec2, _coordinates, _coordinates), min_size=3, max_size=8))
    try:
        return make_convex_body(points)
    except NotConvexBody:
        assume(False)


def _levels(body, d):
    """Levels of lines {d×z == level} that cross the body: the finder's
    slides reach·2^-j on both sides, and the level of every vertex strictly
    between the two extremes (chords through a vertex)."""
    keys = [d.cross(v) for v in body.vertices]
    lo, hi = min(keys), max(keys)
    reach = min(-lo, hi)
    slides = [side * reach / 2**j for side in (1, -1) for j in range(1, 3)]
    return slides + [k for k in keys if lo < k < hi]


def _inside_point(body, d, level):
    """A point strictly inside the body on the line {d×z == level}: on the
    open segment from the origin to the vertex farthest on that side."""
    if level == 0:
        return ORIGIN
    w = max(body.vertices, key=lambda v: d.cross(v) * level)
    return w.scale(level / d.cross(w))


@settings(max_examples=60, deadline=None)
@given(body=_bodies())
def test_finders_match_the_former_verifiers_on_drawn_bodies(body):
    assume(not is_centrally_symmetric(body))
    event(f"former surrounding pick kept: {_finders_match_the_former_verifiers(body)}")


@settings(max_examples=30, deadline=None)
@given(body=_bodies(), drawn=st.builds(Vec2, _coordinates, _coordinates))
def test_chord_rule_matches_the_line_polygon_walk(body, drawn):
    normals = edge_functionals(body)
    verts = list(body.vertices)
    far_arms = [boundary_point(body, -v) for v in verts]
    directions = verts + far_arms + ([] if drawn.is_zero() else [drawn])
    for d in directions:
        for level in _levels(body, d):
            z = _inside_point(body, d, level)
            assert gauge(body, z) < 1 and d.cross(z) == level
            hits = line_polygon_hits(verts, d, level)
            assert len(hits) == 2
            assert list(_chord_ends(normals, z, d)) == sorted(hits, key=d.dot, reverse=True)
    midpoints = [(a + b).scale(F(1, 2)) for a, b in zip(verts, verts[1:] + verts[:1])]
    for p in verts + midpoints + far_arms:
        assert _boundary_neighbours(body, p) == boundary_neighbours(body, p)


def test_chord_rule_on_a_triangle_through_a_vertex(triangle_body):
    # the vertical line through the apex (0, 2) of (2, -1), (-2, -1), (0, 2)
    d = Vec2(0, 1)
    ends = _chord_ends(edge_functionals(triangle_body), Vec2(0, F(1, 2)), d)
    assert ends == (Vec2(0, 2), Vec2(0, -1))
    hits = line_polygon_hits(list(triangle_body.vertices), d, 0)
    assert list(ends) == sorted(hits, key=d.dot, reverse=True)


@st.composite
def _point_sets(draw):
    """Integer points over 2: a set closed under negation; or that set with
    points inside its hull added, which is not closed but has a symmetric
    hull; or that set with one point stretched by 3/2."""
    half = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=2, max_size=5))
    pts = [(2 * x, 2 * y) for x, y in half]
    pts += [(-x, -y) for x, y in pts]
    shape = draw(st.sampled_from(["closed", "inner", "stretched"]))
    if shape == "inner":
        # p / 2 for a point p, and the midpoints of two points: in the hull
        pts += draw(st.lists(st.sampled_from(half), min_size=1, max_size=3))
        pairs = st.tuples(st.sampled_from(pts), st.sampled_from(pts))
        pts += [((ax + bx) // 2, (ay + by) // 2) for (ax, ay), (bx, by) in draw(st.lists(pairs, max_size=3))]
    elif shape == "stretched":
        i = draw(st.integers(0, len(pts) - 1))
        pts[i] = (3 * pts[i][0] // 2, 3 * pts[i][1] // 2)
    return shape, pts


@settings(max_examples=200, deadline=None)
@given(_point_sets())
def test_symmetry_is_decided_once_as_the_vertex_set_test_decides_it(shaped):
    shape, pts = shaped
    try:
        body = compile_lattice(pts, 2, ConvexBody)
    except NotConvexBody:
        assume(False)
    # the same points given as floats: each the dyadic rational it denotes
    floats = make_convex_body([Vec2(x / 2, y / 2) for x, y in pts])
    symmetric = oracles.is_centrally_symmetric(body)
    closed = set(pts) == {(-x, -y) for x, y in pts}
    event(f"{shape}, {'closed' if closed else 'not closed'}: {'symmetric' if symmetric else 'asymmetric'}")
    assert is_centrally_symmetric(body) is symmetric
    assert is_centrally_symmetric(floats) is oracles.is_centrally_symmetric(floats) is symmetric
    if not symmetric:
        with pytest.raises(NotSymmetric):
            compile_lattice(pts, 2, UnitBall)
        return
    # a symmetric polygon is printed mirrored: the text is the cycle's own
    ball = compile_lattice(pts, 2, UnitBall)
    for polygon in (body, ball):
        assert polygon.json_text == '{"type":"polygonal","vertices":' + polygon.vertices.json_text() + "}"
