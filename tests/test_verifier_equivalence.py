"""The lattice verifiers reproduce the `Vec2`/`Fraction` ones exactly.

T1's report and certificate, lemma-conv and Claim 1 run beside their
references in `oracles` on the same inputs. Every certificate field must
be equal in value and in type: a `Fraction` where the reference gave one,
the same float bits where it gave a float. Failures must raise the same
error with the same message.

On inputs that satisfy T1's hypothesis two comparisons of the certificate
cannot change its outcome: the sort's same-direction test `dot >= 0` is
reached with cross == 0, where dot == 0 only for a zero vector, and no edge
functional exceeds 1 at the middle vector, which is on the boundary, so a
hit test `== 1` and `>= 1` find the same edges. The comparator and the
supporting functional are therefore also compared with the references
directly, on the zero vector and on points off the boundary.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from oracles import exact_div, same
from helly_plane.gallery import gallery_case
from helly_plane.generators import (
    antipodal_pair_on_boundary,
    gen_claim1_tuple,
    gen_direction,
    gen_random_ball,
    gen_unit_vectors,
)
from helly_plane.geometry import Family
from helly_plane.norms import (
    edge_functionals,
    euclidean_ball,
    make_polygonal_ball,
    square_ball,
    supporting_functional,
)
from helly_plane.theorems import (
    _halfplane_angle_cmp,
    claim1_triplets,
    halfplane_certificate,
    lemma_conv_check,
    verify_theorem1,
)
from helly_plane.vectors import Vec2

F = Fraction


def _integer_vertex():
    pts = [Vec2(3, 1), Vec2(1, 2), Vec2(-2, 1)]
    return make_polygonal_ball(pts + [-p for p in pts])


def _float_vertex():
    # given by float vertices: the exact polygon of their dyadic values
    pts = [Vec2(0.7, 0.1), Vec2(-0.2, 0.9), Vec2(-0.55, 0.35)]
    return make_polygonal_ball(pts + [-p for p in pts])


def _short_edges():
    # three edge functionals lie within 1e-9 of 1 at the float point (1, e)
    e = F(1, 10**11)
    return make_polygonal_ball(
        [Vec2(1, 0), Vec2(1, e), Vec2(0, 1), Vec2(-1, 0), Vec2(-1, -e), Vec2(0, -1)]
    )


POLYGONS = {
    "maxnorm": square_ball,
    "integer-vertex": _integer_vertex,
    "float-vertex": _float_vertex,
    **{f"random-{seed}": (lambda seed=seed: gen_random_ball(seed)) for seed in (0, 1, 7, 42)},
}
BALLS = {**POLYGONS, "euclidean": euclidean_ball}


def floats(vectors):
    return tuple(Vec2(float(v.x), float(v.y)) for v in vectors)


def rationals(vectors, shift=0):
    return tuple(Vec2(F(v.x) + shift, F(v.y)) for v in vectors)


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def same_report(new, ref) -> bool:
    """Equal T1 reports; integral totals may be `int` in the reference."""
    return new.to_json() == ref.to_json() and (new.total, new.total_norm) == (ref.total, ref.total_norm)


def same_certificate(new, ref) -> bool:
    return (
        same(new.k, ref.k)
        and new.u is ref.u
        and same(new.tangent, ref.tangent)
        and same(new.ordered, ref.ordered)
        and same(new.projections, ref.projections)
        and same(new.projection_sum, ref.projection_sum)
    )


def check_t1(ball, vectors, u, tol=1e-9):
    """T1's report and certificate agree with the references; returns the
    certificate, or None when both raise the same error."""
    assert same_report(verify_theorem1(ball, vectors, u, tol), oracles.ref_verify_theorem1(ball, vectors, u, tol))
    new = outcome(halfplane_certificate, ball, vectors, u, tol)
    ref = outcome(oracles.ref_halfplane_certificate, ball, vectors, u, tol)
    if ref[0] != "ok":
        assert new == ref
        return None
    assert new[0] == "ok" and same_certificate(new[1], ref[1])
    return new[1]


def halfplane_families(ball, seed):
    """(u, vectors) pairs: drawn families of each odd size, their float
    copies, duplicates, and an antipodal pair orthogonal to u."""
    rng = random.Random(seed)
    out = []
    for n in (1, 3, 5, 7, 9):
        u = gen_direction(rng)
        vs = gen_unit_vectors(ball, n, rng.getrandbits(32), halfplane=u)
        fu = floats([u])[0]
        out += [(u, vs), (u, floats(vs)), (fu, floats(vs)), (fu, vs)]
        out.append((u, (vs[0], vs[-1], vs[0], vs[0], vs[-1])))
        if ball.is_polygonal and n >= 5:
            pair = antipodal_pair_on_boundary(ball, u)
            out += [(u, vs[:-2] + pair), (u, floats(vs[:-2] + pair)), (u, pair[::-1] + vs[2:])]
    return out


@pytest.mark.parametrize("name", BALLS)
def test_certificates_match_the_reference(name):
    ball = BALLS[name]()
    for seed in range(12):
        for u, vs in halfplane_families(ball, seed):
            check_t1(ball, vs, u)


def test_certificates_on_rational_copies_of_float_vertex_draws():
    # rational data on a ball given by float vertices, decided on a dyadic
    # lattice; a shift by 3**-40 (within the tolerance) widens it by 3**40
    ball = _float_vertex()
    for seed in range(12):
        for u, vs in halfplane_families(ball, seed)[::4]:
            check_t1(ball, rationals(vs), u)
            check_t1(ball, rationals(vs, F(1, 3**40)), u)


def test_certificates_on_integer_typed_vectors():
    ball, u = _integer_vertex(), Vec2(1, 1)
    ints = tuple(Vec2(int(v.x), int(v.y)) for v in ball.vertices if u.dot(v) >= 0)
    assert check_t1(ball, ints[:3], u) is not None
    check_t1(ball, tuple(v.scale(2) for v in ints[:3]), u)  # off the sphere
    check_t1(square_ball(), (Vec2(1, 1), Vec2(0, 1), Vec2(-1, 1)), Vec2(0, 1))


def test_middle_vector_at_a_vertex():
    # the middle vector is a vertex, where two edge functionals hit
    averaged = 0
    for make in POLYGONS.values():
        ball = make()
        edges = edge_functionals(ball)
        for i, w in enumerate(ball.vertices):
            for vs in ((w, w, w), (ball.vertices[i - 1], w, w), floats((w, w, w))):
                c = check_t1(ball, vs, w)
                averaged += c is not None and c.tangent not in edges
    assert averaged > 0


def test_short_edges_float_case():
    ball = _short_edges()
    v = Vec2(1.0, float(F(1, 10**11)))
    for vs in ((v,), (v, v, v)):
        c = check_t1(ball, vs, Vec2(1, 0))
        assert c is not None


def test_remark1_equality_family():
    case = gallery_case("remark1-equality")
    c = check_t1(case.ball, case.vectors, Vec2(0, 1))
    assert c.projection_sum == 1 and type(c.projection_sum) is Fraction
    check_t1(case.ball, floats(case.vectors), Vec2(0, 1))


def test_failures_match_the_reference():
    square = square_ball()
    cases = [
        ([Vec2(0, 1), Vec2(0, -1), Vec2(0, 1)], Vec2(0, 1)),  # leaves the halfplane
        ([Vec2(0, F(1, 2))] * 3, Vec2(0, 1)),  # not unit
        ([Vec2(1, 1), Vec2(-1, 1)], Vec2(0, 1)),  # even
        ([Vec2(0, 1)], Vec2(0, 0)),  # zero direction
        ([Vec2(0.0, 1.0), Vec2(1.0, -1e-10), Vec2(-1.0, -2e-9)], Vec2(0, 1)),  # tolerant dot
    ]
    for vs, u in cases:
        if u.is_zero():
            assert outcome(verify_theorem1, square, vs, u) == outcome(oracles.ref_verify_theorem1, square, vs, u)
        else:
            check_t1(square, vs, u)


# the comparator and the supporting functional, beyond T1's hypothesis

def _points(ball, seed):
    rng = random.Random(seed)
    vs = list(gen_unit_vectors(ball, 6, seed))
    grid = [Vec2(F(rng.randint(-12, 12), 8), F(rng.randint(-12, 12), 8)) for _ in range(6)]
    return vs + [-v for v in vs[:2]] + [vs[0], Vec2(0, 0)] + grid


@pytest.mark.parametrize("seed", range(8))
def test_angle_comparator_matches_the_reference(seed):
    rng = random.Random(seed)
    points = _points(gen_random_ball(seed), seed)
    d = gen_direction(rng)
    for u in (d, Vec2(0, 1), Vec2(float(d.x), float(d.y))):
        for ws in (points, floats(points)):
            fam = Family(ws)
            key = _halfplane_angle_cmp(fam, u)
            ref = oracles.ref_halfplane_angle_cmp(u)
            for i, j in combinations(range(len(ws)), 2):
                got = (key(i) < key(j), key(j) < key(i))
                assert got == (ref(ws[i]) < ref(ws[j]), ref(ws[j]) < ref(ws[i])), (ws[i], ws[j])


@pytest.mark.parametrize("name", BALLS)
def test_supporting_functional_matches_the_reference(name):
    ball = BALLS[name]()
    for seed in range(6):
        points = [p for p in _points(ball if ball.is_polygonal else square_ball(), seed) if not p.is_zero()]
        for ws in (points, floats(points)):
            fam = Family(ws)
            for i, w in enumerate(ws):
                p, q, e = supporting_functional(ball, *fam.pts[i], fam.scale)
                got = Vec2(exact_div(p, e), exact_div(q, e))
                if not ball.is_polygonal and fam.scale is not None:
                    assert got == w  # exact, as the reference's w itself
                else:
                    assert same(got, oracles.ref_supporting_functional(ball, w, 1e-9)), w


# lemma-conv

def _triples(ball, seed):
    vs = gen_unit_vectors(ball, 3, seed)
    a, b, c = vs
    return [vs, (a, a, -a), (a, b, -a), (a, a, a), (a, b, b), (a, -a, b)]


@pytest.mark.parametrize("name", BALLS)
def test_lemma_conv_matches_the_reference(name):
    ball = BALLS[name]()
    for seed in range(40):
        for vs in _triples(ball, seed):
            for ws in (vs, floats(vs)):
                new = outcome(lemma_conv_check, ball, ws)
                assert new == outcome(oracles.ref_lemma_conv_check, ball, *ws)
                if ws is vs and ball.is_polygonal:
                    assert new[0] == "ok"


def test_lemma_conv_off_the_boundary():
    ball = square_ball()
    for ws in ([Vec2(0, F(1, 2)), Vec2(1, 1), Vec2(-1, 1)], [Vec2(1, 1), Vec2(-1, 1), Vec2(0.0, 0.5)]):
        got = outcome(lemma_conv_check, ball, ws)
        assert got[0] is not None and got == outcome(oracles.ref_lemma_conv_check, ball, *ws)


# Claim 1

def _at_plus_minus_one(rng):
    """Six zero-sum values in [-1, 1] with mixed denominators whose triple
    (0, 1, 2) sums to exactly 1 or -1, and so (3, 4, 5) to its negative."""
    while True:
        x0, x1, x3, x4 = (F(rng.randint(-30, 30), rng.choice([2, 3, 5, 7, 12, 35])) for _ in range(4))
        s = rng.choice([1, -1])
        xs = [x0, x1, s - x0 - x1, x3, x4, -s - x3 - x4]
        if all(abs(x) <= 1 for x in xs):
            return xs


def test_claim1_at_triple_sums_of_plus_minus_one():
    rng = random.Random(1)
    for _ in range(300):
        xs = _at_plus_minus_one(rng)
        got = claim1_triplets(xs)
        assert got == oracles.ref_claim1_triplets(xs)
        assert (0, 1, 2) in got and (3, 4, 5) in got
    xs = [F(1, 2), F(1, 3), F(1, 6), F(-1, 2), F(-1, 3), F(-1, 6)]
    assert claim1_triplets(xs) == oracles.ref_claim1_triplets(xs)
    assert (0, 1, 2) in claim1_triplets(xs)


def test_claim1_matches_the_reference():
    rng = random.Random(2)
    for seed in range(300):
        xs = list(gen_claim1_tuple(seed))
        for ys in (xs, [float(x) for x in xs], xs[:3] + [float(x) for x in xs[3:]]):
            assert same(claim1_triplets(ys), oracles.ref_claim1_triplets(ys))
        ys = [float(x) + rng.choice([0.0, 1e-12, -1e-12]) for x in xs]
        assert outcome(claim1_triplets, ys) == outcome(oracles.ref_claim1_triplets, ys)


def test_claim1_failures_match_the_reference():
    for xs in (
        [F(2), F(-2), F(0), F(0), F(0), F(0)],
        [F(1)] * 6,
        [F(1)] * 5,
        [1.0 + 2e-9, -1.0, 0.0, 0.0, 0.0, 0.0],
        [F(1, 3), F(1, 3), F(1, 3), F(-1, 3), F(-1, 3), F(-1, 3) + F(1, 10**12)],
    ):
        assert outcome(claim1_triplets, xs) == outcome(oracles.ref_claim1_triplets, xs)
