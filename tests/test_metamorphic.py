"""Metamorphic checks of the exact verifiers: maps of an instance under
which every verdict, every total norm and every witness index set must
stay exactly as they were. No oracle is needed, only the statement.

Each family is drawn on a random ball or on the max-norm ball, two in
three of them in the halfplane of a drawn u, and mapped three ways:
- reversed, a permutation: witness subsets map through it;
- negated: the balls are 0-symmetric, so every norm stays, and u goes to -u;
- moved by the unimodular A = [[2, 1], [1, 1]] together with the ball's
  vertices, since gauge_{A·B}(A·z) = gauge_B(z); T1's u goes to A⁻ᵀu, as
  u·v = (A⁻ᵀu)·(A·v). A moves the vectors onto lattices and lane widths
  that the generators never draw.

The lemmas are read under the same three maps: lemma-conv's two
memberships, and lemma-main's witness, the first triple whose sum is in the
ball, whose triple set maps through the reversal. Claim 1 is read under
reversal and negation, on rational and float values: its triple set maps
through the reversal, and float values are decided on their exact sums,
which do not depend on the order they are added in.

The procedures are read under reversal, negation and the shears
[[1, s], [0, 1]] with s = 1 and s = 10¹², which move the ball with the
family and keep every y; the second puts the family on lanes far wider
than any drawn. `choose_signs` flips each vector into the upper halfplane
by the sign of its y, so its signs reverse with the family, the signed
family is the same under negation except where y = 0, and a shear keeps
every sign. Whether `shared_edge_value` finds two subsets sharing an edge
value does not depend on the order, the sign or a linear image of the
family, since the edge values move with the ball. The symmetry finders'
witnesses are mapped with their body by A, by −I and by the 10¹² shear,
each of determinant 1, and must be accepted on the mapped body.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from helly_plane.algorithms import choose_signs
from helly_plane.errors import HellyPlaneError
from helly_plane.generators import (
    gen_asymmetric_body, gen_claim1_tuple, gen_direction, gen_random_ball, gen_symmetric_body,
    gen_unit_vectors, gen_zero_sum_six,
)
from helly_plane.norms import (
    boundary_point, edge_functionals, gauge, make_convex_body, make_polygonal_ball,
    shared_edge_value, square_ball,
)
from helly_plane.symmetry import (
    find_violation_halfplane, find_violation_surrounding, verify_halfplane_witness,
    verify_surrounding_witness,
)
from helly_plane.theorems import (
    claim1_triplets, corollary_check, lemma_conv_check, lemma_main_witness, verify_helly,
    verify_theorem1,
)
from helly_plane.vectors import Vec2, vsum

DRAWS = 300
LEMMA_DRAWS = 100
CLAIM1_DRAWS = 200
PROCEDURE_DRAWS = 60
BODY_DRAWS = 30


def _a(v: Vec2) -> Vec2:
    return Vec2(2 * v.x + v.y, v.x + v.y)


def _a_inverse_transpose(u: Vec2) -> Vec2:
    return Vec2(u.x - u.y, 2 * u.y - u.x)  # A⁻¹ = [[1, -1], [-1, 2]] is symmetric


def _readings(ball, vectors, u, relabel=lambda i: i):
    """Each verifier's verdicts, total norm and witness subsets, the subsets
    relabelled into the original family's indices."""
    reports = [verify_helly(ball, vectors, False), verify_helly(ball, vectors, True)]
    reports.append(verify_theorem1(ball, vectors, u))
    if len(vectors) >= 5:
        reports.append(corollary_check(ball, vectors, 5))
    return [
        (
            r.theorem,
            r.hypothesis_holds,
            r.conclusion_holds,
            r.total_norm,
            sorted(tuple(sorted(map(relabel, w.subset))) for w in r.witnesses),
        )
        for r in reports
    ]


def test_verdicts_are_invariant_under_reversal_negation_and_a_unimodular_map():
    rng = random.Random(20240628)
    square = square_ball()
    held = {"T1": [0, 0], "T2": [0, 0], "T3": [0, 0], "COR": [0, 0]}
    for i in range(DRAWS):
        ball = square if i % 2 else gen_random_ball(rng.getrandbits(32))
        n = (3, 5, 7, 9)[i // 2 % 4]
        u = gen_direction(rng)[0]
        halfplane = u if i % 3 else None
        vectors = list(gen_unit_vectors(ball, n, rng.getrandbits(32), halfplane=halfplane))
        want = _readings(ball, vectors, u)
        for theorem, hypothesis, *_ in want:
            held[theorem][hypothesis] += 1
        moved = make_polygonal_ball([_a(v) for v in ball.vertices])
        assert _readings(ball, vectors[::-1], u, lambda j: n - 1 - j) == want, i
        assert _readings(ball, [-v for v in vectors], -u) == want, i
        assert _readings(moved, [_a(v) for v in vectors], _a_inverse_transpose(u)) == want, i
    # every verifier is read with its hypothesis failing and holding
    assert min(min(counts) for counts in held.values()) >= 10, held


def _outcome(fn, *args):
    """What fn returns, or the kind of error it raises: a message names
    indices and vectors, which the maps move."""
    try:
        return "ok", fn(*args)
    except HellyPlaneError as exc:
        return type(exc).__name__, None


def _reversed_triples(triples):
    """Triples of a reversed six-family in the original family's indices,
    sorted; the map j -> 5 - j is its own inverse, so it also maps back."""
    return sorted(tuple(sorted(5 - j for j in t)) for t in triples)


def test_lemmas_are_invariant_under_reversal_negation_and_a_unimodular_map():
    rng = random.Random(20240629)
    square = square_ball()
    seen = Counter()
    for i in range(LEMMA_DRAWS):
        ball = square if i % 2 else gen_random_ball(rng.getrandbits(32))
        moved = make_polygonal_ball([_a(v) for v in ball.vertices])
        # three boundary vectors, in a drawn halfplane two times in three;
        # one draw in five has a vector off the boundary
        halfplane = gen_direction(rng) if i % 3 else None
        vs = list(gen_unit_vectors(ball, 3, rng.getrandbits(32), halfplane=halfplane))
        if i % 5 == 0:
            vs[1] = vs[1].scale(Fraction(1, 2))
        want = _outcome(lemma_conv_check, ball, vs)
        seen[want] += 1
        assert _outcome(lemma_conv_check, ball, vs[::-1]) == want, i
        assert _outcome(lemma_conv_check, ball, [-v for v in vs]) == want, i
        assert _outcome(lemma_conv_check, moved, [_a(v) for v in vs]) == want, i
        # six zero-sum vectors of the ball; one draw in five is pushed out of it
        zs = list(gen_zero_sum_six(ball, rng.getrandbits(32)))
        if i % 5 == 0:
            zs = [z.scale(3) for z in zs]
        kind, witness = _outcome(lemma_main_witness, ball, zs)
        seen[kind] += 1
        assert _outcome(lemma_main_witness, ball, [-z for z in zs]) == (kind, witness), i
        assert _outcome(lemma_main_witness, moved, [_a(z) for z in zs]) == (kind, witness), i
        back_kind, back = _outcome(lemma_main_witness, ball, zs[::-1])
        assert back_kind == kind, i
        if kind == "ok":
            # the first triple of the set whose sums are in the ball, in
            # either order of the family
            inside = [t for t in combinations(range(6), 3) if gauge(ball, vsum([zs[j] for j in t])) <= 1]
            assert witness == inside[0], i
            assert back == min(_reversed_triples(inside)), i
    assert min(seen[k] for k in [("ok", (True, True)), ("ok", (False, False)), ("NotOnBoundary", None),
                                 "ok", "PreconditionFailed"]) >= 5, seen


def test_claim1_is_invariant_under_reversal_and_negation():
    seen = Counter()
    for seed in range(CLAIM1_DRAWS):
        xs = gen_claim1_tuple(seed)
        if seed % 7 == 0:  # no zero sum, or a value out of [-1, 1]
            xs[seed % 6] += Fraction(1, 1000) if seed % 2 else 2
        for ys in (xs, [float(x) for x in xs]):
            kind, got = _outcome(claim1_triplets, ys)
            seen[kind] += 1
            assert _outcome(claim1_triplets, [-y for y in ys]) == (kind, got), seed
            back_kind, back = _outcome(claim1_triplets, ys[::-1])
            assert back_kind == kind, seed
            if kind == "ok":
                assert _reversed_triples(back) == got, seed
    assert min(seen.values()) >= 20 and len(seen) == 2, seen


def _shear(s):
    return lambda v: Vec2(v.x + s * v.y, v.y)


SHEARS = [_shear(1), _shear(10**12)]


def _moved(ball, f, vectors):
    return make_polygonal_ball([f(v) for v in ball.vertices]), [f(v) for v in vectors]


def test_choose_signs_is_invariant_under_reversal_negation_and_shears():
    rng = random.Random(20261021)
    square = square_ball()
    seen = Counter()
    for i in range(PROCEDURE_DRAWS):
        ball = square if i % 2 else gen_random_ball(rng.getrandbits(32))
        n = (3, 5, 7)[i % 3]
        vs = list(gen_unit_vectors(ball, n, rng.getrandbits(32)))
        if i % 4 == 0:  # a vector on the x-axis, whose sign is 1 on either side
            vs[rng.randrange(n)] = boundary_point(ball, Vec2(rng.choice([1, -1]), 0))
        signs = choose_signs(ball, vs).signs
        seen.update((s, v.y == 0) for s, v in zip(signs, vs))
        assert choose_signs(ball, vs[::-1]).signs == signs[::-1], i
        negated = choose_signs(ball, [-v for v in vs]).signs
        assert negated == [s if v.y == 0 else -s for s, v in zip(signs, vs)], i
        for shear in SHEARS:
            assert choose_signs(*_moved(ball, shear, vs)).signs == signs, i
    assert seen[(1, False)] >= 20 and seen[(-1, False)] >= 20 and seen[(1, True)] >= 10, seen


def _collide(ball, vectors, a, b) -> bool:
    """Whether the sums of subsets a != b share a value under the edge
    functionals, on the exact values."""
    normals = edge_functionals(ball)
    values = [{n.dot(vsum([vectors[i] for i in t])) for n in normals} for t in (a, b)]
    return a != b and bool(values[0] & values[1])


def test_shared_edge_value_is_invariant_under_reversal_negation_and_shears():
    rng = random.Random(20261022)
    square = square_ball()
    coords = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(1)]
    seen = Counter()
    for i in range(PROCEDURE_DRAWS):
        ball = square if i % 2 else gen_random_ball(rng.getrandbits(32))
        k = rng.randint(1, 3)
        if i % 3:  # few distinct coordinates, so shared values come up often
            vs = [Vec2(rng.choice(coords), rng.choice(coords)) for _ in range(rng.randint(1, 4))]
        else:
            vs = list(gen_unit_vectors(ball, rng.randint(2, 5), rng.getrandbits(32)))
        found = shared_edge_value(ball, vs, k)
        seen[found is None] += 1
        maps = [(ball, vs[::-1]), (ball, [-v for v in vs])] + [_moved(ball, f, vs) for f in SHEARS]
        for moved_ball, moved in [(ball, vs)] + maps:
            got = shared_edge_value(moved_ball, moved, k)
            assert (got is None) == (found is None), i
            assert got is None or _collide(moved_ball, moved, *got), i
    assert min(seen[True], seen[False]) >= 10, seen


SYMMETRY_MAPS = [_a, Vec2.__neg__, _shear(10**12)]


def _mapped(w, f):
    return replace(w, a=f(w.a), b=f(w.b), c=f(w.c), h=f(w.h))


def test_symmetry_witnesses_are_accepted_on_the_mapped_body():
    for seed in range(BODY_DRAWS):
        body = gen_asymmetric_body(seed)
        halfplane, surrounding = find_violation_halfplane(body), find_violation_surrounding(body)
        for f in SYMMETRY_MAPS:
            moved = make_convex_body([f(v) for v in body.vertices])
            assert verify_halfplane_witness(moved, _mapped(halfplane, f)), seed
            assert verify_surrounding_witness(moved, _mapped(surrounding, f)), seed
        # a symmetric body, and its images, have no witness
        body = gen_symmetric_body(seed)
        for f in [lambda v: v] + SYMMETRY_MAPS:
            moved = make_convex_body([f(v) for v in body.vertices])
            assert find_violation_halfplane(moved) is None and find_violation_surrounding(moved) is None, seed
