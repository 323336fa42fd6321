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
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from helly_plane.errors import HellyPlaneError
from helly_plane.generators import (
    gen_claim1_tuple, gen_direction, gen_random_ball, gen_unit_vectors, gen_zero_sum_six,
)
from helly_plane.norms import gauge, make_polygonal_ball, square_ball
from helly_plane.theorems import (
    claim1_triplets, corollary_check, lemma_conv_check, lemma_main_witness, verify_helly,
    verify_theorem1,
)
from helly_plane.vectors import Vec2, vsum

DRAWS = 300
LEMMA_DRAWS = 100
CLAIM1_DRAWS = 200


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
        u = gen_direction(rng)
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
