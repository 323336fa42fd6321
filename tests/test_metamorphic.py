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
"""

import random

from helly_plane.generators import gen_direction, gen_random_ball, gen_unit_vectors
from helly_plane.norms import make_polygonal_ball, square_ball
from helly_plane.theorems import corollary_check, verify_helly, verify_theorem1
from helly_plane.vectors import Vec2

DRAWS = 300


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
