"""The polygon compiler against the two-chain reference.

`norms.compile_lattice` sets a point set closed under negation up from
half its cycle (one hull chain, no symmetry re-check, half the integer edge
rows, and a ball printed from half its numerals), and any other set from
both chains. `oracles.ref_compile_polygon` is the compiler as it was before,
on its own copy of the two-chain hull. Every point set, built as a
`UnitBall` and as a `ConvexBody`, must compile to the same vertex lattice,
normals, denominator and JSON text, or raise the same
exception with the same message. A float coordinate is the dyadic rational
it denotes, in the library and in the reference.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helly_plane.errors import HellyPlaneError
from helly_plane.geometry import Family
from helly_plane.norms import (
    ConvexBody, UnitBall, ball_from_json, compile_lattice, make_convex_body, make_polygonal_ball,
)
from helly_plane.vectors import Vec2

BUILDERS = {UnitBall: make_polygonal_ball, ConvexBody: make_convex_body}

rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7]))
# ±0.0 and exact binary fractions, so that negation meets the signed zeros
floats = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0, 0.1, -0.1, 1 / 3])
small = st.integers(-3, 3)
lattice_points = st.builds(Vec2, rational, rational) | st.builds(Vec2, small, small)
float_points = st.builds(Vec2, floats, floats) | st.builds(Vec2, floats, st.integers(-2, 2))


@st.composite
def point_sets(draw, points):
    """Point lists closed under negation or not: a base with its negations,
    duplicates, interior points and collinear runs, shuffled."""
    base = draw(st.lists(points, min_size=1, max_size=6))
    shapes = ["symmetric", "symmetric+extra", "plain", "collinear", "degenerate"]
    shape = draw(st.sampled_from(shapes))
    if shape in ("symmetric", "symmetric+extra"):
        pts = base + [-p for p in base]
        if shape == "symmetric+extra":
            pts += draw(st.lists(points, min_size=1, max_size=3))
    elif shape == "collinear":
        d = base[0]
        pts = [d.scale(k) for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))]
        pts += [-p for p in pts] + base[1:2]
    elif shape == "degenerate":
        pts = base[:1] * draw(st.integers(1, 3)) + [-p for p in base[:1]]
    else:
        pts = base
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))  # duplicates
    return draw(st.permutations(pts))


def reference_text(ref) -> str:
    """The JSON text of a reference polygon: its `Vec2.to_json` numerals."""
    doc = {"type": "polygonal", "vertices": [v.to_json() for v in ref.vertices]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def outcome(build, *args):
    try:
        return build(*args)
    except HellyPlaneError as exc:
        return (type(exc), str(exc))


def assert_same_compile(got, ref):
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert type(got) is type(ref)
    fam = Family(ref.vertices)
    assert (got.vertices.pts, got.vertices.scale) == (fam.pts, fam.scale)
    assert (got.normals, got.den) == (ref.normals, ref.den)
    assert got.json_text == reference_text(ref)


@pytest.mark.parametrize("cls", [UnitBall, ConvexBody])
@given(points=st.one_of(point_sets(lattice_points), point_sets(float_points)))
def test_compile_matches_the_two_chain_reference(cls, points):
    ref = outcome(oracles.ref_compile_polygon, points, cls)
    assert_same_compile(outcome(BUILDERS[cls], points), ref)
    # the generators' form: integer pairs over a scale that is not the
    # coarsest, of the exact values (a float is the dyadic rational it denotes)
    fam = Family([Vec2(Fraction(p.x), Fraction(p.y)) for p in points])
    pairs = [(3 * x, 3 * y) for x, y in fam.pts]
    assert_same_compile(outcome(compile_lattice, pairs, 3 * fam.scale, cls), ref)


def test_signed_zeros_are_the_rational_zero():
    # a ball file is read exactly, and float vertices are the rationals they
    # denote: -0.0 and 0.0 are both 0, printed "0"
    text = '{"type":"polygonal","vertices":[["1","0"],["0","1"],["-1","0"],["0","-1"]]}'
    four = [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]
    assert ball_from_json({"type": "polygonal", "vertices": four}).json_text == text
    ball = make_polygonal_ball([Vec2(1.0, -0.0), Vec2(-0.0, 1.0), Vec2(-1.0, 0.0), Vec2(0.0, -1.0)])
    assert ball.json_text == text and ball.normals is not None
