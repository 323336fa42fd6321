"""What a number is, is decided in one place.

`scalars` alone reads a coordinate: `scalars.exact_pairs`, the one reader,
puts pairs of numbers on the lattice of their exact values, and
`scalars.float_pairs` rounds them to floats. Both apply one rule: a
coordinate is an int (a bool is one), a `Fraction` or a float, and it is
finite. Anything else, a `Decimal` or a numeral str among them, is a
`BadInput` at every entry point. A module that reads `.numerator`,
`.denominator` or `.as_integer_ratio` itself holds a second, drifting copy
of that rule.
"""

import ast
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import helly_plane
from helly_plane.algorithms import make_generic
from helly_plane.errors import BadInput
from helly_plane.geometry import Family
from helly_plane.norms import make_polygonal_ball, square_ball, supporting_functional
from helly_plane.theorems import claim1_triplets
from helly_plane.vectors import Vec2

MODULES = sorted(
    p for p in Path(helly_plane.__file__).parent.glob("*.py") if p.name != "scalars.py"
)
READS = {"numerator", "denominator", "as_integer_ratio"}


def _reads(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in READS]


def test_reads_are_found():
    tree = ast.parse("x.numerator\nf(y.denominator)\nz.as_integer_ratio()\nw.numerators\n")
    assert _reads(tree) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_number_is_read_outside_scalars(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _reads(tree) == []


def test_a_ball_of_decimal_vertices_is_bad_input():
    vertices = [Vec2(Decimal("1.5"), Decimal(1)), Vec2(Decimal(-1), Decimal(1)),
                Vec2(Decimal("-1.5"), Decimal(-1)), Vec2(Decimal(1), Decimal(-1))]
    with pytest.raises(BadInput, match="plane vectors of finite numbers"):
        make_polygonal_ball(vertices)


def test_numeral_strs_for_lambda_and_epsilon_are_bad_input():
    with pytest.raises(BadInput, match="must be finite numbers"):
        make_generic(square_ball(), [Vec2(Fraction(1, 2), 0)], "0.9", "1/1000", 1)


def test_a_nan_claim1_value_is_bad_input():
    with pytest.raises(BadInput, match="NaN"):
        claim1_triplets([math.nan, 0.0, 0, 0, 0, 0])


@pytest.mark.parametrize("x, y", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
def test_supporting_functional_at_a_point_that_is_not_finite_is_bad_input(x, y):
    with pytest.raises(BadInput, match="finite numbers"):
        supporting_functional(square_ball(), x, y, None)


def test_a_bool_is_an_int():
    assert Family([Vec2(True, False)]).pts == [(1, 0)]
    assert len(claim1_triplets([True, -1, 0, 0, 0, 0])) == 20
