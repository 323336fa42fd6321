"""Tolerance is decided in one place.

`scalars` alone looks at whether a value is a float (`is_float`, `sgn`,
the comparison helpers); every other module asks it. An inline
`isinstance(x, float)` elsewhere is a second, drifting copy of that rule.
So is an inline tolerance comparison (`abs(x - 1.0) <= TOL`, `y < -tol`,
`c > 1e-12`) and a module's own tolerance constant: "within tol" is
decided by the `scalars` relations alone.
A tolerance that is not finite and >= 0 is bad input at every library
entry point that takes one, as it is in `run_suite` (`scalars.check_tol`).
"""

import ast
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import helly_plane
from helly_plane.algorithms import choose_signs, ginzburg_reduce
from helly_plane.errors import BadInput
from helly_plane.generators import (
    gen_claim1_tuple, gen_euclidean_halfplane_instance, gen_unit_vectors, gen_zero_sum_six,
)
from helly_plane.norms import euclidean_ball
from helly_plane.suites import SuiteConfig, run_suite
from helly_plane.theorems import (
    claim1_triplets, corollary_check, halfplane_certificate, lemma_conv_check,
    lemma_main_witness, verify_helly, verify_theorem1,
)

MODULES = sorted(
    p for p in Path(helly_plane.__file__).parent.glob("*.py") if p.name != "scalars.py"
)


def _names_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Tuple):
        return any(_names_float(e) for e in node.elts)
    return False


def _offences(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _names_float(node.args[1])
    ]


def test_offences_are_found():
    tree = ast.parse("isinstance(x, float)\nisinstance(y, (int, float))\nisinstance(z, int)\n")
    assert _offences(tree) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_float_isinstance_outside_scalars(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _offences(tree) == []


def _bare(node: ast.AST):
    """The nodes of an expression outside the arguments of any call but `abs`."""
    yield node
    if isinstance(node, ast.Call) and not (isinstance(node.func, ast.Name) and node.func.id == "abs"):
        return
    for child in ast.iter_child_nodes(node):
        yield from _bare(child)


def _tolerance_like(node: ast.AST) -> bool:
    """A name ending in "tol", or a float literal in (0, 1e-6]."""
    if isinstance(node, ast.Name):
        return node.id.lower().endswith("tol")
    return isinstance(node, ast.Constant) and type(node.value) is float and 0 < abs(node.value) <= 1e-6


def _tolerance_offences(tree: ast.AST) -> list[int]:
    """Comparisons that apply a tolerance inline, and tolerance constants."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            parts = [node.left, *node.comparators]
            if any(_tolerance_like(n) for part in parts for n in _bare(part)):
                found.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and _tolerance_like(t) for t in targets):
                found.append(node.lineno)
    return found


def test_tolerance_offences_are_found():
    tree = ast.parse(
        "abs(x - 1.0) <= TOL\nif y < -tol: pass\nabs(c) > 1e-12\nTOL = 1e-9\ntol: float = 1e-9\n"
        "le(x, 1, tol)\nsgn(c, 1e-12) < 0\nrng.random() < 0.3\neps = 1e-2\nside_tol = tol * 2\n"
    )
    assert sorted(_tolerance_offences(tree)) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_inline_tolerance_outside_scalars(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _tolerance_offences(tree) == []


BALL = euclidean_ball()
HALFPLANE = gen_euclidean_halfplane_instance(3)  # (vectors, u)
UNITS = gen_unit_vectors(BALL, 7, 3)

# each entry point that takes a tolerance, on input that is good apart from it
ENTRY_POINTS = {
    "verify_theorem1": lambda tol: verify_theorem1(BALL, *HALFPLANE, tol),
    "halfplane_certificate": lambda tol: halfplane_certificate(BALL, *HALFPLANE, tol),
    "verify_helly": lambda tol: verify_helly(BALL, UNITS[:5], strict=False, tol=tol),
    "corollary_check": lambda tol: corollary_check(BALL, UNITS, 5, tol),
    "lemma_conv_check": lambda tol: lemma_conv_check(BALL, UNITS[:3], tol),
    "lemma_main_witness": lambda tol: lemma_main_witness(BALL, gen_zero_sum_six(BALL, 3), tol),
    "claim1_triplets": lambda tol: claim1_triplets(gen_claim1_tuple(3), tol),
    "choose_signs": lambda tol: choose_signs(BALL, UNITS, tol),
    "ginzburg_reduce": lambda tol: ginzburg_reduce(*HALFPLANE, tol),
}


@pytest.mark.parametrize(
    "tol",
    [math.nan, -1.0, math.inf, "1e-9", None, True, False],  # 0 <= True < inf, yet a bool
    ids=["nan", "negative", "inf", "str", "none", "true", "false"],
)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_bad_tolerance_is_bad_input(name, tol):
    ENTRY_POINTS[name](1e-9)  # the input is good
    with pytest.raises(BadInput, match="tol must be finite and >= 0"):
        ENTRY_POINTS[name](tol)


@pytest.mark.parametrize("tol", [True, False], ids=["true", "false"])
def test_run_suite_refuses_a_bool_tolerance(tol):
    with pytest.raises(BadInput, match="tol must be finite and >= 0"):
        run_suite(SuiteConfig(suite="thm1", trials=2, seed=0, tol=tol))


@pytest.mark.parametrize("tol", [Fraction(1, 10**9), Decimal("1e-9")], ids=["fraction", "decimal"])
def test_run_suite_refuses_a_tolerance_that_is_not_an_int_or_a_float(tol):
    # refused before trial 0, not when the report prints it
    with pytest.raises(BadInput, match="tol must be of type int or float"):
        run_suite(SuiteConfig("thm2", 2, 1, tol=tol))
    assert '"tol":0,' in run_suite(SuiteConfig("thm2", 2, 1, tol=0)).to_json_text()
