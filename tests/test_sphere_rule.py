"""Comparisons of a norm with 1 are decided on the lattice.

`norms.SubsetSums.tests` decides `rel(gauge(sum), 1)` on two ints wherever the
ball and the data are rational; a verifier that writes
`le(gauge(ball, v), 1, tol)` forms a `Fraction` only to compare it with 1.
In `theorems` and `algorithms`, no call to `eq`, `le`, `ge` or `gt` may take
a `gauge(...)` call as its first argument and the literal 1 as its second.
"""

import ast
from pathlib import Path

import pytest

import helly_plane

PACKAGE = Path(helly_plane.__file__).parent
MODULES = [PACKAGE / "theorems.py", PACKAGE / "algorithms.py"]
RELS = {"eq", "le", "ge", "gt"}


def _is_gauge_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "gauge") or (
        isinstance(f, ast.Attribute) and f.attr == "gauge"
    )


def _offences(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in RELS
        and len(node.args) >= 2
        and _is_gauge_call(node.args[0])
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == 1
    ]


def test_offences_are_found():
    tree = ast.parse(
        "le(gauge(b, v), 1, tol)\n"
        "not eq(norms.gauge(b, v), 1)\n"
        "ge(g, 1)\n"
        "gt(gauge(b, v), 2)\n"
        "le(1, gauge(b, v))\n"
    )
    assert _offences(tree) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_gauge_compared_with_one(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _offences(tree) == []
