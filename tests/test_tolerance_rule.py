"""Tolerance is decided in one place.

`scalars` alone looks at whether a value is a float (`is_float`, `sgn`,
the comparison helpers); every other module asks it. An inline
`isinstance(x, float)` elsewhere is a second, drifting copy of that rule.
"""

import ast
from pathlib import Path

import pytest

import helly_plane

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
