"""Library postconditions must survive `python -O`.

An `assert` statement vanishes under -O, and a bare `AssertionError` is not
a library error callers can catch; both are banned from the package source.
"""

import ast
from pathlib import Path

import pytest

import helly_plane

MODULES = sorted(Path(helly_plane.__file__).parent.glob("*.py"))


def _offences(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_or_assertion_error(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _offences(tree) == []
