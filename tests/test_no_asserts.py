"""Library postconditions must survive `python -O`, and bad input must
raise a library error.

An `assert` statement vanishes under -O, and a bare `AssertionError` is not
a library error callers can catch; both are banned from the package source.
So are bare `ValueError`, `IndexError`, `KeyError` and `TypeError` raises:
malformed input raises `errors.BadInput` (itself a `ValueError`) or another
`HellyPlaneError`.
"""

import ast
from pathlib import Path

import pytest

import helly_plane

MODULES = sorted(Path(helly_plane.__file__).parent.glob("*.py"))
BARE = {"AssertionError", "ValueError", "IndexError", "KeyError", "TypeError"}


def _offences(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BARE:
                lines.append(node.lineno)
    return lines


def test_offences_are_found():
    tree = ast.parse(
        "assert x\n"
        "raise AssertionError\n"
        "raise ValueError('v')\n"
        "raise IndexError\n"
        "raise KeyError(k) from None\n"
        "raise TypeError('t')\n"
        "raise BadInput('b')\n"
        "raise\n"
    )
    assert _offences(tree) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_or_assertion_error(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _offences(tree) == []
