"""The library stays stdlib-only.

Every absolute import in the package source, at any depth (inside
functions too), must name a top-level module of the standard library;
imports of the package's own modules are relative.
"""

import ast
import sys
from pathlib import Path

import pytest

import helly_plane

MODULES = sorted(Path(helly_plane.__file__).parent.glob("*.py"))


def _outside_stdlib(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_outside_imports_are_found():
    tree = ast.parse(
        "import math, numpy.linalg\n"
        "from __future__ import annotations\n"
        "from .norms import gauge\n"
        "def f():\n"
        "    from hypothesis import given\n"
    )
    assert _outside_stdlib(tree) == ["numpy.linalg", "hypothesis"]


def test_modules_are_found():
    assert {"theorems.py", "norms.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert _outside_stdlib(ast.parse(path.read_text(encoding="utf-8"))) == []
