"""Only `norms` reads a compiled polygon.

The integer edge normals, their common denominator, their float copies
and the integer vertex cycle are the kernel's own format, and so are the
packed lanes of `SubsetSums` and a ball's lane constants. Every other
module asks `norms` instead (`gauge`, `SubsetSums.tests`/`.gauges`,
`edge_functionals`, `lattice_vertices`, `lattice_in_ball`), so the edge functionals keep one form outside it.
"""

import ast
from pathlib import Path

import pytest

import helly_plane

COMPILED = {
    "normals", "den", "float_normals", "vertex_grid",
    # the packed form
    "_lanes", "_guard", "_unit", "_top", "_ru", "_reach", "_mask", "_shifts", "_packings",
}
MODULES = sorted(
    p for p in Path(helly_plane.__file__).parent.glob("*.py") if p.name != "norms.py"
)


def _reads(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in COMPILED
    ]


def test_reads_are_found():
    tree = ast.parse(
        "ball.normals\nx = b.den + 1\nf(ball.float_normals)\ng(ball.vertex_grid)\nball.vertices\n"
    )
    assert _reads(tree) == [1, 2, 3, 4]
    assert _reads(ast.parse("sums._lanes\nball._packings[w]\nsums.tests(3, gt)\n")) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_compiled_form_is_read_only_in_norms(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _reads(tree) == []
