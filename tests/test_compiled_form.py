"""Only `norms` reads a compiled polygon.

The integer edge normals, their common denominator, their float copies
and the integer vertex cycle are the kernel's own format, and so are the
packed lanes of `SubsetSums` and a ball's lane constants. Every other
module asks `norms` instead (`gauge`, `SubsetSums.tests`/`.gauges`,
`shared_edge_value`, `edge_functionals`, `lattice_vertices`,
`lattice_in_ball`), so the edge functionals keep one form outside it.
A ball's vertex cycle is a `Family`: other modules may read its vectors,
its JSON and its floats, but its lattice form (`.vertices.pts`,
`.vertices.scale`) only through `lattice_vertices`.
"""

import ast
from pathlib import Path

import pytest

import helly_plane

COMPILED = {
    "normals", "den", "float_normals",
    # the packed form
    "_lanes", "_guard", "_unit", "_top", "_reach", "_mask", "_shifts", "_packings",
    "_row_bound",
}
MODULES = sorted(
    p for p in Path(helly_plane.__file__).parent.glob("*.py") if p.name != "norms.py"
)


# the lattice form of a ball's vertex `Family`
VERTEX_LATTICE = {"pts", "scale"}


def _reads(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (
            node.attr in COMPILED
            or node.attr in VERTEX_LATTICE
            and isinstance(node.value, ast.Attribute) and node.value.attr == "vertices"
        )
    ]


def test_reads_are_found():
    tree = ast.parse(
        "ball.normals\nx = b.den + 1\nf(ball.float_normals)\ng(ball.vertices.pts)\n"
        "ball.vertices.scale\nball.vertices\nball.vertices.to_json()\nfam.pts, fam.scale\n"
    )
    assert sorted(_reads(tree)) == [1, 2, 3, 4, 5]
    assert _reads(ast.parse("sums._lanes\nball._packings[w]\nsums.tests(3, gt)\n")) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_compiled_form_is_read_only_in_norms(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _reads(tree) == []
