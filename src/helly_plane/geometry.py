"""Exact convex-position primitives: lattice families, the halfplane test
and where the origin lies against a triangle.

`Family` is the one lattice form of a finite point set: a drawn or given
family of vectors, and the vertex cycle of every polygonal ball or body
(`norms`), is integer pairs over one scale (a vertex cycle always is), or
float pairs. Given vectors reach that form through the readers of
`scalars` (`lattice_pairs`, `exact_pairs`), which decide what a
coordinate may be. `dots` is the one halfplane test of such points, from
draw to certificate.

Everything here is exact on rational data; predicates that also have to
serve float data take an optional tolerance which only kicks in for float
operands.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .errors import BadInput
from .scalars import Scalar, exact_pairs, float_pairs, format_ratio, lattice_pairs, sgn
from .vectors import Vec2


class Family(Sequence):
    """A family of plane vectors carried in its lattice form.

    `pts` holds integer pairs over `scale` (the coarsest such lattice) when
    every coordinate is rational, else float coordinates and `scale` None.
    Generators and the polygon compiler build it from their pairs
    (`from_lattice`); its `Vec2`s are formed on first read, once, and
    iteration walks them. `Family(vectors)` puts given vectors on the
    lattice (`scalars.lattice_pairs`) and keeps them (an entry that is not
    a `Vec2` of finite ints, `Fraction`s or floats is a `BadInput`), and
    `Family(family)` is the family itself.
    `==` and `hash` are the tuple's.
    """

    def __new__(cls, vectors: Iterable[Vec2]) -> "Family":
        if type(vectors) is cls:
            return vectors
        vectors = tuple(vectors)
        fam = cls.from_lattice(*lattice_pairs(_coordinates(vectors)))
        fam.vectors = vectors
        return fam

    @classmethod
    def from_lattice(cls, pts: list[tuple], scale: Optional[int]) -> "Family":
        """The family of the integer pairs `pts` / `scale`, put on its
        coarsest lattice (one gcd); float pairs when `scale` is None."""
        if scale is not None:
            g = math.gcd(scale, *[c for xy in pts for c in xy])
            if g != 1:
                pts, scale = [(x // g, y // g) for x, y in pts], scale // g
        fam = object.__new__(cls)
        fam.pts, fam.scale = pts, scale
        return fam

    @cached_property
    def vectors(self) -> tuple[Vec2, ...]:
        if self.scale is None:
            return tuple([Vec2(x, y) for x, y in self.pts])
        return tuple([Vec2(Fraction(x, self.scale), Fraction(y, self.scale)) for x, y in self.pts])

    def __getitem__(self, i):
        return self.vectors[i]

    def __iter__(self) -> Iterator[Vec2]:
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.pts)

    def __eq__(self, other: object) -> bool:
        return self.vectors == (other.vectors if isinstance(other, Family) else other)

    def __hash__(self) -> int:
        return hash(self.vectors)

    def _printed(self, mirrored: bool = False) -> list:
        """`Vec2.to_json` of each vector as an (x, y) pair of numerals,
        printed from the ints on the lattice or from the float pairs. Given
        vectors print as given: an int coordinate prints "0", not "0.0".
        `mirrored`: a lattice family's second half is its first negated (a
        ball's cycle), and is written as the first half's numerals negated."""
        scale = self.scale
        if scale is not None:
            pts = self.pts[: len(self.pts) // 2] if mirrored else self.pts
            printed = [(format_ratio(x, scale), format_ratio(y, scale)) for x, y in pts]
            return printed + [(_negated(x), _negated(y)) for x, y in printed] if mirrored else printed
        if "vectors" in self.__dict__:
            return [v.to_json() for v in self.vectors]
        return [(repr(x), repr(y)) for x, y in self.pts]

    def json_text(self, mirrored: bool = False) -> str:
        """The family's one printed form, the JSON text [["x","y"],...] with
        separators (",", ":"), written in one pass: a numeral holds nothing
        that JSON escapes, so it goes between quotes as it is (`mirrored`:
        `_printed`)."""
        return "[" + ",".join([f'["{x}","{y}"]' for x, y in self._printed(mirrored)]) + "]"

    def signed(self, signs: Sequence[int]) -> "Family":
        """The family with vector i times signs[i] (1 or -1), built from
        the lattice form (s·X, s·Y) over the same scale."""
        pts = [(s * x, s * y) for (x, y), s in zip(self.pts, signs)]
        return Family.from_lattice(pts, self.scale)

    def floats(self) -> list[tuple[float, float]]:
        """The coordinates as floats, each rounded once from its exact value;
        a rational past float range is a `BadInput`."""
        if self.scale is None:
            return self.pts
        try:
            return [(x / self.scale, y / self.scale) for x, y in self.pts]
        except OverflowError:  # int / int past float range
            raise BadInput("a rational coordinate past float range") from None

    def exact(self) -> tuple[list[tuple[int, int]], int]:
        """The points on the lattice of their exact values: `pts` over
        `scale`, and float pairs as the dyadic rationals they denote, over
        one power of two (`scalars.exact_pairs`)."""
        return (self.pts, self.scale) if self.scale is not None else exact_pairs(self.pts)[:2]

    def lattice_sum(self, subset: Iterable[int]) -> tuple[Scalar, Scalar]:
        """The sum of the indexed vectors on the lattice: integers over
        `scale`, or floats added left to right from 0 as `vsum` adds them."""
        pts = self.pts
        sx = sy = 0
        for i in subset:
            x, y = pts[i]
            sx += x
            sy += y
        return sx, sy

    def vector_sum(self, subset: Iterable[int]) -> Vec2:
        """The sum of the indexed vectors, the value `vsum` gives."""
        sx, sy = self.lattice_sum(subset)
        if self.scale is None:
            return Vec2(sx, sy)
        return Vec2(Fraction(sx, self.scale), Fraction(sy, self.scale))


def exact_form(vectors: Sequence[Vec2]) -> tuple[list[tuple[int, int]], int, bool]:
    """The vectors as `scalars.exact_pairs` reads them: integer pairs over
    one scale, each coordinate its exact value, a float the dyadic rational
    it denotes, and whether any coordinate is a float. Anything but plane
    vectors of finite numbers is a `BadInput`, as for a `Family`."""
    return exact_pairs(_coordinates(vectors))


def _coordinates(vectors: Sequence[Vec2]) -> list[tuple]:
    """Each vector's (x, y), for the readers of `scalars`; an entry without
    them is a `BadInput`. The one path of every family and direction."""
    try:
        return [(v.x, v.y) for v in vectors]
    except AttributeError:
        raise BadInput(f"vectors must be plane vectors of finite numbers; got {vectors!r}") from None


def _negated(numeral: str) -> str:
    """The numeral of -x, written from the "p/q" or "p" numeral of x."""
    return numeral[1:] if numeral[0] == "-" else numeral if numeral == "0" else "-" + numeral


def dots(u: Vec2, pts: Sequence[tuple], scale: Optional[int]) -> list[Scalar]:
    """u·v for each point v = (x, y) / `scale` (float pairs when `scale` is
    None), up to one positive factor, so every sign is exact: integer dots
    with u put on the lattice when u and the points are rational, else the
    floats `Vec2.dot` gives, from float(u.x), float(u.y) and x / scale.
    A u that is not a plane vector of finite numbers is a `BadInput`."""
    pair = _coordinates((u,))
    [(ux, uy)], u_scale = lattice_pairs(pair) if scale is not None else (float_pairs(pair), None)
    if u_scale is not None:
        return [ux * x + uy * y for x, y in pts]
    if scale is not None:
        pts = Family.from_lattice(pts, scale).floats()
    return [ux * x + uy * y for x, y in pts]


def origin_position(pts: Sequence[tuple], tol: float = 0.0) -> int:
    """Where the origin lies against the hull of three (x, y) pairs: 1
    strictly inside, 0 on its boundary, -1 outside. It is read off the signs
    of the cyclic cross products; float signs within `tol` count as zero."""
    (ax, ay), (bx, by), (cx, cy) = pts
    signs = {sgn(ax * by - ay * bx, tol), sgn(bx * cy - by * cx, tol), sgn(cx * ay - cy * ax, tol)}
    if signs == {0}:
        # all on one line through the origin: in their hull when some dot is <= 0
        pairs = combinations(pts, 2)
        return 0 if any(sgn(px * qx + py * qy, tol) <= 0 for (px, py), (qx, qy) in pairs) else -1
    if {1, -1} <= signs:
        return -1
    return 1 if len(signs) == 1 else 0  # {0, s}: on an edge or at a vertex
