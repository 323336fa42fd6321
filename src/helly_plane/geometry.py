"""Exact convex-position primitives: orientation, lattice points and
families, hulls and closed triangle membership.

Everything here works on `Vec2` with rational coordinates and is exact;
predicates that also have to serve float data take an optional tolerance
which only kicks in for float operands.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BadInput
from .scalars import Scalar, lattice_values, sgn
from .vectors import Vec2


def orientation(a: Vec2, b: Vec2, c: Vec2) -> Scalar:
    """Twice the signed area of triangle abc; positive means counterclockwise."""
    return (b - a).cross(c - a)


def lattice(points: Sequence[Vec2]) -> Optional[tuple[list[tuple[int, int]], int]]:
    """Rational points as integer pairs over one common denominator.

    Returns `(pairs, den)` with `point == pair / den` coordinatewise, or
    None when any coordinate is a float.
    """
    grid = lattice_values([c for p in points for c in (p.x, p.y)])
    if grid is None:
        return None
    scaled, den = grid
    coords = iter(scaled)
    return list(zip(coords, coords)), den


class Family(tuple):
    """A family of plane vectors with its lattice form, computed once.

    `pts` holds integer pairs over `scale` when every coordinate is
    rational, else the coordinates as floats and `scale` is None.
    `Family(family)` is the family itself, so a verifier that hands its
    family on (to `norms.SubsetSums`, or to another verifier) puts it on
    the lattice only once.
    """

    pts: list[tuple]
    scale: Optional[int]

    def __new__(cls, vectors: Iterable[Vec2]) -> "Family":
        if type(vectors) is cls:
            return vectors
        fam = super().__new__(cls, vectors)
        grid = lattice(fam)
        fam.pts, fam.scale = grid or ([(float(v.x), float(v.y)) for v in fam], None)
        return fam

    def signed(self, signs: Sequence[int]) -> "Family":
        """The family with vector i times signs[i] (1 or -1), whose lattice
        form is (s·X, s·Y) over the same scale: not put on the lattice again."""
        fam = tuple.__new__(Family, [v if s > 0 else -v for v, s in zip(self, signs)])
        fam.pts = [(s * x, s * y) for (x, y), s in zip(self.pts, signs)]
        fam.scale = self.scale
        return fam

    def floats(self) -> list[tuple[float, float]]:
        """The coordinates as floats, each rounded once from its exact value."""
        if self.scale is None:
            return self.pts
        return [(x / self.scale, y / self.scale) for x, y in self.pts]

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


def convex_hull(points: Sequence[Vec2]) -> list[Vec2]:
    """Counterclockwise extreme points of the input, collinear points dropped.

    Degenerate inputs come back as-is: a single point, or the two endpoints
    of the spanned segment. The returned objects are input points (the
    first of any duplicates). Rational input is decided on the integer
    lattice of `lattice`, float input on its own coordinates.
    """
    if not points:
        raise BadInput("convex_hull requires a non-empty point list")
    grid = lattice(points)
    keys = grid[0] if grid else [(p.x, p.y) for p in points]
    first: dict = {}
    for k, p in zip(keys, points):
        first.setdefault(k, p)
    return [first[k] for k in monotone_chain(sorted(first))]


def monotone_chain(pts: list[tuple]) -> list[tuple]:
    """Monotone chain over sorted distinct coordinate pairs.

    Same contract as `convex_hull`, on plain (x, y) tuples.
    """
    if len(pts) <= 2:
        return pts

    def build(seq):
        chain: list[tuple] = []
        for cx, cy in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0:
                    break
                chain.pop()
            chain.append((cx, cy))
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return [pts[0], pts[-1]]
    return hull


def _on_segment(p: Vec2, a: Vec2, b: Vec2, tol: float = 0.0) -> bool:
    d = b - a
    if sgn(d.cross(p - a), tol) != 0:
        return False
    t_num = d.dot(p - a)
    return sgn(t_num, tol) >= 0 and sgn(d.dot(d) - t_num, tol) >= 0


def point_in_triangle(p: Vec2, a: Vec2, b: Vec2, c: Vec2, tol: float = 0.0) -> bool:
    """Closed membership of p in conv{a, b, c}, degenerate triangles included."""
    o = sgn(orientation(a, b, c), tol)
    if o == 0:
        # conv{a, b, c} is a segment or a single point
        corners = (a, b, c)
        d = None
        for u in (b, c):
            if not (u - a).is_zero():
                d = u - a
                break
        if d is None:
            return sgn(p.x - a.x, tol) == 0 and sgn(p.y - a.y, tol) == 0
        lo = min(corners, key=lambda w: d.dot(w))
        hi = max(corners, key=lambda w: d.dot(w))
        return _on_segment(p, lo, hi, tol)
    if o < 0:
        b, c = c, b
    return (
        sgn(orientation(a, b, p), tol) >= 0
        and sgn(orientation(b, c, p), tol) >= 0
        and sgn(orientation(c, a, p), tol) >= 0
    )
