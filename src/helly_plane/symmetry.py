"""Central symmetry of planar convex bodies, decided and certified.

For a convex polygon with the origin strictly inside, symmetry about the
origin is equivalent to two boundary-sum conditions; for an asymmetric body
both finders below construct explicit violating triples, re-verified before
they are returned. A body is compiled like a unit ball (`norms`), so "inside"
and "on the boundary" are decided by its exact gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import SearchBudgetExceeded
from .geometry import orientation, point_in_triangle
from .norms import ConvexBody, boundary_point, gauge, make_convex_body
from .scalars import exact_div, is_float, sgn
from .vectors import ORIGIN, Vec2


class WitnessKind(Enum):
    HALFPLANE_INTERIOR_SUM = "halfplane-interior-sum"
    SURROUNDING_EXTERIOR_SUM = "surrounding-exterior-sum"


@dataclass(frozen=True)
class ViolationWitness:
    """Three boundary points whose sum h sits on the wrong side of the body.

    HALFPLANE_INTERIOR_SUM: a, b, c share a closed halfplane bounded by a
    line through the origin, yet h = a+b+c is strictly inside the body.
    SURROUNDING_EXTERIOR_SUM: the origin is strictly inside conv{a, b, c},
    yet h is not strictly inside the body.
    """

    a: Vec2
    b: Vec2
    c: Vec2
    h: Vec2
    kind: WitnessKind

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "c": self.c.to_json(),
            "h": self.h.to_json(),
        }


def is_centrally_symmetric(body: ConvexBody, tol: float = 0.0) -> bool:
    """Whether the vertex set equals its own negation (within tol for floats)."""
    verts = body.vertices
    if tol == 0.0 and not is_float(*[c for v in verts for c in (v.x, v.y)]):
        have = {(v.x, v.y) for v in verts}
        return have == {(-x, -y) for x, y in have}
    unmatched = list(verts)
    for v in verts:
        for i, w in enumerate(unmatched):
            if abs(float(v.x + w.x)) <= tol and abs(float(v.y + w.y)) <= tol:
                unmatched.pop(i)
                break
        else:
            return False
    return True


def _asymmetric_chords(body: ConvexBody):
    """Chords through the origin with unequal arms, tried vertex by vertex.

    If the reflection of every vertex stayed inside the body, the reflected
    body would be contained in the body and hence equal to it; so an
    asymmetric body always has a vertex whose opposite ray exits at a
    different distance, and scanning vertex rays is enough.
    """
    for v in body.vertices:
        near = v
        far = boundary_point(body, -v)
        if (near + far).is_zero():
            continue
        # orient the chord so the first arm is the shorter one
        if near.dot(near) < far.dot(far):
            yield near, far
        else:
            yield far, near


def _strictly_inside(body: ConvexBody, z: Vec2) -> bool:
    return gauge(body, z) < 1


def _surrounds_origin(a: Vec2, b: Vec2, c: Vec2) -> bool:
    """Whether the origin is strictly inside the triangle abc."""
    signs = {sgn(orientation(a, b, ORIGIN)), sgn(orientation(b, c, ORIGIN)),
             sgn(orientation(c, a, ORIGIN))}
    return signs in ({1}, {-1})


def _boundary_neighbours(body: ConvexBody, p: Vec2) -> list[Vec2]:
    """The boundary points adjacent to p along its edge(s), one per side."""
    verts = body.vertices
    n = len(verts)
    out = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if (p - a).is_zero():
            out.append(b)
            out.append(verts[(i - 1) % n])
            break
        if orientation(a, b, p) == 0 and (b - a).dot(p - a) > 0 and (a - b).dot(p - b) > 0:
            out.append(b)
            out.append(a)
            break
    return out


def _witness_basics(body: ConvexBody, w: ViolationWitness) -> bool:
    if len({(p.x, p.y) for p in (w.a, w.b, w.c)}) != 3:
        return False
    for p in (w.a, w.b, w.c):
        if gauge(body, p) != 1:
            return False
    return (w.a + w.b + w.c - w.h).is_zero()


def verify_halfplane_witness(body: ConvexBody, w: ViolationWitness) -> bool:
    """Re-check a halfplane witness from scratch with the exact predicates."""
    if w.kind is not WitnessKind.HALFPLANE_INTERIOR_SUM:
        return False
    if not _witness_basics(body, w):
        return False
    # a common closed halfplane bounded through the origin exists exactly
    # when the origin is not strictly inside conv{a, b, c}
    if _surrounds_origin(w.a, w.b, w.c):
        return False
    return _strictly_inside(body, w.h)


def verify_surrounding_witness(body: ConvexBody, w: ViolationWitness) -> bool:
    """Re-check a surrounding witness from scratch with the exact predicates."""
    if w.kind is not WitnessKind.SURROUNDING_EXTERIOR_SUM:
        return False
    if not _witness_basics(body, w):
        return False
    if not _surrounds_origin(w.a, w.b, w.c):
        return False
    return not _strictly_inside(body, w.h)


def find_violation_halfplane(
    body: ConvexBody, max_halvings: int = 128
) -> Optional[ViolationWitness]:
    """A halfplane triple with sum strictly inside, for an asymmetric body.

    Picks a chord through the origin with unequal arms (short arm first),
    then walks a boundary point b toward the short end, halving the step
    until a + b + c lands strictly inside. Symmetric bodies admit no such
    triple and get None.
    """
    if is_centrally_symmetric(body):
        return None
    for a, c in _asymmetric_chords(body):
        for w in _boundary_neighbours(body, a):
            step = Fraction(1, 2)
            for _ in range(max_halvings):
                b = a + (w - a).scale(step)
                step /= 2
                if (b - c).is_zero() or (b - a).is_zero():
                    continue
                h = a + b + c
                if not _strictly_inside(body, h):
                    continue
                witness = ViolationWitness(a, b, c, h, WitnessKind.HALFPLANE_INTERIOR_SUM)
                if verify_halfplane_witness(body, witness):
                    return witness
    raise SearchBudgetExceeded("no verified halfplane witness within the budget")


def _line_polygon_hits(vertices: Sequence[Vec2], d: Vec2, level) -> list[Vec2]:
    """Both intersections of the line {cross(d, z) == level} with the boundary."""
    hits: list[Vec2] = []
    n = len(vertices)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        fp, fq = d.cross(p) - level, d.cross(q) - level
        sp, sq = sgn(fp), sgn(fq)
        if sp == 0:
            hits.append(p)
            continue
        if sq == 0 or sp == sq:
            continue
        t = exact_div(fp, fp - fq)
        hits.append(p + (q - p).scale(t))
    uniq: list[Vec2] = []
    for h in hits:
        if not any((h - g).is_zero() for g in uniq):
            uniq.append(h)
    return uniq


def find_violation_surrounding(
    body: ConvexBody, max_halvings: int = 128
) -> Optional[ViolationWitness]:
    """A surrounding triple with sum not strictly inside, for an asymmetric body.

    Takes a chord through the origin with unequal arms, the unique boundary
    point b extremal orthogonally to it, and slides the chord slightly away
    from b so the origin becomes strictly surrounded; the sum stays outside
    for small slides. Symmetric bodies get None.
    """
    if is_centrally_symmetric(body):
        return None
    for a0, c0 in _asymmetric_chords(body):
        d = a0  # chord direction (origin to the short arm)
        for side in (1, -1):
            # extremal vertex in the direction orthogonal to the chord
            key = lambda v: side * d.cross(v)
            best = max(key(v) for v in body.vertices)
            extremal = [v for v in body.vertices if key(v) == best]
            if len(extremal) != 1:
                continue  # tangent edge parallel to the chord: not a single point
            b = extremal[0]
            level_b = d.cross(b)
            opposite = min(side * d.cross(v) for v in body.vertices)
            reach = min(abs(level_b), abs(opposite))
            if reach == 0:
                continue
            shrink = Fraction(1, 2)
            for _ in range(max_halvings):
                # slide the chord away from b
                level = -sgn(level_b) * reach * shrink
                shrink /= 2
                hits = _line_polygon_hits(body.vertices, d, level)
                if len(hits) != 2:
                    continue
                a1, c1 = hits
                if a1.dot(d) < c1.dot(d):
                    a1, c1 = c1, a1  # keep a1 on the short-arm side
                if (a1 - b).is_zero() or (c1 - b).is_zero():
                    continue
                h = a1 + b + c1
                if not point_in_triangle(ORIGIN, a1, b, c1):
                    continue
                if _strictly_inside(body, h):
                    continue
                witness = ViolationWitness(
                    a1, b, c1, h, WitnessKind.SURROUNDING_EXTERIOR_SUM
                )
                if verify_surrounding_witness(body, witness):
                    return witness
    raise SearchBudgetExceeded("no verified surrounding witness within the budget")
