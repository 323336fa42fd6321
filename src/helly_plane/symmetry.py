"""Central symmetry of planar convex bodies, decided and certified.

For a convex polygon with the origin strictly inside, symmetry about the
origin is equivalent to two boundary-sum conditions; for an asymmetric body
both finders below walk candidate triples and return the first one their
verifier accepts: a counterexample to T1 at n = 3 on the body's own gauge,
or a triple around the origin whose sum has gauge > 1. A body is compiled
like a unit ball, on the exact values of its points, so "inside"
and "on the boundary" are decided by its exact gauge, and every boundary
point a finder builds is read off its edge functionals: a chord's two
ends, or a boundary point's edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .errors import SearchBudgetExceeded
from .geometry import Family, origin_position
from .norms import ConvexBody, SubsetSums, boundary_point, edge_functionals, make_convex_body
from .scalars import eq, gt
from .theorems import verify_theorem1
from .vectors import Vec2

# halvings of the step a finder tries per chord before moving on
_MAX_HALVINGS = 128


class WitnessKind(Enum):
    HALFPLANE_INTERIOR_SUM = "halfplane-interior-sum"
    SURROUNDING_EXTERIOR_SUM = "surrounding-exterior-sum"


@dataclass(frozen=True)
class ViolationWitness:
    """Three boundary points whose sum h sits on the wrong side of the body.

    HALFPLANE_INTERIOR_SUM, a T1 counterexample: a, b, c share a closed
    halfplane bounded through the origin, yet h = a+b+c is strictly inside.
    SURROUNDING_EXTERIOR_SUM: the origin is strictly inside conv{a, b, c},
    yet h is strictly outside the body, gauge(h) > 1.
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


def is_centrally_symmetric(body: ConvexBody) -> bool:
    """Whether the vertex set equals its own negation, exactly: decided
    once, when the body was compiled (`norms.compile_lattice`)."""
    return body.symmetric


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


def _boundary_neighbours(body: ConvexBody, p: Vec2) -> list[Vec2]:
    """The boundary points adjacent to p along its edge(s), one per side, the
    next vertex first: then the previous vertex of a vertex p, else the start
    of the one edge whose functional is 1 at p."""
    verts = body.vertices
    n = len(verts)
    if p in verts:
        i = verts.index(p)
        return [verts[(i + 1) % n], verts[i - 1]]
    e = next(e for e, f in enumerate(edge_functionals(body)) if f.dot(p) == 1)
    return [verts[(e + 1) % n], verts[e]]


def _triple(w: ViolationWitness, kind: WitnessKind) -> Optional[Family]:
    """The `Family` of a, b, c if w is of `kind`, with three distinct points
    and h = a + b + c (read on the lattice of all four), else None."""
    fam = Family((w.a, w.b, w.c, w.h))
    if w.kind is kind and len(set(fam.pts[:3])) == 3 and fam.lattice_sum(range(3)) == fam.pts[3]:
        return Family.from_lattice(fam.pts[:3], fam.scale)
    return None


def verify_halfplane_witness(body: ConvexBody, w: ViolationWitness) -> bool:
    """Re-check a halfplane witness from scratch, exactly (tol 0), as a T1
    counterexample. A closed halfplane through the origin holding a, b, c
    turns until its boundary meets the first of them counterclockwise, p,
    with the rest at angles [0, π] past p: so u ranges over a⊥, b⊥, c⊥."""
    vs = _triple(w, WitnessKind.HALFPLANE_INTERIOR_SUM)
    if vs is None:
        return False
    reports = (verify_theorem1(body, vs, p.perp(), 0.0) for p in vs if not p.is_zero())
    return any(r.hypothesis_holds and not r.conclusion_holds for r in reports)


def verify_surrounding_witness(body: ConvexBody, w: ViolationWitness) -> bool:
    """Re-check a surrounding witness from scratch on one packing of a, b, c:
    the sum strictly outside (which rejects most candidates), each point on
    the boundary, and the origin strictly inside conv{a, b, c}."""
    vs = _triple(w, WitnessKind.SURROUNDING_EXTERIOR_SUM)
    if vs is None:
        return False
    sums = SubsetSums(body, vs)
    return (
        all(ok for _, ok in sums.tests(3, gt, 0.0))
        and all(ok for _, ok in sums.tests(1, eq, 0.0))
        and origin_position(vs.pts) == 1
    )


def _first_verified(
    body: ConvexBody, candidates: Callable, verify: Callable, name: str
) -> Optional[ViolationWitness]:
    """The one place a finder accepts a witness: None for a symmetric body,
    else the first of `candidates(body)` that `verify` accepts."""
    if is_centrally_symmetric(body):
        return None
    for witness in candidates(body):
        if verify(body, witness):
            return witness
    raise SearchBudgetExceeded(f"no verified {name} witness within the budget")


def find_violation_halfplane(body: ConvexBody) -> Optional[ViolationWitness]:
    """A halfplane triple with sum strictly inside, for an asymmetric body.

    Picks a chord through the origin with unequal arms (short arm first),
    then walks a boundary point b toward the short end, halving the step
    until a + b + c lands strictly inside. Symmetric bodies admit no such
    triple and get None.
    """
    return _first_verified(body, _halfplane_candidates, verify_halfplane_witness, "halfplane")


def _halfplane_candidates(body: ConvexBody) -> Iterator[ViolationWitness]:
    for a, c in _asymmetric_chords(body):
        for w in _boundary_neighbours(body, a):
            step = Fraction(1, 2)
            for _ in range(_MAX_HALVINGS):
                b = a + (w - a).scale(step)
                step /= 2
                yield ViolationWitness(a, b, c, a + b + c, WitnessKind.HALFPLANE_INTERIOR_SUM)


def _chord_ends(normals: Sequence[Vec2], z: Vec2, d: Vec2) -> tuple[Vec2, Vec2]:
    """Both ends of the chord through z (strictly inside) along d, the +d
    end first: z + d·t leaves the edge n·w <= 1 at t = (1 − n·z) / n·d."""
    rs = [(1 - n.dot(z), n.dot(d)) for n in normals]
    ahead = min(r / s for r, s in rs if s > 0)
    behind = min(r / -s for r, s in rs if s < 0)
    return z + d.scale(ahead), z - d.scale(behind)


def find_violation_surrounding(body: ConvexBody) -> Optional[ViolationWitness]:
    """A surrounding triple with sum not strictly inside, for an asymmetric body.

    Takes a chord through the origin with unequal arms, the unique boundary
    point b extremal orthogonally to it, and slides the chord slightly away
    from b so the origin becomes strictly surrounded; the sum stays outside
    for small slides. Where the extremal points form an edge parallel to
    the chord, each end of that edge is b, after every chord's unique point.
    Each slid chord passes through a point between the origin and the vertex
    farthest from the chord on the other side, and its ends are where it
    leaves the edge functionals. Symmetric bodies get None.
    """
    return _first_verified(body, _surrounding_candidates, verify_surrounding_witness, "surrounding")


def _surrounding_candidates(body: ConvexBody) -> Iterator[ViolationWitness]:
    normals = edge_functionals(body)
    edge_ends = []  # (d, key, b) for each end of a tangent edge parallel to a chord
    for d, _ in _asymmetric_chords(body):  # d: chord direction, origin to the short arm
        for side in (1, -1):
            # extremal vertex in the direction orthogonal to the chord
            key = lambda v, d=d, side=side: side * d.cross(v)
            best = max(key(v) for v in body.vertices)
            extremal = [v for v in body.vertices if key(v) == best]
            if len(extremal) == 1:
                yield from _slid_chords(body, normals, d, key, extremal[0])
            else:
                edge_ends += [(d, key, b) for b in extremal]
    for d, key, b in edge_ends:
        yield from _slid_chords(body, normals, d, key, b)


def _slid_chords(
    body: ConvexBody, normals: Sequence[Vec2], d: Vec2, key: Callable, b: Vec2
) -> Iterator[ViolationWitness]:
    """Chords along d slid away from the boundary point b, key(b) > 0."""
    # the origin is strictly inside, so key(o) < 0 < key(b); the line
    # key(z) == -reach meets the open segment from 0 to o at far
    o = min(body.vertices, key=key)
    reach = min(key(b), -key(o))
    far = o.scale(reach / -key(o))
    shrink = Fraction(1, 2)
    for _ in range(_MAX_HALVINGS):
        # slide the chord away from b, through far·shrink (a1 on the short arm's side)
        a1, c1 = _chord_ends(normals, far.scale(shrink), d)
        shrink /= 2
        yield ViolationWitness(a1, b, c1, a1 + b + c1, WitnessKind.SURROUNDING_EXTERIOR_SUM)
