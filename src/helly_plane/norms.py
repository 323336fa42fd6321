"""Norms of the plane: the Euclidean one and gauges of 0-symmetric polygons.

A polygonal unit ball is stored as its counterclockwise vertex cycle
(starting at the vertex of smallest polar angle) together with one linear
functional per edge, normalized to take the value 1 on that edge. The gauge
of a point is the maximum of the edge functionals.

Everything on a polygon is exact, and a float is the dyadic rational it
denotes (`Fraction(x)`). Each ball is compiled once, at construction,
into integer edge normals (P, Q) over one common denominator, and every
point set is read on the lattice of its exact values
(`scalars.exact_pairs`: a float family over one power of two). A
polygon is compiled by `compile_lattice` from the integer pairs of its
points over one scale (the generators call it with their 1/1000 grid
directly). A family's subset sums against a ball (`SubsetSums`) are
packed lanes, on rational and float data alike: each vector becomes one
int holding its edge values P·X + Q·Y in fields with a guard bit, packed
once, sized for the whole family, so a k-sum is k int adds, every k-sum
of a family is summed in C, and "norm vs 1" is one or two mask tests that
form no `Fraction`. "Within tol" is decided by the one rule of
`scalars`, on ints: a gauge within tol of 1 is the integer band
`scalars.band` around the lane start (t = 0 on rational data), and each
relation's answers below, in and above it are `scalars.SIGN_ANSWERS`,
the relations' own answers on ints. A gauge is exact: a `Fraction` on
rational data, and on float data the exact gauge rounded once to a float
(`gauge`, `SubsetSums.gauges`). A
supporting line at a boundary point (`supporting_functional`) and shared
edge values (`shared_edge_value`) are found on the same integers. Only
the Euclidean ball sums floats: its gauge is `math.hypot`, and its subset
sums walk each subset once, placing each gauge against the band by the
float cuts of `scalars.float_cuts`. A ball's vertex cycle is a
`geometry.Family`, the one lattice form of a point set: its integer pairs
and their coarsest scale, whose `Fraction` vertices are formed on first
read. A ball is that `Family` plus its compiled normals. A ball is
printed once, to its canonical text `UnitBall.json_text`, straight from
the `Family`'s numerals; `ball_to_json` reads that text back. Only this module reads the
compiled form and the packed lanes.

A `ConvexBody`, any convex polygon with the origin strictly inside, is
built and compiled the same way: the maximum of its edge functionals is
its gauge, and whether it is symmetric is decided once, when compiled.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import not_, truediv
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import BadInput, NotConvexBody, NotPolygonal, NotSymmetric, ZeroDirection
from .geometry import Family, exact_form
from .scalars import DEFAULT_TOL, SIGN_ANSWERS, Scalar, band, exact_pairs, float_cuts, float_pairs
from .vectors import Vec2

EUCLIDEAN = "euclidean"
POLYGONAL = "polygonal"


class UnitBall:
    """A unit ball; polygonal ones carry their compiled edge normals.

    `vertices` is the vertex cycle as a `Family`: integer pairs over a
    scale, and empty on the Euclidean ball. `normals` holds integer pairs
    (P, Q) with (p, q) == (P, Q) / `den` for the functional
    z -> p*z.x + q*z.y of each edge, or None on the Euclidean ball.
    `symmetric`: whether the vertex set is closed under negation.

    Equality (within one class), hashing and repr go by (kind, vertices).
    The ball holds its `SubsetSums` packing constants: `_row_bound`,
    max(|P| + |Q|), and `_packings`, w -> (lane shifts, unit, guards, lane
    mask, P lanes, Q lanes), once per w.
    """

    def __init__(
        self,
        kind: str,
        vertices: Family,
        normals: Optional[tuple[tuple[int, int], ...]] = None,
        den: int = 1,
        symmetric: bool = True,
    ):
        self.kind = kind
        self.vertices = vertices
        self.normals = normals
        self.den = den
        self.symmetric = symmetric
        self._row_bound = max([abs(p) + abs(q) for p, q in normals]) if normals else 0
        self._packings: dict = {}

    @cached_property
    def json_text(self) -> str:
        """The canonical JSON text of the ball (sorted keys, separators
        (",", ":")), printed on first read and kept, so a ball that serves a
        whole run is printed once."""
        if self.kind == EUCLIDEAN:
            return '{"type":"euclidean"}'
        # a symmetric cycle's second half is its first negated
        return '{"type":"polygonal","vertices":' + self.vertices.json_text(self.symmetric) + "}"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.vertices) == (other.kind, other.vertices)

    def __hash__(self) -> int:
        return hash((self.kind, self.vertices))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(kind={self.kind!r}, vertices={self.vertices.vectors!r})"

    @property
    def is_polygonal(self) -> bool:
        return self.kind == POLYGONAL


def euclidean_ball() -> UnitBall:
    return UnitBall(EUCLIDEAN, Family.from_lattice([], None))


def make_polygonal_ball(vertices: Sequence[Vec2]) -> UnitBall:
    """Validate and canonicalize a 0-symmetric convex polygon as a unit ball.

    Input vertices may be in any order and may contain duplicates or points
    interior to the hull; canonicalization reorders counterclockwise from
    the vertex of smallest polar angle and drops non-extreme points.
    """
    return _compile_polygon(vertices, UnitBall)


class ConvexBody(UnitBall):
    """A convex polygon with the origin strictly inside; no symmetry assumed.

    It is compiled like a unit ball, so `gauge` and `boundary_point` apply;
    its vertices keep the hull's counterclockwise order.
    """


def make_convex_body(points: Sequence[Vec2]) -> ConvexBody:
    """Canonicalize points into a convex body; origin must be strictly inside."""
    return _compile_polygon(points, ConvexBody)


def _compile_polygon(points: Sequence[Vec2], cls: type) -> UnitBall:
    """The points compiled by `compile_lattice` on the integer pairs of
    their exact values (`geometry.exact_form`): a float coordinate is the
    dyadic rational it denotes, as in the kernel."""
    pairs, scale, _ = exact_form(points)
    if not pairs:
        raise NotConvexBody("empty vertex list")
    return compile_lattice(pairs, scale, cls)


def compile_lattice(pairs: Sequence[tuple[int, int]], scale: int, cls: type) -> UnitBall:
    """The one constructor of polygonal balls and bodies: the polygon with
    vertices the hull of `pairs` / `scale`, checked and compiled on ints.

    A `UnitBall` must also be symmetric, and starts at its vertex of
    smallest polar angle; a `ConvexBody` keeps the hull's order. The vertex
    `Family` puts the cycle on its own coarsest lattice.

    Symmetry is decided here, once. A point set closed under negation (its
    sorted distinct pairs, reversed, are their negations) builds one hull
    chain; any other set builds both and compares its hull with its
    negation. On the lattice a symmetric hull of 2h vertices forms h edge
    rows, the other h of its normals negated.
    """
    pts = sorted(set(pairs))
    closed = pts[::-1] == [(-x, -y) for x, y in pts]
    coords = _hull(pts, closed)
    symmetric = closed or set(coords) == {(-x, -y) for x, y in coords}
    start = _cycle_start(coords, cls, symmetric)
    vertices = Family.from_lattice(coords[start:] + coords[:start], scale)
    rows = _edge_rows(vertices.pts, vertices.scale, len(coords) // 2 if symmetric else len(coords))
    den = math.lcm(*[det for _, _, det in rows])
    normals = [(p * (den // det), q * (den // det)) for p, q, det in rows]
    if symmetric:
        normals += [(-p, -q) for p, q in normals]
    return cls(POLYGONAL, vertices, tuple(normals), den, symmetric=symmetric)


def _hull(pts: list[tuple], closed: bool) -> list[tuple]:
    """Andrew's monotone chain: the counterclockwise extreme points of sorted
    distinct (x, y) pairs, from the least one, collinear points dropped; a
    degenerate hull comes back as a point or a segment's two ends. A set
    closed under negation builds its lower chain only, and reads the upper
    one off at mirrored indices (pts[n - 1 - i]), the input's own tuples."""
    n = len(pts)
    if n <= 2:
        return pts

    def chain(order: Iterable[int]) -> list[int]:  # every kept turn is to the left
        kept: list[int] = []
        for c in order:
            cx, cy = pts[c]
            while len(kept) >= 2:
                (ax, ay), (bx, by) = pts[kept[-2]], pts[kept[-1]]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0:
                    break
                kept.pop()
            kept.append(c)
        return kept

    lower = chain(range(n))
    upper = [n - 1 - i for i in lower] if closed else chain(range(n - 1, -1, -1))
    hull = [pts[i] for i in lower[:-1] + upper[:-1]]
    return hull if len(hull) >= 3 else [pts[0], pts[-1]]


def _cycle_start(coords: list[tuple], cls: type, symmetric: bool) -> int:
    """The start vertex of a hull cycle: its vertex of smallest polar angle
    for a `UnitBall`, else 0.

    Raises unless the hull is a polygon and, for a `UnitBall`, symmetric.
    """
    if len(coords) < 3:
        raise NotConvexBody("hull is degenerate (a point or a segment)")
    if cls is not UnitBall:
        return 0
    if not symmetric:
        raise NotSymmetric("vertex set is not invariant under negation")
    # polar angles in [0, 2*pi) rise around the cycle and wrap once, where
    # it enters the half y > 0 (or y == 0 < x), which holds half the cycle
    upper = [y > 0 or y == 0 and x > 0 for x, y in coords]
    return next(i for i in range(len(coords)) if upper[i] and not upper[i - 1])


def _edge_rows(cycle: list[tuple], scale: int, edges: int) -> list[tuple]:
    """The edge rows (P, Q, det) over `scale` of the first `edges` edges of
    a hull cycle.

    Raises unless the origin is strictly inside them.
    """
    # the origin is strictly inside exactly when every edge turns left
    # around it, and then the functional equal to 1 at both ends is unique:
    # (p, q) = scale * (by - ay, ax - bx) / det
    rows = []
    for (ax, ay), (bx, by) in zip(cycle[:edges], cycle[1:] + cycle[:1]):
        det = ax * by - ay * bx
        if not det > 0:
            raise NotConvexBody("origin is not strictly inside")
        rows.append((scale * (by - ay), scale * (ax - bx), det))
    return rows


def square_ball() -> UnitBall:
    """The unit ball of the max norm."""
    return make_polygonal_ball(
        [Vec2(1, 1), Vec2(-1, 1), Vec2(-1, -1), Vec2(1, -1)]
    )


def gauge(ball: UnitBall, z: Vec2) -> Scalar:
    """The norm of z: gauge(z) <= 1 exactly when z is in the ball.

    On a polygon it is exact, the edge maximum of z on the lattice of its
    exact value (`scalars.exact_pairs`, the one reader): a `Fraction` on
    rational z, and on z with a float coordinate rounded once, inf past
    float range. On the Euclidean ball it is `math.hypot` of z's floats
    (`scalars.float_pairs`), and a rational z past float range is a
    `BadInput`. An infinite coordinate (an overflowed float sum) has gauge
    inf on every ball. A coordinate that is not an int, a `Fraction` or a
    float, and a NaN one, are a `BadInput`."""
    try:
        pt = [(z.x, z.y)]
    except AttributeError:
        raise BadInput(f"not a plane vector of numbers: {z!r}") from None
    if ball.normals is None:
        return math.hypot(*float_pairs(pt, finite=False)[0])
    try:
        [(x, y)], d, floats = exact_pairs(pt)
    except BadInput:  # a coordinate that is no number, a NaN or an infinity
        float_pairs(pt, finite=False)  # refuses all but an infinity, whose gauge is inf
        return math.inf
    m = max(p * x + q * y for p, q in ball.normals)
    return _rounded(m, ball.den * d) if floats else Fraction(m, ball.den * d)


def _rounded(m: int, d: int) -> float:
    """m / d rounded once to a float, for m >= 0: inf past float range."""
    try:
        return m / d
    except OverflowError:
        return math.inf


def lattice_vertices(ball: UnitBall) -> Optional[tuple[Sequence[tuple[int, int]], int]]:
    """The vertex cycle as (integer pairs, scale), read off the ball's
    vertex `Family`, or None for the Euclidean ball.
    Other modules read the integer cycle only through this."""
    vertices = ball.vertices
    return None if vertices.scale is None else (vertices.pts, vertices.scale)


def lattice_in_ball(ball: UnitBall, x: int, y: int, den: int) -> bool:
    """Whether (x, y) / den is in a ball with a lattice form, on ints."""
    return max(p * x + q * y for p, q in ball.normals) <= ball.den * den


class SubsetSums:
    """The subset sums of one family against one ball.

    `tests` and `gauges` take either an int k, for every k-subset in
    `combinations` order, or explicit index subsets. The family is read in
    its lattice form (a `Family` passed in keeps its own).

    On a ball with integer normals the family is put once on the lattice
    of its exact values (`Family.exact`: a float is the dyadic rational it
    denotes), and the gauge of a subset sum is m / d, with m the largest of
    its edge values P·SX + Q·SY and d = den · scale. Each vector is then
    packed once into one int, the sum of its edge values r_e shifted to
    lanes of w + 1 bits. R is a bound on |r|: the ball's max(|P| + |Q|)
    times the largest |coordinate|, one pass over the family.

    "gauge vs 1 within tol" is "m vs the band [d − t, d + t]": t = 0 on
    rational data, which `scalars` compares exactly, and on float data
    t = ⌊d·τ⌋ for τ = `Fraction(tol)` (`scalars.band`, the rule of the
    `scalars` relations on ints), so m is in the band exactly when the
    exact gauge is within tol of 1. A k-sum is k int adds from a start
    that puts 2^w − 1 − d + c in every lane, so lane e holds
    m_e + 2^w − 1 − d + c, and its top bit, its guard, is set exactly when
    m_e + c > d: with c = −t when m is above the band, with c = t + 1 when
    it is not below it. For c in [−S, S + 1], a slack S >= t, |m_e| <= kR
    and 2^w > d + S + k·R + 1 every lane stays in [0, 2^(w+1)), and no
    lane borrows from or carries into the next. `rel(gauge, 1, tol)` is
    rel's answer at m's place against the band (below, in, above as
    `rel(-1, 0)`, `rel(0, 0)`, `rel(1, 0)`), so it is read off one or two
    masks and no `Fraction` is formed; the three answers of `eq`, `le`,
    `ge` and `gt` come from `scalars.SIGN_ANSWERS`, and any other
    comparison is asked them. `gauges` reads m back from the lanes. A
    k-pass sums in C (`map(sum, combinations)`). The packing is made once,
    with the object, wide enough for k = n, the family's size, and with
    S = 0 on rational data and S = d on float data, which holds every
    tol <= 1: a k-pass never repacks, since for k > n there are no
    subsets. Only an explicit subset longer than the family, or a tol past
    1, widens it; a ball keeps the lane constants of each field width it
    was packed at.
    (2^w > d + S + kR would do: the + 1 is slack.)

    On the Euclidean ball each subset is summed as floats, left to right
    from 0 in index order, which is bit for bit what
    `gauge(ball, vsum(...))` computes; rational data is summed exactly,
    then rounded once. Each subset is enumerated once, and its float gauge
    g is placed against the band by the two floats of
    `scalars.float_cuts(tol)`, read off the `scalars` relations: below it
    for g < L, above it for g > H. rel's answer there is its sign answer,
    as on a polygon, so `tests` is `rel(g, 1, tol)` at each gauge (g − 1
    against tol, the band on g's exact value for g in [1/2, 2]) and no
    relation is called per subset.
    """

    def __init__(self, ball: UnitBall, vectors: Sequence[Vec2]):
        fam = Family(vectors)
        self._ball, self._floats = ball, fam.scale is None
        self._packed = ball.normals is not None
        # the longest subset the packing holds; -1 on the Euclidean ball,
        # which is never packed
        self._cap = -1
        if not self._packed:
            self._pts, self._scale = fam.pts, fam.scale
            return
        self._pts, self._scale = pts, scale = fam.exact()
        self._d = scale * ball.den
        # |P·X + Q·Y| <= (|P| + |Q|)·max(|X|, |Y|): any R >= max |r| keeps
        # every mask exact, and R only sets the lane width
        self._reach = ball._row_bound * max(map(abs, chain.from_iterable(pts)), default=0)
        self._slack = self._d if self._floats else 0
        self._pack(len(pts))

    def tests(
        self, subsets: Union[int, Iterable[Sequence[int]]], rel: Callable[..., bool],
        tol: float = DEFAULT_TOL,
    ) -> Iterator[tuple[Sequence[int], bool]]:
        """(subset, rel(gauge of the subset's vector sum, 1, tol)) for each
        subset; `rel` is one of the `scalars` comparisons. On a polygon the
        gauge is that of the exact sum, and a float family's is compared
        with 1 exactly, within the band of tol."""
        # rel's answer below, in and above the band: read the table, or ask
        # it once per sign
        lo, mid, hi = answers = SIGN_ANSWERS.get(rel) or (rel(-1, 0, tol), rel(0, 0, tol), rel(1, 0, tol))
        if not self._packed:
            return _float_walk(self._pts, self._scale, subsets, answers, float_cuts(tol))
        t = band(self._d, tol) if self._floats else 0
        if t > self._slack:  # a tol past 1
            self._slack = t
            self._pack(self._cap)
        if lo != hi and mid in (lo, hi):  # one mask: m > d + t, or m >= d - t
            ts, sums = self._sums(subsets, t + 1 if mid == hi else -t)
            return zip(ts, map(bool if hi else not_, map(self._guard.__and__, sums)))
        ts, sums = self._sums(subsets, -t)
        guard, low = self._guard, (2 * t + 1) * self._unit
        # index [m > d + t] + [m >= d - t]: 0, 1, 2 below, in and above the band
        return zip(ts, (answers[(s & guard > 0) + (s + low & guard > 0)] for s in sums))

    def gauges(
        self, subsets: Union[int, Iterable[Sequence[int]]]
    ) -> Iterator[tuple[Sequence[int], Scalar]]:
        """(subset, gauge of the subset's vector sum) for each subset. On a
        polygon it is the gauge of the exact sum: one `Fraction` per
        rational gauge, bit for bit what `gauge(ball, vsum(...))` gives, and
        on float data rounded once, as `gauge` rounds. On the Euclidean ball
        it is bit for bit `gauge(ball, vsum(...))`."""
        if not self._packed:
            return _float_walk(self._pts, self._scale, subsets)
        ts, sums = self._sums(subsets)
        mask, shifts = self._mask, self._shifts
        # every lane holds m_e + 2^w - 1 - d, the offset in each lane of the top
        top, d = self._top & mask, self._d
        ratio = _rounded if self._floats else Fraction
        return ((t, ratio(max([s >> e & mask for e in shifts]) - top, d)) for t, s in zip(ts, sums))

    def _sums(self, subsets: Union[int, Iterable[Sequence[int]]], extra: int = 0):
        """The subsets and their packed sums, each lane raised by
        2^w − 1 − d + extra: a lane's guard bit is then set exactly when
        m_e + extra > d. A k-pass sums in C."""
        if isinstance(subsets, int):
            start = self._top + extra * self._unit
            sums = map(sum, combinations(self._lanes, subsets), repeat(start))
            return combinations(range(len(self._pts)), subsets), sums
        ts = list(subsets)
        longest = max(map(len, ts), default=0)
        if longest > self._cap:
            self._pack(longest)
        lanes, top = self._lanes, self._top + extra * self._unit
        return ts, [sum([lanes[i] for i in t], top) for t in ts]

    def _pack(self, k: int) -> None:
        """Pack each vector into lanes wide enough for sums of k."""
        ball, d = self._ball, self._d
        w = (d + self._slack + k * self._reach + 1).bit_length()
        if w not in ball._packings:
            edges = len(ball.normals)
            # one 1 in every lane: the geometric series 2^(w+1) - 1 divides
            unit = ((1 << (w + 1) * edges) - 1) // ((1 << w + 1) - 1)
            # packing is linear: X·(P lanes) + Y·(Q lanes) holds each r = P·X + Q·Y,
            # the lanes of P and of Q written by Horner's rule from the last edge
            px = qy = 0
            for p, q in reversed(ball.normals):
                px, qy = (px << w + 1) + p, (qy << w + 1) + q
            ball._packings[w] = (range(0, (w + 1) * edges, w + 1), unit, unit << w, (1 << w + 1) - 1, px, qy)
        self._shifts, self._unit, self._guard, self._mask, px, qy = ball._packings[w]
        self._lanes = [x * px + y * qy for x, y in self._pts]
        self._top, self._cap = self._unit * ((1 << w) - 1 - d), k


def _float_walk(
    pts: Sequence[tuple], den: Optional[int], subsets: Union[int, Iterable],
    answers: Optional[tuple] = None, cuts: tuple[float, float] = (0.0, 0.0),
):
    """(t, hypot(x, y)) for each subset t, (x, y) its sum in floats: the
    Euclidean gauges. Float pairs are added left to right from 0 in index
    order, integer pairs over `den` summed exactly and rounded once (past
    float range, a `BadInput`). Given a relation's sign `answers` and the
    `scalars.float_cuts` (L, H) of a tol, it yields in place of each gauge
    g the relation's answer at g against 1: answers[0] for g < L, [1] for
    g in [L, H], [2] for g > H."""
    if isinstance(subsets, int):
        subsets = combinations(range(len(pts)), subsets)
    hypot = math.hypot
    low, high = cuts
    try:
        for t in subsets:
            # `Family.lattice_sum` inlined: a call per subset costs a third
            # of the walk on float data
            sx = sy = 0
            for i in t:
                x, y = pts[i]
                sx += x
                sy += y
            g = hypot(sx, sy) if den is None else hypot(sx / den, sy / den)
            yield t, g if answers is None else answers[(g >= low) + (g > high)]
    except OverflowError:  # only int / int raises here
        raise BadInput("a rational sum past float range") from None


def shared_edge_value(ball: UnitBall, vectors: Sequence[Vec2], k: int) -> Optional[tuple]:
    """Two distinct subsets of at most k of the vectors (the empty one too)
    whose sums share a value under the edge functionals, the first pair in
    `combinations` order by size, or None (always on the Euclidean ball,
    which has none). The values are `n.dot(vsum(...))` of the exact sums,
    as the ints P·SX + Q·SY on the lattice of the family's exact values
    (`Family.exact`), each edge's values summed in C."""
    pts, _ = Family(vectors).exact()
    sizes = range(k + 1)
    subsets = [t for j in sizes for t in combinations(range(len(pts)), j)]
    cols = [[p * x + q * y for x, y in pts] for p, q in ball.normals or ()]
    values = zip(*[[s for j in sizes for s in map(sum, combinations(col, j))] for col in cols])
    owner: dict = {}
    for t, vs in zip(subsets, values):
        for v in vs:
            if owner.setdefault(v, t) != t:
                return owner[v], t
    return None


def supporting_functional(
    ball: UnitBall, x: Scalar, y: Scalar, den: Optional[int], tol: float = DEFAULT_TOL
) -> tuple[Scalar, Scalar, Scalar]:
    """A functional of value 1 at the boundary point v and at most 1 on the
    ball, as (p, q, e): z -> (p*z.x + q*z.y) / e.

    v is (x, y) / den on the lattice, or the floats (x, y) when den is None,
    read as the dyadic rationals they denote. p, q and e are ints on a
    polygonal ball, whatever the data. An edge is hit where its functional
    is 1 at v, decided on ints: exactly for rational v
    (`P·X + Q·Y == den·D`), within the band of tol for float v
    (`scalars.band`), as `SubsetSums` decides it. At a vertex (two hits)
    the two functionals are averaged, which keeps the value 1 at v and
    picks an interior support line. One hit, or three and more when very short edges fall within the
    tolerance: the first edge attaining the gauge at v is 1 there (up to
    tol) and at most the gauge everywhere, so it supports the ball at v.
    The Euclidean ball is supported by v itself.
    """
    if not ball.is_polygonal:
        return x, y, 1 if den is None else den
    rows, e, t = ball.normals, ball.den, 0
    if den is None:
        [(x, y)], den, _ = exact_pairs([(x, y)])
        t = band(e * den, tol)
    values, one = [p * x + q * y for p, q in rows], e * den
    hits = [j for j, m in enumerate(values) if abs(m - one) <= t]
    if len(hits) == 2:
        (pe, qe), (pf, qf) = rows[hits[0]], rows[hits[1]]
        return pe + pf, qe + qf, 2 * e
    p, q = rows[values.index(max(values))]
    return p, q, e


def edge_functionals(ball: UnitBall) -> list[Vec2]:
    """The edge functionals in edge order, as coefficient vectors n with
    n.dot(z) == 1 on the edge, as exact `Fraction`s. Polygonal balls only."""
    if not ball.is_polygonal:
        raise NotPolygonal("the Euclidean ball has no edge functionals")
    return [Vec2(Fraction(p, ball.den), Fraction(q, ball.den)) for p, q in ball.normals]


def boundary_point(ball: UnitBall, direction: Vec2) -> Vec2:
    """The unique positive multiple of `direction` with gauge 1, from the
    direction on the lattice of its exact value, (X, Y) / d. On a polygon
    it is (X, Y)·den / m, m / (den·d) being its gauge: `Fraction`s on a
    rational direction, each float coordinate rounded once on a float one.
    On the Euclidean ball X and Y are divided by their largest magnitude
    first, so that the length cannot overflow. A direction that is not a
    plane vector of finite numbers is a `BadInput`."""
    [(x, y)], _, floats = exact_form((direction,))
    if x == 0 and y == 0:
        raise ZeroDirection("cannot normalize the zero vector")
    if ball.normals is None:
        big = max(abs(x), abs(y))
        r = math.hypot(x / big, y / big)
        return Vec2(x / big / r, y / big / r)
    m = max(p * x + q * y for p, q in ball.normals)
    ratio = truediv if floats else Fraction
    return Vec2(ratio(x * ball.den, m), ratio(y * ball.den, m))


def ball_to_json(ball: UnitBall) -> dict:
    """The ball as a fresh JSON document: its `json_text`, read back."""
    return json.loads(ball.json_text)


def ball_from_json(obj: dict) -> UnitBall:
    """The ball of a JSON document."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == EUCLIDEAN:
        return euclidean_ball()
    if kind == POLYGONAL:
        return make_polygonal_ball(load_vectors(obj, "vertices"))
    raise BadInput(f"unknown ball type: {kind!r}")


def load_vectors(obj: dict, key: str = "vectors") -> list[Vec2]:
    """The point list under `key`, as in {"vectors": [[x, y], ...]}, each
    numeral read to its exact value."""
    try:
        pairs = list(obj[key])
    except (KeyError, TypeError):
        raise BadInput(f"the document has no {key!r} list") from None
    return [Vec2.from_json(pair) for pair in pairs]


def load_json(path: str):
    """A JSON document from a file; text that is not JSON raises BadInput."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:
            raise BadInput(f"{path} is not JSON: {exc}") from None
