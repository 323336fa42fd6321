"""Extensional verifiers for the vector-sum statements of the library.

Each verifier reports whether its hypothesis holds on the concrete input
and whether the claimed conclusion holds, without ever raising on a
hypothesis miss: a verifier that said "hypothesis holds" and "conclusion
fails" would be evidence against the statement itself, which is exactly
what the fuzzing harness looks for (and must never find).

Report labels: T1 is the halfplane bound (odd unit families in a closed
halfplane have sums of norm >= 1), T2 its three-sum Helly form with unit
vectors and non-strict bounds, T3 the strict form for vectors inside the
ball, COR the k-sum corollary of T3.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import (
    BadK,
    EvenCardinality,
    HypothesisFailed,
    NotOnBoundary,
    PreconditionFailed,
    TheoremFalsified,
    TooFew,
    ZeroDirection,
)
from .geometry import Family, dots, origin_position
from .norms import SubsetSums, UnitBall, gauge, supporting_functional
from .scalars import (
    DEFAULT_TOL, Scalar, band, check_tol, eq, exact_pairs, format_scalar, ge, gt, is_float, le, sgn,
)
from .vectors import Vec2, VectorMultiset


@dataclass(frozen=True)
class KSum:
    """A subset of indices together with the sum of the indexed vectors."""

    subset: tuple[int, ...]
    value: Vec2

    def to_json(self) -> dict:
        return {"subset": list(self.subset), "value": self.value.to_json()}


class VerifyReport:
    """A verifier's report, kept as the ball, the family and the witness
    index subsets: the total, its norm and the witnesses are formed on
    first read, so a report dropped unread (a failed strict probe) forms
    no `Fraction`. A singleton witness's value is the vector itself, a
    larger subset's the sum of its vectors."""

    def __init__(self, theorem, hypothesis, conclusion, ball, vs: Family, subsets=(), notes=""):
        self.theorem, self.hypothesis_holds, self.conclusion_holds = theorem, hypothesis, conclusion
        self.notes, self._ball, self._vs, self._subsets = notes, ball, vs, subsets

    @functools.cached_property
    def total(self) -> Vec2:
        return self._vs.vector_sum(range(len(self._vs)))

    @functools.cached_property
    def total_norm(self) -> Scalar:
        return gauge(self._ball, self.total)

    @functools.cached_property
    def witnesses(self) -> list[KSum]:
        vs = self._vs
        return [KSum(t, vs[t[0]] if len(t) == 1 else vs.vector_sum(t)) for t in self._subsets]

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypothesis": self.hypothesis_holds,
            "conclusion": self.conclusion_holds,
            "total": self.total.to_json(),
            "total_norm": format_scalar(self.total_norm),
            "witnesses": [w.to_json() for w in self.witnesses],
            "notes": self.notes,
        }


@dataclass
class Certificate:
    """A projection certificate for the halfplane bound.

    The input family is reordered by angle across the closed halfplane of
    u; `k` is the 1-based position of the middle vector in that order,
    `tangent` a supporting functional z -> tangent.dot(z) of the ball at the
    middle vector, and `projections` the coefficients of each vector on the
    middle vector in the basis {middle vector, tangent.perp()}. Their sum
    being at least 1 forces the sum of the family out of the open unit ball.
    `order` lists the indices into `family` in that order; `ordered`, the
    reordered vectors themselves, is formed on first read.
    """

    k: int
    u: Vec2
    tangent: Vec2
    family: Sequence[Vec2]
    order: Sequence[int]
    projections: list[Scalar]
    projection_sum: Scalar

    @functools.cached_property
    def ordered(self) -> tuple[Vec2, ...]:
        return tuple([self.family[i] for i in self.order])


def verify_theorem1(
    ball: UnitBall, vectors: VectorMultiset, u: Vec2, tol: float = DEFAULT_TOL
) -> VerifyReport:
    """Check the halfplane bound on one instance.

    Hypothesis: odd count, every vector of norm exactly 1, every dot with u
    nonnegative. Conclusion: the total has norm at least 1, read off the
    packing as the family's one n-sum, as in `verify_helly`.
    """
    check_tol(tol)
    vs = Family(vectors)
    sides = dots(u, vs.pts, vs.scale)  # a BadInput unless u is a vector of finite numbers
    if u.is_zero():
        raise ZeroDirection("halfplane direction must be nonzero")
    # float dots within tol·|u|, as in `ginzburg_reduce`: only u's direction counts
    side_tol = tol * math.hypot(u.x, u.y) if is_float(*sides) else tol
    notes = []
    bad = []
    if len(vs) % 2 == 0:
        notes.append("even cardinality")
    sums = SubsetSums(ball, vs)
    for (i,), unit in sums.tests(1, eq, tol):
        if not unit:
            bad.append((i,))
            notes.append(f"vector {i} is not a unit vector")
        elif not ge(sides[i], 0, side_tol):
            bad.append((i,))
            notes.append(f"vector {i} leaves the halfplane")
    [(_, conclusion)] = sums.tests(len(vs), ge, tol)
    return VerifyReport("T1", len(vs) % 2 == 1 and not bad, conclusion, ball, vs, bad, "; ".join(notes))


def _halfplane_angle_cmp(vs: Family, u: Vec2):
    """A sort key for indices into a family of the closed halfplane of u,
    ordering the vectors by angle from the side at -90 degrees from u
    around to +90 degrees.

    The signs of cross and dot products are read from the family's lattice
    (or float) pairs. Vectors orthogonal to u are the only antipodal pairs
    possible here; the one at -90 degrees, where u×v = u.perp()·v is
    negative (`geometry.dots`), sorts first. Exact duplicates keep input
    order. Comparisons are raw (no tolerance): a tolerant order is not
    transitive.
    """
    pts = vs.pts

    def cmp(i: int, j: int) -> int:
        (ax, ay), (bx, by) = pts[i], pts[j]
        cross = ax * by - ay * bx
        if cross:
            return -1 if cross > 0 else 1
        if ax * bx + ay * by >= 0:
            return 0  # same direction: stable sort keeps input order
        return -1 if sgn(dots(u.perp(), [pts[i]], vs.scale)[0]) < 0 else 1  # antipodal pairs only

    return functools.cmp_to_key(cmp)


def halfplane_certificate(
    ball: UnitBall, vectors: VectorMultiset, u: Vec2, tol: float = DEFAULT_TOL
) -> Certificate:
    """Construct the projection certificate for a halfplane instance.

    Requires the hypothesis of the halfplane bound; raises HypothesisFailed
    otherwise. The certificate's projection sum is always at least 1, and
    since the tangent functional is at most the gauge everywhere, that
    already implies the conclusion; both facts are re-checked here.

    The projection of v is tangent(v) / tangent(vk) for the middle vector
    vk, read off `geometry.dots`: on rational data with a rational tangent
    `Fraction`s of integer dots, the sum one `Fraction` of their sum;
    otherwise floats.
    """
    vs = Family(vectors)
    report = verify_theorem1(ball, vs, u, tol)
    if not report.hypothesis_holds:
        raise HypothesisFailed(report.notes or "hypothesis does not hold")
    order = sorted(range(len(vs)), key=_halfplane_angle_cmp(vs, u))
    k = (len(order) + 1) // 2  # 1-based position of the middle vector
    mid = order[k - 1]
    p, q, e = supporting_functional(ball, *vs.pts[mid], vs.scale, tol)
    tangent = Vec2(p / e, q / e) if is_float(p, q) else Vec2(Fraction(p, e), Fraction(q, e))
    nums = dots(tangent, [vs.pts[i] for i in order], vs.scale)
    if is_float(nums[k - 1]):
        projections = [m / nums[k - 1] for m in nums]
        projection_sum = functools.reduce(operator.add, projections, 0)  # as `vsum` adds
    else:
        projections = [Fraction(m, nums[k - 1]) for m in nums]
        projection_sum = Fraction(sum(nums), nums[k - 1])
    if not ge(projection_sum, 1, tol):
        raise TheoremFalsified(
            f"projection sum {projection_sum} < 1 on a halfplane instance"
        )
    if not report.conclusion_holds:  # pragma: no cover - implied by the above
        raise TheoremFalsified("certificate exists but total norm < 1")
    return Certificate(k, u, tangent, vs, order, projections, projection_sum)


def _three_sum_judge(sums: SubsetSums, k: int, strict: bool, tol: float):
    """The one judge of the three-sum theorems, on a family's subset sums.

    Strict: every vector in the ball and every 3-sum of norm > 1 imply a
    total of norm > 1. Non-strict: every vector of norm 1 and every 3-sum
    of norm >= 1 imply a total of norm >= 1. Returns the index tuples
    breaking the hypothesis (none when it holds) and the k-subsets whose
    sum fails the 3-sum test: k = n, the total, for T2 and T3.
    """
    single_ok, triple_ok = (le, gt) if strict else (eq, ge)
    bad = [t for t, ok in sums.tests(1, single_ok, tol) if not ok]
    bad += [t for t, ok in sums.tests(3, triple_ok, tol) if not ok]
    return bad, [t for t, ok in sums.tests(k, triple_ok, tol) if not ok]


def verify_helly(
    ball: UnitBall, vectors: VectorMultiset, strict: bool, tol: float = DEFAULT_TOL
) -> VerifyReport:
    """Check one of the two three-sum theorems on an instance.

    strict=False: unit vectors whose 3-sums all have norm >= 1 must sum to
    norm >= 1. strict=True: vectors in the ball whose 3-sums all have norm
    > 1 must sum to norm > 1. Collinear families need no path of their
    own: along a line through the origin the norm is |signed length|.
    The conclusion is read off the packing, as the family's one n-sum.
    """
    check_tol(tol)
    vs = Family(vectors)
    if len(vs) < 3:
        raise TooFew("need at least 3 vectors")
    if len(vs) % 2 == 0:
        raise EvenCardinality("the family must have odd size")
    bad, failing = _three_sum_judge(SubsetSums(ball, vs), len(vs), strict, tol)
    return VerifyReport("T3" if strict else "T2", not bad, not failing, ball, vs, bad)


def corollary_check(
    ball: UnitBall, vectors: VectorMultiset, k: int, tol: float = DEFAULT_TOL
) -> VerifyReport:
    """If every 3-sum is strictly outside the ball, so is every k-sum (k odd, k > 3)."""
    check_tol(tol)
    vs = Family(vectors)
    if type(k) is not int or k % 2 == 0 or k <= 3 or k > len(vs):
        raise BadK(f"k must be odd, > 3, and <= {len(vs)}; got {k!r}")
    bad, failing = _three_sum_judge(SubsetSums(ball, vs), k, True, tol)
    return VerifyReport("COR", not bad, not failing, ball, vs, bad or failing, f"k={k}")


def lemma_conv_check(
    ball: UnitBall, vectors: VectorMultiset, tol: float = DEFAULT_TOL
) -> tuple[bool, bool]:
    """For three boundary points a, b, c: (origin in conv, a+b+c in conv).

    The two memberships are equivalent for every norm; callers assert the
    equivalence, this function just computes both closed memberships, each
    by `geometry.origin_position` on the family's lattice pairs (scaling by
    the common denominator keeps every sign) or float pairs.
    """
    check_tol(tol)
    vs = Family(vectors)
    if len(vs) != 3:
        raise PreconditionFailed(f"need exactly 3 vectors, got {len(vs)}")
    for (i,), unit in SubsetSums(ball, vs).tests(1, eq, tol):
        if not unit:
            raise NotOnBoundary(f"{vs[i]} has gauge {gauge(ball, vs[i])}, expected 1")
    # h = a+b+c is in conv{a, b, c} exactly when 0 is in conv{b+c, c+a, a+b}:
    # h - a = b + c, h - b = c + a and h - c = a + b
    sums = [vs.lattice_sum(pair) for pair in ((0, 1), (1, 2), (2, 0))]
    return origin_position(vs.pts, tol) >= 0, origin_position(sums, tol) >= 0


def lemma_main_witness(
    ball: UnitBall, vectors: VectorMultiset, tol: float = DEFAULT_TOL,
    sums: Optional[SubsetSums] = None,
) -> tuple[int, int, int]:
    """For six vectors in the ball with zero sum, a triple whose sum is in the ball.

    Brute force over all 20 triples, lexicographically first hit. One always
    exists; not finding one raises TheoremFalsified, which is a hard bug.
    A caller that re-checks the triple passes `sums`, its own
    `SubsetSums(ball, vectors)`, and re-reads the packing used here.
    """
    check_tol(tol)
    zs = Family(vectors)
    if len(zs) != 6:
        raise PreconditionFailed(f"need exactly 6 vectors, got {len(zs)}")
    sums = sums or SubsetSums(ball, zs)
    for (i,), inside in sums.tests(1, le, tol):
        if not inside:
            raise PreconditionFailed(f"vector {i} is outside the ball")
    sx, sy = zs.lattice_sum(range(6))  # zero exactly when the sum is
    if not (eq(sx, 0, tol) and eq(sy, 0, tol)):
        raise PreconditionFailed("vectors do not sum to zero")
    for t, inside in sums.tests(3, le, tol):
        if inside:
            return t
    raise TheoremFalsified("no triple of a zero-sum 6-family lands in the ball")


_TRIPLES = tuple(combinations(range(6), 3))  # made once: a fresh tuple per triple is slower


def claim1_triplets(xs: Sequence[Scalar], tol: float = DEFAULT_TOL) -> list[tuple[int, int, int]]:
    """All triples of six zero-sum reals in [-1, 1] whose sum is back in [-1, 1].

    At least 12 of the 20 triples always qualify, and the qualifying set is
    closed under complement; both facts are what the callers test.
    The values are read by `scalars.exact_pairs`, as integer numerators m
    of their exact values over one denominator d (a float is the dyadic
    rational it denotes), and decided on ints as `norms.SubsetSums`
    decides a family: with t = `scalars.band(d, tol)` on float data and
    t = 0 on rational data, each |m| <= d + t, |Σm| <= t, and a triple
    qualifies when |its sum| <= d + t. A value that is not a finite int,
    `Fraction` or float is a `BadInput`.
    """
    check_tol(tol)
    values = list(xs)
    if len(values) != 6:
        raise PreconditionFailed(f"need exactly 6 values, got {len(values)}")
    pairs, d, floats = exact_pairs([values[0:2], values[2:4], values[4:6]])
    ms = [*pairs[0], *pairs[1], *pairs[2]]
    t = band(d, tol) if floats else 0
    top = d + t
    if max(map(abs, ms)) > top:
        outside = next(i for i, m in enumerate(ms) if abs(m) > top)
        raise PreconditionFailed(f"value {outside} is outside [-1, 1]")
    if abs(sum(ms)) > t:
        raise PreconditionFailed("values do not sum to zero")
    return [s for s in _TRIPLES if abs(ms[s[0]] + ms[s[1]] + ms[s[2]]) <= top]
