"""Constructive procedures: rotation reduction of a halfplane family,
the odd-subset sign choice, and general-position perturbation of a family
against a polygonal norm.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import (
    BadInput,
    EpsilonTooLarge,
    EvenCardinality,
    HalfplaneViolated,
    NotPolygonal,
    NotUnitVectors,
    SamplingExhausted,
    TheoremFalsified,
    ZeroDirection,
)
from .generators import seeded_rng
from .geometry import Family, as_direction
from .norms import SubsetSums, UnitBall, edge_functionals, gauge, shared_edge_value
from .scalars import DEFAULT_TOL, Scalar, check_tol, eq, exact_pairs, ge, le, sgn
from .vectors import Vec2, VectorMultiset


@dataclass
class RotationStep:
    """State snapshot after i vectors have been pinned to the horizontal axis."""

    moving: tuple[Vec2, ...]
    fixed: tuple[Vec2, ...]
    total: Vec2
    norm: float

    def to_json(self) -> dict:
        return {
            "moving": [v.to_json() for v in self.moving],
            "fixed": [v.to_json() for v in self.fixed],
            "sum": self.total.to_json(),
            "norm": self.norm,
        }


@dataclass
class RotationTrace:
    """n+1 snapshots (initial state plus one per pinned vector).

    The norm sequence is non-increasing up to rounding; the last snapshot
    has every vector at (1,0) or (-1,0), so the final norm is an odd
    nonnegative integer, and its `total` is the final sum. All coordinates
    live in the rotated frame where the halfplane direction is (0,1).
    """

    steps: list[RotationStep]


@dataclass
class SignVector:
    """The chosen signs and how many odd subsets their check covered."""

    signs: list[int]
    odd_subsets_checked: int


def _unit(x: float, y: float) -> tuple[float, float]:
    r = math.hypot(x, y)
    return x / r, y / r


def _turn(p: tuple[float, float], turn: tuple[float, float]) -> tuple[float, float]:
    (x, y), (c, s) = p, turn
    return c * x - s * y, s * x + c * y


def _rotation_snapshot(pts, pinned) -> tuple[RotationStep, tuple[float, float], float]:
    """The step of the points `pts`, the `pinned` ones fixed, with the sum
    of the moving ones and the x of the sum of the fixed ones: float pairs
    added left to right from 0, as `vsum` adds the step's `Vec2`s."""
    moving, fixed = [], []
    mx = my = fx = fy = 0
    for (x, y), done in zip(pts, pinned):
        if done:
            fixed.append(Vec2(x, y))
            fx, fy = fx + x, fy + y
        else:
            moving.append(Vec2(x, y))
            mx, my = mx + x, my + y
    total = Vec2(mx + fx, my + fy)
    return RotationStep(tuple(moving), tuple(fixed), total, math.hypot(total.x, total.y)), (mx, my), fx


def ginzburg_reduce(
    vectors: VectorMultiset, u: Vec2, tol: float = DEFAULT_TOL
) -> RotationTrace:
    """Rotate a Euclidean halfplane family onto the axis, one pin per step.

    Works on the vectors' points of the unit circle in the frame where u
    points straight up. At each step the not yet pinned vectors rotate
    rigidly in whichever direction keeps the norm of the running sum from
    growing, until the first of them (lowest index on ties) reaches (1,0)
    or (-1,0) and is pinned. The turn is read off that vector's (x, y), so
    no angle is formed: (cos, sin) = (-x, y) counterclockwise, (x, -y)
    clockwise. After n steps every vector sits on the horizontal axis and
    the norm of the sum is an odd integer, hence at least 1.
    """
    check_tol(tol)
    [(ux, uy)] = as_direction(u).floats()  # u and the vectors must be of finite numbers
    if ux == 0 and uy == 0:
        raise ZeroDirection("halfplane direction must be nonzero")
    vs = Family(vectors).floats()
    n = len(vs)
    if n % 2 == 0:
        raise EvenCardinality("the family must have odd size")
    big = max(abs(ux), abs(uy))  # scaled first, so that |u| cannot overflow
    ux, uy = _unit(ux / big, uy / big)
    pts: list[tuple[float, float]] = []
    for i, (vx, vy) in enumerate(vs):
        r = math.hypot(vx, vy)
        if not r or not eq(r, 1.0, tol):  # a zero vector, which eq lets by at tol >= 1
            raise NotUnitVectors(f"vector {i} has Euclidean norm {r}")
        x, y = uy * vx - ux * vy, ux * vx + uy * vy
        if not ge(y, 0.0, tol):
            raise HalfplaneViolated(f"vector {i} lies below the halfplane")
        if not x and y <= 0:  # straight below, within tol: the clamp leaves (0, 0)
            raise HalfplaneViolated(f"vector {i} has no direction in the halfplane")
        pts.append(_unit(x, max(y, 0.0)))
    pinned = [False] * n
    step, m, fx = _rotation_snapshot(pts, pinned)
    steps = [step]
    for _ in range(n):
        free = [i for i in range(n) if not pinned[i]]
        lx, ly = min((pts[i] for i in free), key=lambda p: p[0])
        hx, hy = max((pts[i] for i in free), key=lambda p: p[0])
        ccw_turn, cw_turn = _unit(-lx, ly), _unit(hx, -hy)
        c = sgn(-m[1] * fx, 1e-12)  # m x f, as f lies on the axis
        if c:
            ccw = c < 0
        else:
            # locally flat: compare the end states of both feasible stops
            (ax, ay), (bx, by) = _turn(m, ccw_turn), _turn(m, cw_turn)
            end_ccw, end_cw = math.hypot(fx + ax, ay), math.hypot(fx + bx, by)
            if not eq(end_ccw, end_cw, 1e-12):
                ccw = end_ccw < end_cw
            else:
                # still flat: send the vector closest to an axis to its
                # nearer axis endpoint (final tie goes clockwise)
                closest = max(free, key=lambda i: abs(pts[i][0]))
                ccw = pts[closest][0] < 0
        turn, target = (ccw_turn, -1.0) if ccw else (cw_turn, 1.0)
        for i in free:
            pts[i] = _turn(pts[i], turn)
        pin = next(i for i in free if le(pts[i][1], 0.0) and pts[i][0] * target > 0)
        pinned[pin] = True
        pts[pin] = (target, 0.0)
        step, m, fx = _rotation_snapshot(pts, pinned)
        steps.append(step)
    if not eq(steps[-1].norm, round(steps[-1].norm), 10 * tol):  # pragma: no cover
        raise TheoremFalsified("final norm is not an integer")
    return RotationTrace(steps)


def choose_signs(
    ball: UnitBall, vectors: VectorMultiset, tol: float = DEFAULT_TOL
) -> SignVector:
    """Signs making every odd-size subset sum have norm at least 1.

    Flipping each vector into the closed upper halfplane does it: any odd
    subfamily of the signed vectors then satisfies the halfplane bound.
    For up to 15 vectors the guarantee is re-verified exhaustively before
    returning; larger families get a 1000-subset sample check.
    """
    check_tol(tol)
    vs = Family(vectors)
    for (i,), unit in SubsetSums(ball, vs).tests(1, eq, tol):
        if not unit:
            raise NotUnitVectors(f"vector {i} has gauge {gauge(ball, vs[i])}")
    # u = (0, 1): the sign of u.v is that of v's lattice y (scale > 0)
    signs = [1 if ge(y, 0, tol) else -1 for _, y in vs.pts]
    signed = vs.signed(signs)
    n = len(vs)
    sums = SubsetSums(ball, signed)
    if n <= 15:  # one pass per odd size
        checks = chain.from_iterable(sums.tests(size, ge, tol) for size in range(1, n + 1, 2))
    else:
        rng = random.Random(0x5163)
        def _sampled():
            for _ in range(1000):
                size = rng.randrange(1, n + 1, 2)
                yield tuple(sorted(rng.sample(range(n), size)))
        checks = sums.tests(_sampled(), ge, tol)
    checked = 0
    for t, outside in checks:
        if not outside:
            raise TheoremFalsified(f"odd subset {t} has signed sum of norm < 1")
        checked += 1
    return SignVector(signs, checked)


_GRID = 10**6  # make_generic samples offsets on a grid of step radius / _GRID
_MAX_TRIES = 10_000  # and gives up after this many draws of the whole family


def _grid_fraction(rng: random.Random, radius: Fraction) -> Fraction:
    return Fraction(rng.randint(-_GRID, _GRID), _GRID) * radius


def make_generic(
    ball: UnitBall,
    vectors: VectorMultiset,
    lam: Scalar,
    eps: Scalar,
    seed: int,
) -> tuple[Vec2, ...]:
    """Perturb a scaled family into general position against the ball.

    Each output vector lands within gauge-distance eps of lam times its
    input, and no two distinct subsets of size at most 5 produce equal
    values under any pair of edge functionals. In particular all 3-sum and
    5-sum gauges are pairwise distinct, which is verified before returning.

    Draws the whole family on a fine rational grid and keeps it when no two
    subsets share a value (`shared_edge_value`); the bad set is a finite
    union of lines, so the first draw almost always passes, but a budget of
    draws turns any surprise into SamplingExhausted instead of a hang.
    """
    if not ball.is_polygonal:
        raise NotPolygonal("general-position perturbation needs a polygonal ball")
    [(m, e)], d, _ = exact_pairs([(lam, eps)])  # finite numbers, read exactly
    lam, eps = Fraction(m, d), Fraction(e, d)
    if not 0 < lam < 1:
        raise BadInput(f"lambda must be in (0, 1); got {lam}")
    if eps <= 0:
        raise BadInput(f"epsilon must be positive; got {eps}")
    vs = Family(vectors)
    if vs.scale is None:  # any float coordinate: every output vector is float
        vs = Family.from_lattice(vs.pts, None)
    for i, v in enumerate(vs):
        if lam * gauge(ball, v) + eps >= 1:
            raise EpsilonTooLarge(
                f"eps-neighbourhood of vector {i} does not stay inside the ball"
            )
    coeff_bound = max(abs(n.x) + abs(n.y) for n in edge_functionals(ball))
    radius = eps / (2 * coeff_bound)  # sup-ball of this radius has gauge <= eps/2
    rng = seeded_rng(seed)
    centers = [v.scale(lam) for v in vs]
    for _ in range(_MAX_TRIES):
        out = tuple([c + Vec2(_grid_fraction(rng, radius), _grid_fraction(rng, radius)) for c in centers])
        shared = shared_edge_value(ball, out, 5)
        if shared is None:
            _check_generic(ball, vs, out, lam, eps)
            return out
    a, b = shared
    raise SamplingExhausted(f"subsets {a} and {b} share an edge value in all {_MAX_TRIES} draws")


def _check_generic(
    ball: UnitBall,
    originals: Sequence[Vec2],
    perturbed: Sequence[Vec2],
    lam: Fraction,
    eps: Fraction,
) -> None:
    for v, w in zip(originals, perturbed):
        if not gauge(ball, w - v.scale(lam)) <= eps:
            raise TheoremFalsified("perturbation moved too far")
    seen: dict[Scalar, tuple[int, ...]] = {}
    sums = SubsetSums(ball, perturbed)
    for t, g in chain(sums.gauges(3), sums.gauges(5)):
        if g in seen and seen[g] != t:
            raise TheoremFalsified(
                f"subsets {seen[g]} and {t} share the sum norm {g}"
            )
        seen[g] = t
