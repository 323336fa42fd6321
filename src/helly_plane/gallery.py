"""A registry of fixed boundary and counterexample instances.

Each case packages bit-exact fixture data with the named checks it must
reproduce: the max-norm family where the strict three-sum theorem's closed
variant fails, the even-size escape hatch, the equality instance for the
halfplane bound, and the two three-dimensional families showing that none
of this survives one dimension up. The 3D cases use a tiny local vector
type; nothing three-dimensional leaks out of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .errors import UnknownCase
from .geometry import Family, dots
from .norms import SubsetSums, UnitBall, euclidean_ball, gauge, square_ball
from .scalars import eq, format_scalar
from .vectors import Vec2, vsum


@dataclass(frozen=True)
class Vec3:
    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))


@dataclass
class CheckResult:
    name: str
    expected: str
    actual: str
    passed: bool


@dataclass
class GalleryCase:
    name: str
    ball: UnitBall | None  # None for the 3D Euclidean fixtures
    vectors: list
    run: Callable[[], list[CheckResult]] = field(repr=False)


def _check(name: str, expected, actual, passed: bool) -> CheckResult:
    return CheckResult(name, str(expected), str(actual), passed)


def _case_thm3_closed_fails() -> GalleryCase:
    """Max norm family where every 3-sum has norm >= 1 yet the total is short."""
    ball = square_ball()
    vectors = [Vec2(1, 1), Vec2(-1, 1)] + [Vec2(0, Fraction(-1, 2))] * 3

    def run() -> list[CheckResult]:
        min3 = min(g for _, g in SubsetSums(ball, vectors).gauges(3))
        total = vsum(vectors)
        tn = gauge(ball, total)
        return [
            _check("min 3-sum gauge", "1", format_scalar(min3), min3 == 1),
            _check("total", "(0, 1/2)", f"({format_scalar(total.x)}, {format_scalar(total.y)})",
                   total == Vec2(0, Fraction(1, 2))),
            _check("total gauge", "1/2", format_scalar(tn), tn == Fraction(1, 2)),
        ]

    return GalleryCase("thm3-closed-fails", ball, vectors, run)


def _case_even_n() -> GalleryCase:
    """k copies each of two near-antipodal unit vectors: the total collapses.

    With |w1 + w2| = eps and n = 2k the total norm is k*eps, as small as
    you like; the odd-size requirement of the sum theorems is sharp.
    """
    eps = 1e-2
    k = 5
    x = math.sqrt(1.0 - (eps / 2.0) ** 2)
    w1 = Vec2(-x, eps / 2.0)
    w2 = Vec2(x, eps / 2.0)
    vectors = [w1] * k + [w2] * k
    ball = euclidean_ball()

    def run() -> list[CheckResult]:
        total = vsum(vectors)
        tn = gauge(ball, total)
        expected = k * eps  # 1/20
        unit = all(eq(gauge(ball, v), 1.0) for v in vectors)
        return [
            _check("all unit", "True", str(unit), unit),
            _check("total norm", expected, tn, eq(tn, expected)),
            _check("total norm < 1", "True", str(tn < 1), tn < 1),
        ]

    return GalleryCase("even-n", ball, vectors, run)


def _case_remark1_equality() -> GalleryCase:
    """Strict halfplane dots do not force a strict sum bound: max-norm equality."""
    ball = square_ball()
    eps = Fraction(1, 10)
    vectors = [Vec2(-1, eps)] * 3 + [Vec2(1, eps)] * 2
    u = Vec2(0, 1)

    def run() -> list[CheckResult]:
        fam = Family(vectors)
        positive = all(d > 0 for d in dots(u, fam.pts, fam.scale))
        total = vsum(vectors)
        tn = gauge(ball, total)
        return [
            _check("all dots > 0", "True", str(positive), positive),
            _check("all unit", "True", str(all(gauge(ball, v) == 1 for v in vectors)),
                   all(gauge(ball, v) == 1 for v in vectors)),
            _check("total gauge", "1", format_scalar(tn), tn == 1),
        ]

    return GalleryCase("remark1-equality", ball, vectors, run)


def _case_remark2_3d() -> GalleryCase:
    """A regular 7-gon just above the equator of the 3D Euclidean ball.

    Every dot with the pole direction is positive, yet the sum has norm
    eps*n: the halfplane bound is strictly two-dimensional.
    """
    eps = 1e-2
    n = 7
    r = math.sqrt(1.0 - eps * eps)
    u = Vec3(0.0, 0.0, 1.0)
    vectors = [
        Vec3(r * math.cos(2 * math.pi * i / n), r * math.sin(2 * math.pi * i / n), eps)
        for i in range(n)
    ]

    def run() -> list[CheckResult]:
        unit = all(eq(v.norm(), 1.0) for v in vectors)
        dots_pos = all(u.dot(v) > 0 for v in vectors)
        tn = sum(vectors, Vec3(0.0, 0.0, 0.0)).norm()
        expected = eps * n  # 7/100
        return [
            _check("all unit", "True", str(unit), unit),
            _check("all dots > 0", "True", str(dots_pos), dots_pos),
            _check("total norm", expected, tn, eq(tn, expected)),
        ]

    return GalleryCase("remark2-3d", None, vectors, run)


def _case_remark4_tetrahedron() -> GalleryCase:
    """The regular tetrahedron in the 3D Euclidean ball: all 3-sums have
    norm 1 while the full sum vanishes, killing the three-sum theorems in 3D."""
    s = 1.0 / math.sqrt(3.0)
    vectors = [
        Vec3(s, s, s),
        Vec3(s, -s, -s),
        Vec3(-s, s, -s),
        Vec3(-s, -s, s),
    ]

    def run() -> list[CheckResult]:
        norms3 = [
            sum((vectors[i] for i in t), Vec3(0.0, 0.0, 0.0)).norm() for t in combinations(range(4), 3)
        ]
        tn = sum(vectors, Vec3(0.0, 0.0, 0.0)).norm()
        ok3 = all(eq(g, 1.0) for g in norms3)
        return [
            _check("all 3-sum norms", "1", f"{norms3}", ok3),
            _check("total norm", "0", f"{tn}", eq(tn, 0.0)),
        ]

    return GalleryCase("remark4-tetrahedron", None, vectors, run)


_REGISTRY: dict[str, Callable[[], GalleryCase]] = {
    "thm3-closed-fails": _case_thm3_closed_fails,
    "even-n": _case_even_n,
    "remark1-equality": _case_remark1_equality,
    "remark2-3d": _case_remark2_3d,
    "remark4-tetrahedron": _case_remark4_tetrahedron,
}

CASE_NAMES = tuple(_REGISTRY)


def gallery_case(name: str) -> GalleryCase:
    """Fetch a fixture by name; raises UnknownCase for anything else."""
    try:
        build = _REGISTRY[name]
    except KeyError:
        raise UnknownCase(f"no gallery case named {name!r}") from None
    return build()


def run_gallery() -> dict[str, list[CheckResult]]:
    """Evaluate every registered case and collect its check results."""
    return {name: gallery_case(name).run() for name in CASE_NAMES}
