"""Plane vectors over exact rationals or floats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BadInput
from .scalars import Scalar, format_scalar, parse_scalar


@dataclass(frozen=True)
class Vec2:
    x: Scalar
    y: Scalar

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scale(self, s: Scalar) -> "Vec2":
        return Vec2(s * self.x, s * self.y)

    def dot(self, other: "Vec2") -> Scalar:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> Scalar:
        return self.x * other.y - self.y * other.x

    def perp(self) -> "Vec2":
        # counterclockwise quarter turn
        return Vec2(-self.y, self.x)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def to_json(self) -> list[str]:
        return [format_scalar(self.x), format_scalar(self.y)]

    @classmethod
    def from_json(cls, pair: Sequence) -> "Vec2":
        """The point of a pair of numerals, each read to its exact value."""
        try:
            x, y = () if isinstance(pair, str) else pair  # "12" is one numeral, not ("1", "2")
        except (TypeError, ValueError):
            raise BadInput(f"a point must be a pair of scalars; got {pair!r}") from None
        return cls(parse_scalar(x), parse_scalar(y))


ORIGIN = Vec2(0, 0)


def vsum(vectors: Iterable[Vec2]) -> Vec2:
    """The library's one summation rule: left to right from 0. Builtin `sum`
    from a `Vec2` start keeps it on every CPython; over floats it does not
    from 3.12 on (compensated), so the library folds those by hand."""
    return sum(vectors, ORIGIN)


# An ordered multiset of plane vectors; order is preserved, duplicates allowed.
VectorMultiset = Sequence[Vec2]
