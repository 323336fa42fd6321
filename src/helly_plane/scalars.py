"""Scalar field helpers: exact rationals with a float fallback.

Exact work runs on `fractions.Fraction` (closed arithmetic, exact
comparison); Euclidean work runs on `float`. The comparison helpers below
dispatch on operand types: as soon as a float is involved the comparison
becomes tolerant (default tolerance 1e-9), otherwise it is exact. This is
what lets every predicate in the library distinguish `>=` from `>` without
carrying an explicit mode flag around.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import BadInput

Scalar = Union[int, Fraction, float]

DEFAULT_TOL = 1e-9


def parse_scalar(text: str, mode: str = "exact") -> Scalar:
    """Parse a decimal or "p/q" string. Exact mode returns a Fraction."""
    try:
        value = Fraction(str(text))
        return float(value) if mode == "float" else value
    except (ValueError, ZeroDivisionError):
        raise BadInput(f"not a scalar: {text!r}") from None
    except OverflowError:  # float(value) past float range
        raise BadInput(f"past float range: {text!r}") from None


def format_scalar(x: Scalar) -> str:
    # str of an int or a Fraction is already its "p/q" form
    return repr(x) if isinstance(x, float) else str(x)


def format_ratio(n: int, d: int) -> str:
    """`str(Fraction(n, d))` for d > 0, formed on ints: reduced "p/q", or "p"."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def is_float(*xs: Scalar) -> bool:
    return any(isinstance(x, float) for x in xs)


def lattice_values(xs: Sequence[Scalar]) -> Optional[tuple[list[int], int]]:
    """Rationals as integer numerators over one common denominator.

    Returns `(numerators, den)` with `x == m / den` for each x, or None
    when any x is a float.
    """
    if is_float(*xs):
        return None
    # unpack a list, not a generator: a tuple built from a generator is
    # resized, and such tuples pile up in CPython's free lists (peak memory)
    den = math.lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


def float_values(xs: Sequence[Scalar], finite: bool = True) -> Optional[list[float]]:
    """Floats and rationals as floats, a rational rounded as `float` rounds
    it; None when one is NaN or past float range, or, when `finite`, an
    infinite float. A str raises, as in `lattice_values`."""
    try:
        floats = [x if isinstance(x, float) else x.numerator / x.denominator for x in xs]
    except OverflowError:  # a rational past float range
        return None
    ok = all(map(math.isfinite, floats)) if finite else not any(map(math.isnan, floats))
    return floats if ok else None


def check_tol(tol: float) -> None:
    """Raise BadInput unless the comparison tolerance is a finite number >= 0
    (a bool is not a number here, as for `run_suite`'s `trials`)."""
    try:
        ok = not isinstance(tol, bool) and 0 <= tol < math.inf  # a NaN fails too
    except TypeError:  # not a number: a str, None, a complex
        ok = False
    if not ok:
        raise BadInput(f"tol must be finite and >= 0; got {tol!r}")


def eq(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= tol
    return a == b


def le(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a <= b + tol
    return a <= b


def ge(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a >= b - tol
    return a >= b


def gt(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a > b + tol
    return a > b


def sgn(x: Scalar, tol: float = 0.0) -> int:
    """Sign of x; floats within tol of zero count as zero."""
    if isinstance(x, float):
        if abs(x) <= tol:
            return 0
        return 1 if x > 0 else -1
    if x == 0:
        return 0
    return 1 if x > 0 else -1
