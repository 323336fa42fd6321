"""Scalar field helpers: exact rationals with a float fallback.

Exact work runs on `fractions.Fraction` (closed arithmetic, exact
comparison); Euclidean work runs on `float`. The comparison helpers below
dispatch on operand types: as soon as a float is involved the comparison
becomes tolerant (default tolerance 1e-9), otherwise it is exact. This is
what lets every predicate in the library distinguish `>=` from `>` without
carrying an explicit mode flag around.

This module is the one place where "within tol" is decided, by one rule:
a float relation compares the difference a − b with tol (`le` is
a − b <= tol, `ge` a − b >= −tol, `gt` a − b > tol and `eq`
|a − b| <= tol). By Sterbenz's lemma a − b is exact when a is within a
factor 2 of b (b/2 <= a <= 2b), and always when b is 0, so there each
relation is the exact band: Fraction(a) − Fraction(b) against
Fraction(tol). A gauge compared with 1 is decided exactly whenever it is
in [1/2, 2], which holds every gauge near the band when tol < 1/2. So
on floats, as on ints, `eq` is `le` and `ge`, and `gt` is not `le`.
`band` is the same rule on ints, which the packed kernel of `norms`
reads, and `float_cuts` its float form: the two floats that cut the
floats >= 0 into those below, in and above the band around 1, which the
Euclidean walk of `norms` reads. Both cuts are read off `ge` and `gt`
themselves, and `SIGN_ANSWERS` holds each relation's answers below, at
and above its bound, derived from the relations themselves.

This module is also the one place that decides what a number is, and the
only one that reads one. A coordinate, a Claim 1 value and
`make_generic`'s λ and ε are finite ints (a bool is one), `Fraction`s or
floats, told by type (`NUMBERS`); anything else, a NaN and an infinity are
a `BadInput`. `exact_pairs` is the one reader that puts pairs of numbers
on the integer lattice of their exact values (a float is the dyadic
rational it denotes), and `float_pairs` rounds them to floats, each once;
`lattice_pairs`, the lattice form of a family, tells float data by its
kinds first and takes the one or the other.

It is also the one place that decides what text denotes a number.
`parse_scalar` reads a numeral to its exact `Fraction` by one grammar,
compiled once (`_NUMERAL`): what `Fraction` reads on Python 3.10, the
oldest supported, whose grammar later versions only add to ("1_000" on
3.11, "1 /2" on 3.12), so a file means the same numbers on each. A numeral
whose numerator or denominator as written needs more than `MAX_DIGITS`
digits, CPython's limit for an int printed to a str, is refused from its
text, before any int is formed. A numeral is never rounded here, only where
a family is rounded (`float_pairs`, `geometry.Family.floats`).
"""

from __future__ import annotations

import math
import re
import struct
from fractions import Fraction
from functools import lru_cache
from operator import truediv
from typing import Optional, Sequence, Union

from .errors import BadInput

Scalar = Union[int, Fraction, float]

DEFAULT_TOL = 1e-9

NUMBERS = frozenset([int, bool, Fraction, float])  # what a coordinate may be, by its type


# Python 3.10's `fractions._RATIONAL_FORMAT`, in ASCII digits and spaces (so the
# interpreter's Unicode tables do not enter) and with a nonzero denominator
_NUMERAL = re.compile(r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*)"  # a sign, then digits or .digit, then
                      r"(?:/(?P<den>0*[1-9]\d*)|(?:\.(?P<dec>\d*))?(?:E(?P<exp>[-+]?\d+))?)\s*",  # /q, or .d and e
                      re.IGNORECASE | re.ASCII)

MAX_DIGITS = 4300  # CPython's default limit on the digits of an int read from or printed to str


def parse_scalar(text: str) -> Fraction:
    """The exact value of a numeral, "p/q" or a decimal with an optional
    fraction part and exponent (`_NUMERAL`). A numeral whose numerator or
    denominator as written needs more than `MAX_DIGITS` digits is a
    `BadInput`, told from its text before any int is formed."""
    m = _NUMERAL.fullmatch(str(text))
    if m is None:
        raise BadInput(f"not a scalar: {text!r}")
    sign, num, den, dec, exp = m.groupdict("").values()  # in the grammar's order; "" where absent
    e = int(exp or 0) if len(exp.lstrip("+-0")) <= 4 else MAX_DIGITS + 1  # |e| > 9999 is past it either way
    up, down = max(e, 0), len(dec) + max(-e, 0)  # the powers of ten on the numerator and the denominator
    if max(len(num + dec) + up, len(den) if den else down + 1) > MAX_DIGITS:
        raise BadInput(f"a numeral needing more than {MAX_DIGITS} digits: {text!r:.40}")
    return Fraction(int(sign + num + dec) * 10**up, int(den) if den else 10**down)


def format_scalar(x: Scalar) -> str:
    # str of an int or a Fraction is already its "p/q" form
    return repr(x) if isinstance(x, float) else str(x)


def format_ratio(n: int, d: int) -> str:
    """`str(Fraction(n, d))` for d > 0, formed on ints: reduced "p/q", or "p"."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def is_float(*xs: Scalar) -> bool:
    return any(isinstance(x, float) for x in xs)


def _refused(pts: Sequence) -> BadInput:
    return BadInput(f"values must be finite numbers, vectors plane vectors of finite numbers (ints, "
                    f"Fractions or floats; not NaN, inf or past float range where rounded); got {pts!r}")


def exact_pairs(pts: Sequence[tuple[Scalar, Scalar]]) -> tuple[list[tuple[int, int]], int, bool]:
    """The one exact reader: pairs of numbers as integer pairs over one
    common denominator, each coordinate its exact value, a float the
    dyadic rational it denotes (`Fraction(x)`), and whether any coordinate
    is a float. A coordinate that is not of a kind in `NUMBERS`, a NaN or
    an infinity, is a `BadInput`.

    Floats alone share a power of two 2^s: each finite float is
    k·2^(e − 53), k an int, with `math.frexp`'s exponent e, so with
    s = 53 − the least e every float times 2^s is an int, which
    `math.ldexp` forms in C. Floats wider apart than float range holds,
    and rationals, are read by their `as_integer_ratio`."""
    kinds = {type(c) for xy in pts for c in xy}
    if kinds == {float}:
        s = max(53 - math.frexp(min([abs(c) for xy in pts for c in xy if c], default=1.0))[1], 0)
        ldexp = math.ldexp
        try:
            return [(int(ldexp(x, s)), int(ldexp(y, s))) for x, y in pts], 1 << s, True
        except (OverflowError, ValueError):  # x·2^s past float range, an inf or a NaN
            pass
    return (*_ratio_pairs(pts, kinds), float in kinds)


def lattice_pairs(pts: Sequence[tuple[Scalar, Scalar]]) -> tuple[list[tuple], Optional[int]]:
    """The lattice form of pairs of numbers: `exact_pairs`' integer pairs
    and denominator when no coordinate is a float, else `float_pairs` and
    None. Float data is told by its kinds first, so it is never read
    exactly only to be rounded; the rule and its `BadInput` are the same."""
    kinds = {type(c) for xy in pts for c in xy}
    return (float_pairs(pts), None) if float in kinds else _ratio_pairs(pts, kinds)


def _ratio_pairs(pts: Sequence[tuple[Scalar, Scalar]], kinds: set) -> tuple[list[tuple[int, int]], int]:
    """`exact_pairs` read by each coordinate's `as_integer_ratio`, once
    `kinds`, the set of the coordinates' types, is known."""
    if not kinds <= NUMBERS:
        raise _refused(pts)
    try:
        ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in pts]
    except (OverflowError, ValueError):  # an inf or a NaN
        raise _refused(pts) from None
    den = math.lcm(*[e for xy in ratios for _, e in xy])
    return [(a * (den // b), c * (den // e)) for (a, b), (c, e) in ratios], den


def float_pairs(pts: Sequence[tuple[Scalar, Scalar]], finite: bool = True) -> list[tuple[float, float]]:
    """Pairs of numbers as float pairs, a rational rounded once, as `float`
    rounds it; a list of finite float pairs comes back as it is. A
    coordinate that is not of a kind in `NUMBERS`, a NaN, a rational past
    float range or, when `finite`, an infinity, is a `BadInput`."""
    # the kinds of all but finite floats, and the floats refused themselves
    odd = {c if type(c) is float else type(c) for xy in pts for c in xy
           if type(c) is not float or c - c and (finite or c != c)}
    if not odd:
        return pts
    if not odd <= NUMBERS:
        raise _refused(pts)
    try:  # int / int rounds a rational once, as `float` does, and sooner
        return [(x if type(x) is float else truediv(*x.as_integer_ratio()),
                 y if type(y) is float else truediv(*y.as_integer_ratio())) for x, y in pts]
    except OverflowError:  # a rational past float range
        raise _refused(pts) from None


def check_tol(tol: float, kinds: tuple = (int, Fraction, float)) -> None:
    """Raise BadInput unless the comparison tolerance is a finite number >= 0
    (a bool is not a number here, as for `run_suite`'s `trials`) whose type
    is one of `kinds`: a number of a kind outside `NUMBERS`, such as a
    `Decimal`, is refused by its type."""
    try:
        ok = not isinstance(tol, bool) and 0 <= tol < math.inf  # a NaN fails too
    except (TypeError, ArithmeticError):  # not a number: a str, None, a complex; a Decimal NaN
        ok = False
    if not ok:
        raise BadInput(f"tol must be finite and >= 0; got {tol!r}")
    if type(tol) not in kinds:
        raise BadInput(f"tol must be of type {' or '.join([k.__name__ for k in kinds])}; got {tol!r}")


def eq(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= tol
    return a == b


def le(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a - b <= tol
    return a <= b


def ge(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a - b >= -tol
    return a >= b


def gt(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a - b > tol
    return a > b


# rel -> (rel(-1, 0), rel(0, 0), rel(1, 0)): each relation's answers below,
# at and above its bound; on ints they do not depend on tol
SIGN_ANSWERS = {rel: (rel(-1, 0), rel(0, 0), rel(1, 0)) for rel in (eq, le, ge, gt)}


def band(d: int, tol: float) -> int:
    """The rule on ints: t = ⌊d·τ⌋, τ = Fraction(tol), so that for ints m
    and d > 0, |m/d − 1| <= τ exactly when d − t <= m <= d + t."""
    a, b = tol.as_integer_ratio()
    return d * a // b


@lru_cache(maxsize=16)
def float_cuts(tol: float) -> tuple[float, float]:
    """The rule on floats >= 0 against 1: (L, H) such that for every float
    g >= 0, `ge(g, 1, tol)` is False (g below the band) exactly when
    g < L, and `gt(g, 1, tol)` is True (g above it) exactly when g > H.
    g − 1 is monotone in g, so each relation changes its answer once over
    the floats, and each cut is found by bisection over their IEEE 754
    bits, which the floats >= 0 order as ints: L is the least float with
    `ge` true, H the greatest with `gt` false. Kept per tol in a bounded
    cache (a tol `check_tol` admits is an int, a `Fraction` or a float)."""

    def double(i: int) -> float:
        return struct.unpack("<d", struct.pack("<q", i))[0]

    def first(holds) -> int:  # the least bits i of a float with holds(float); holds(inf)
        lo, hi = 0, 0x7FF0_0000_0000_0000  # the bits of 0.0 and of inf
        while lo < hi:
            mid = (lo + hi) // 2
            if holds(double(mid)):
                hi = mid
            else:
                lo = mid + 1
        return lo

    return double(first(lambda g: ge(g, 1, tol))), double(first(lambda g: gt(g, 1, tol)) - 1)


def sgn(x: Scalar, tol: float = 0.0) -> int:
    """Sign of x; floats within tol of zero count as zero."""
    if isinstance(x, float):
        if abs(x) <= tol:
            return 0
        return 1 if x > 0 else -1
    if x == 0:
        return 0
    return 1 if x > 0 else -1
