import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helly_plane.errors import BadInput
from helly_plane.scalars import (
    band,
    eq,
    format_scalar,
    ge,
    gt,
    le,
    parse_scalar,
    sgn,
)


def test_parse_rational():
    assert parse_scalar("3/5") == Fraction(3, 5)
    assert parse_scalar("-7/2") == Fraction(-7, 2)
    assert parse_scalar("1.4") == Fraction(7, 5)
    assert parse_scalar("2") == Fraction(2)


def test_parse_float_mode():
    v = parse_scalar("3/4", mode="float")
    assert isinstance(v, float) and v == 0.75


def test_float_mode_past_float_range_is_bad_input():
    for text in ("1e400", "-1e400", "1" + "0" * 400 + "/3"):
        with pytest.raises(BadInput, match="past float range"):
            parse_scalar(text, mode="float")
        assert parse_scalar(text) == Fraction(text)  # exact mode has no range


def test_format_roundtrip():
    for text in ["3/5", "-1", "0", "7/3"]:
        assert format_scalar(parse_scalar(text)) == text


@given(st.fractions(max_denominator=1000))
def test_parse_format_roundtrip_property(x):
    assert parse_scalar(format_scalar(x)) == x


def test_exact_comparisons_have_no_slack():
    a = Fraction(1) + Fraction(1, 10**12)
    assert gt(a, 1)
    assert not le(a, 1)
    assert not eq(a, 1)


def test_float_comparisons_are_tolerant():
    assert eq(1.0 + 1e-12, 1.0)
    assert ge(1.0 - 1e-12, 1.0)
    assert not gt(1.0 + 1e-12, 1.0)


def test_sgn():
    assert sgn(Fraction(-1, 10**9)) == -1
    assert sgn(0) == 0
    assert sgn(1e-12, tol=1e-9) == 0
    assert sgn(1e-6, tol=1e-9) == 1


# the exact meaning of each float relation: the difference of the exact
# values against Fraction(tol)
EXACT_BAND = {
    eq: lambda delta, tau: abs(delta) <= tau,
    le: lambda delta, tau: delta <= tau,
    ge: lambda delta, tau: delta >= -tau,
    gt: lambda delta, tau: delta > tau,
}


def _near(b: float, tol: float) -> list[float]:
    """b and b +- tol as floats round them, and one ulp either side of each."""
    cs = [b, b + tol, b - tol]
    return cs + [math.nextafter(c, d) for c in cs for d in (-math.inf, math.inf)]


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3, 0.25])
@pytest.mark.parametrize("b", [0.0, 1.0])
def test_float_relations_are_the_exact_band(b, tol):
    # a is within a factor 2 of b (or b is 0), so a - b is exact (Sterbenz)
    # and each relation is decided on the exact difference
    for a in _near(b, tol):
        delta, tau = Fraction(a) - Fraction(b), Fraction(tol)
        for rel, meaning in EXACT_BAND.items():
            assert rel(a, b, tol) == meaning(delta, tau), (rel.__name__, a, b, tol)
        assert eq(a, b, tol) == (le(a, b, tol) and ge(a, b, tol))
        assert gt(a, b, tol) == (not le(a, b, tol))
        assert le(a, b, tol) == ge(b, a, tol)


def test_the_float_one_plus_tol_is_past_the_band():
    # the float 1.0 + 1e-9 lies above 1 + Fraction(1e-9), so it is not
    # within tol of 1 whichever way it is asked; `a <= b + tol` and
    # `a >= b - tol`, where b +- tol rounds back onto it, said it was
    a = 1.0 + 1e-9
    assert Fraction(a) > 1 + Fraction(1e-9)
    assert eq(a, 1.0) is le(a, 1.0) is ge(1.0, a) is False
    assert ge(a, 1.0) and gt(a, 1.0)


@pytest.mark.parametrize("d", [1, 7, 10**9, 2**90 + 1])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3, 0.25, 1.0, 3])
def test_band_is_the_rule_on_ints(d, tol):
    # |m/d - 1| <= Fraction(tol) exactly when d - t <= m <= d + t
    t, tau = band(d, tol), Fraction(tol)
    for m in (d - t - 1, d - t, d, d + t, d + t + 1):
        assert (abs(Fraction(m, d) - 1) <= tau) == (d - t <= m <= d + t)
