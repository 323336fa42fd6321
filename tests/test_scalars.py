from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helly_plane.errors import BadInput
from helly_plane.scalars import (
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
