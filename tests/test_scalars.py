import math
import random
import re
import struct
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helly_plane.errors import BadInput
from helly_plane.scalars import (
    SIGN_ANSWERS,
    band,
    eq,
    float_cuts,
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


def test_numerals_past_float_range_are_read_exactly():
    # rounding is left to where a family is rounded (`Family.floats`)
    for text in ("1e400", "-1e400", "1" + "0" * 400 + "/3"):
        assert parse_scalar(text) == Fraction(text)


# Python 3.11 reads "1_000" and 3.12 "1 /2"; 3.10 reads neither
@pytest.mark.parametrize("text", ["1_000", "1 /2", "1/ 2", "1e4300", "1e-4300", "1/" + "9" * 4301,
                                  "9" * 4301, "0." + "0" * 4300, "1/0", "1/000", ".", "1e", "inf",
                                  "nan", "", "\u0661", "1\u00a0"])
def test_parse_refuses_what_is_not_a_numeral_of_the_grammar(text):
    with pytest.raises(BadInput):
        parse_scalar(text)


def test_parse_refuses_a_huge_exponent_from_its_text():
    # Fraction reads it by forming 10**10000000, which takes seconds
    start = time.perf_counter()
    with pytest.raises(BadInput, match="more than 4300 digits"):
        parse_scalar("1e10000000")
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("text", ["1e4299", "1e-4299", " 1/2 ", "-.5", "1E5", "+1.", "0012.50e+0001",
                                  "1e00000000000000000000000000005", "9" * 4300, "1/0007"])
def test_parse_reads_the_grammar_to_the_exact_value(text):
    assert parse_scalar(text) == Fraction(text)


# `fractions._RATIONAL_FORMAT` of Python 3.10, in ASCII
FRACTION_310 = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*)
    (?:(?:/(?P<denom>\d+))?|(?:\.(?P<decimal>\d*))?(?:E(?P<exp>[-+]?\d+))?)\s*\Z
""", re.VERBOSE | re.IGNORECASE | re.ASCII)


@settings(max_examples=500)
@given(st.text("0123456789+-./eE_ ", max_size=9))
def test_parse_reads_what_python_310_reads(text):
    # ...with a nonzero denominator, and ints of at most 4300 digits as written
    m = FRACTION_310.match(text)
    if m is not None:
        num, den, dec, e = m["num"], m["denom"], m["decimal"] or "", int(m["exp"] or 0)
        big = max(len(num + dec) + max(e, 0), len(den) if den else 1 + len(dec) + max(-e, 0)) > 4300
    if m is None or den and not den.strip("0") or big:
        with pytest.raises(BadInput):
            parse_scalar(text)
    else:
        assert parse_scalar(text) == Fraction(text)


def test_a_float_numeral_reads_back_to_the_float():
    rng = random.Random(20261021)
    xs = [5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308]
    xs += [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(2000)]
    for x in filter(math.isfinite, xs):
        assert float(parse_scalar(format_scalar(x))) == x, x


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


# zero, the least float, the default, bands up to and past the gauge itself,
# the float just below 1 (where g − 1 rounds across the cut), huge ones,
# and a rational one
CUT_TOLS = [0, 5e-324, 1e-9, 1e-3, 0.5, 0.9999999999999999, 1, 1.5, 1e6, 1e300, Fraction(1, 3)]


def _random_floats(rng: random.Random) -> list[float]:
    """Floats >= 0: near 1, of any size, and of any bit pattern short of NaN."""
    near = [rng.uniform(0.0, 2.0) for _ in range(200)]
    scaled = [rng.random() * 10.0 ** rng.randint(-320, 308) for _ in range(200)]
    bits = [math.ldexp(rng.random(), rng.randint(-1074, 1024)) for _ in range(200)]
    return near + scaled + bits


@pytest.mark.parametrize("tol", CUT_TOLS, ids=repr)
def test_float_cuts_split_the_floats_where_the_relations_do(tol):
    # below L, in [L, H] and above H: every relation answers rel(g, 1, tol)
    # as its sign answers below, at and above its bound
    low, high = float_cuts(tol)
    assert 0.0 <= low and low <= math.nextafter(high, math.inf)
    probes = [0.0, 1.0, math.inf]
    for cut in (low, high):
        probes += [cut, math.nextafter(cut, -math.inf), math.nextafter(cut, math.inf)]
    probes += _random_floats(random.Random(repr(tol)))
    for g in (g for g in probes if g >= 0):
        assert (g < low) == (not ge(g, 1, tol)) and (g > high) == gt(g, 1, tol), g
        for rel, answers in SIGN_ANSWERS.items():
            assert rel(g, 1, tol) == answers[(g >= low) + (g > high)], (rel.__name__, g)


def test_float_cuts_are_kept_per_tol():
    assert float_cuts(1e-9) is float_cuts(1e-9)
    assert float_cuts(0) == float_cuts(0.0) == (1.0, 1.0)
    assert float_cuts(1) == (0.0, 2.0)
    assert 0 < float_cuts.cache_info().maxsize <= 64
