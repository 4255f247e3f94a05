from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclodet.rationals import format_rational, parse_integer, parse_rational, rational


def test_canonical_reduction():
    assert rational(2, 4) == Fraction(1, 2)
    assert rational(2, 4).numerator == 1 and rational(2, 4).denominator == 2


def test_sign_normalization():
    q = rational(3, -6)
    assert q == Fraction(-1, 2)
    assert q.denominator == 2 and q.numerator == -1


def test_zero_canonicalization():
    q = rational(0, 7)
    assert q.numerator == 0 and q.denominator == 1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        format_rational(0.1)
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(1, 2.0)


def test_parse_and_format():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == -5
    assert parse_rational(" 6/-4 ") == Fraction(-3, 2)
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(8, 4)) == "2"
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("x")


@pytest.mark.parametrize("text", ["\u0663/4", "\u0663", "1/\u0664", "\uff11", "1_000",
                                  "1/ 2", "1 /2", "- 1", "+-1", "1/2/3", "", "/2", "3/"])
def test_parse_rational_rejects_non_ascii_digits(text):
    # int() takes the first seven: other scripts' digits, "_" and spaces
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_integer():
    assert parse_integer("7") == 7
    assert parse_integer("+7") == 7
    assert parse_integer(" -3\t") == -3
    assert parse_integer("007") == 7


@pytest.mark.parametrize("text", ["\u0663", "\uff11", "1_0", "1 0", "- 1", "+-1", "1.0",
                                  "0x10", "1/2", "", "+"])
def test_parse_integer_rejects_all_but_ascii_digits(text):
    # int() takes the first three: other scripts' digits and "_"
    with pytest.raises(ValueError, match="not an integer literal"):
        parse_integer(text)


@given(st.fractions(), st.fractions(), st.fractions())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


@given(st.integers(), st.integers(min_value=1), st.integers(min_value=1))
def test_round_trip_scaling(p, q, k):
    assert rational(p * k, q * k) == rational(p, q)


@given(st.fractions())
def test_canonical_idempotence(a):
    again = rational(a.numerator, a.denominator)
    assert again.numerator == a.numerator and again.denominator == a.denominator
