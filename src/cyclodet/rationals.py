"""Exact rational scalars.

Integers are plain Python ``int`` (arbitrary precision); rationals are
``fractions.Fraction``, which already keeps the canonical reduced form with a
positive denominator.  This module pins down the constructors and the
"p/q" text format the rest of the package relies on.
"""

import re
from fractions import Fraction

_INTEGER = r"[+-]?[0-9]+"
_INTEGER_LITERAL = re.compile(_INTEGER)
_RATIONAL_LITERAL = re.compile(f"({_INTEGER})(?:/({_INTEGER}))?")


def exact(value) -> Fraction:
    """An int or Fraction as a Fraction; any other type (a float too) raises TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, not {type(value).__name__}")
    return Fraction(value)


def rational(numer, denom=1) -> Fraction:
    """Canonical rational numer/denom; a zero denominator is rejected."""
    numer, denom = exact(numer), exact(denom)
    if denom == 0:
        raise ZeroDivisionError("rational with zero denominator")
    return numer / denom


def parse_integer(text: str) -> int:
    """Parse ASCII decimal digits with an optional sign, outer whitespace
    ignored, into an int.  ``int`` alone would also take other scripts'
    digits and underscores."""
    text = text.strip()
    if _INTEGER_LITERAL.fullmatch(text) is None:
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (ASCII decimal digits, each with an optional sign,
    outer whitespace ignored) into a Fraction.  ``int`` alone would also take
    other scripts' digits, underscores and spaces around the slash."""
    text = text.strip()
    match = _RATIONAL_LITERAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    return rational(int(num), int(den or 1))


def format_rational(q) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    if not isinstance(q, Fraction):
        q = exact(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
