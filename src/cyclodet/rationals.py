"""Exact rational scalars.

Integers are plain Python ``int`` (arbitrary precision); rationals are
``fractions.Fraction``, which already keeps the canonical reduced form with a
positive denominator.  This module pins down the constructors and the
"p/q" text format the rest of the package relies on.
"""

from fractions import Fraction


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


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (decimal digits, optional sign) into a Fraction."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        if slash:
            return rational(int(num), int(den))
        return Fraction(int(num))
    except ValueError:
        raise ValueError(f"not a rational literal: {text!r}") from None


def format_rational(q) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    q = exact(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
