"""Exact rational values and their wire format.

Every quantity that feeds a verdict is a fractions.Fraction.  The only other
value that circulates is INF, the marker for diverging gap ratios in
certificates: a value of its own, not a number, with no ordering, so it can
be recognised and printed but never compared against a Fraction.

Wire format: a rational serializes as the string "p/q" (or "p" when the
denominator is 1), infinity as the string "inf".  Only exact rationals are
read back: every parsed value is an input parameter, and no input may be
infinite.

The integer paths (chain views, the blow-up kernel) build Fractions with
three helpers: `_fraction` wraps a pair already in lowest terms, `_ratio`
reduces a quotient of ints by one gcd, and `_scaled` multiplies by a ratio
with gcds against the ratio's small terms only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "INF",
    "RationalLike",
    "format_rational",
    "is_finite",
    "parse_rational",
]


class _Infinity:
    def __repr__(self):
        return "inf"


INF = _Infinity()

RationalLike = (Fraction, _Infinity)


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d, for n and d > 0 already in lowest terms.

    It skips Fraction's conversions, sign handling and gcd by setting the
    two slots directly (the same two on Python 3.6 through 3.13).  Only
    code whose n and d are coprime by construction calls it; every value
    from outside goes through Fraction itself.
    """
    x = object.__new__(Fraction)
    x._numerator = n
    x._denominator = d
    return x


def _ratio(n: int, d: int) -> Fraction:
    """The Fraction n/d, for ints n and d > 0."""
    g = gcd(n, d)
    return _fraction(n // g, d // g)


def _scaled(x: Fraction, a: int, b: int) -> Fraction:
    """x * a/b, for a and b > 0 coprime: x = n/d in lowest terms can share
    a factor only between n and b and between d and a."""
    n, d = x.numerator, x.denominator
    g, h = gcd(n, b), gcd(d, a)
    return _fraction((n // g) * (a // h), (d // h) * (b // g))


def is_finite(x: RationalLike) -> bool:
    """True for Fraction values, False for the infinity marker."""
    return x is not INF


def format_rational(x: RationalLike) -> str:
    """Serialize a rational (or the infinity marker) to its wire string.

    >>> format_rational(Fraction(3, 2))
    '3/2'
    >>> format_rational(Fraction(7))
    '7'
    >>> format_rational(INF)
    'inf'
    """
    if x is INF:
        return "inf"
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the wire string of an exact rational back to a Fraction.

    Accepts "p" and "p/q".  Raises ValueError on anything else, including
    floats in decimal notation, "inf", and values that are not strings at
    all (a JSON number): exactness is the point.

    The wire's own forms, "p", "-p", "p/q" and "-p/q" in ASCII digits, are
    read with int() and one gcd; every other string (a "+" sign, blanks
    around "/", "_" separators, other scripts' digits) is Fraction's to
    accept or refuse.
    """
    if not isinstance(text, str):
        raise ValueError(
            f"not an exact rational: {text!r} "
            '(give rationals as quoted strings, such as "1/2")'
        )
    text = text.strip()
    if "." in text or "e" in text or "E" in text:
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit():
            if not slash:
                return _fraction(int(num), 1)
            if den.isascii() and den.isdigit() and den.strip("0"):
                return _ratio(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc
