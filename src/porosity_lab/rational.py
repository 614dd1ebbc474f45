"""Exact rational values and their wire format.

Every quantity that feeds a verdict is a fractions.Fraction.  The only other
value that circulates is INF, the marker for diverging gap ratios in
certificates: a value of its own, not a number, with no ordering, so it can
be recognised and printed but never compared against a Fraction.

Wire format: a rational serializes as the string "p/q" (or "p" when the
denominator is 1), infinity as the string "inf".  Only exact rationals are
read back: every parsed value is an input parameter, and no input may be
infinite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

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

RationalLike = Union[Fraction, _Infinity]


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
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc
