"""Exact rational values and their wire format.

Every quantity that feeds a verdict is a fractions.Fraction.  The only other
value that circulates is INF, the marker for diverging gap ratios in
certificates: a value of its own, not a number, with no ordering, so it can
be recognised and printed but never compared against a Fraction.

Wire format: a rational serializes as the string "p/q" (or "p" when the
denominator is 1), infinity as the string "inf".  Only exact rationals are
read back: every parsed value is an input parameter, and no input may be
infinite.

The blow-up kernel works on numerator/denominator ints and uses two helpers
from here: `_fraction` wraps a pair that is already in lowest terms, and
`_gt` compares two positive ratios, from bit lengths where they settle it.
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


def _gt(an: int, ad: int, bn: int, bd: int) -> bool:
    """an/ad > bn/bd, for positive ints.

    The cross products an*bd and bn*ad are below 2**s and at least
    2**(s-2), where s sums the bit lengths of their factors; when the two
    sums differ by 2 or more (the products by more than 4x), the sums
    decide, and only closer pairs are multiplied out.
    """
    left = an.bit_length() + bd.bit_length()
    right = bn.bit_length() + ad.bit_length()
    if left - right >= 2:
        return True
    if right - left >= 2:
        return False
    return an * bd > bn * ad


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
