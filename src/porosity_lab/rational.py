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
three helpers: `_fraction` wraps a pair in lowest terms, `_ratio` reduces a
quotient of ints by one gcd, and `_scaled` multiplies by a ratio, or divides
by a reduced Fraction as a component ratio of two block ends does, with
gcds against its terms only.  Both skip a division by a gcd of 1.
`_replayed_text` takes `_scaled`'s steps in decimal, for wire text that
prints in linear time.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import gcd

__all__ = [
    "INF",
    "RationalLike",
    "format_rational",
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
    if g == 1:
        return _fraction(n, d)
    return _fraction(n // g, d // g)


def _scaled(x: Fraction, a: int, b: int) -> Fraction:
    """x * a/b, for a and b > 0 coprime: x = n/d in lowest terms can share
    a factor only between n and b and between d and a."""
    n, d = x.numerator, x.denominator
    g, h = gcd(n, b), gcd(d, a)
    if g != 1:
        n, b = n // g, b // g
    if h != 1:
        d, a = d // h, a // h
    return _fraction(n * a, d * b)


# Exact integer arithmetic on Decimals: at this precision and exponent range
# no product or quotient of ints rounds, and an Inexact would raise.  Every
# operation names this context, so no result depends on the caller's
# decimal context and none of its flags is set.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
)


def _replayed_text(x: Fraction, steps) -> list:
    """The wire text of x and of x times each prefix product of `steps`,
    pairs (a, b) of coprime ints > 0: the values `_scaled` gives step by
    step, with the same gcds against each step's terms.  The numerator and
    denominator are Decimals, which print in time linear in their digits,
    where str(int) takes quadratic time before Python 3.12.  Only x and the
    steps are ints: a scanned chain replays from its top end, q*x0 for a
    blown point family, and for the part `cc1_components` keeps of one, the
    first end at most 1, whose bits are bounded by the components above 1."""
    c = _EXACT
    remainder, divide_int, multiply, text = c.remainder, c.divide_int, c.multiply, c.to_sci_string
    n, d = c.create_decimal(x.numerator), c.create_decimal(x.denominator)
    out = []
    for a, b in ((1, 1), *steps):  # the first step gives x itself
        g = gcd(int(remainder(n, b)), b) if b != 1 else 1
        h = gcd(int(remainder(d, a)), a) if a != 1 else 1
        if g != 1:
            n, b = divide_int(n, g), b // g
        if h != 1:
            d, a = divide_int(d, h), a // h
        n, d = multiply(n, a), multiply(d, b)
        num, den = text(n), text(d)
        out.append(num if den == "1" else f"{num}/{den}")
    return out


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
