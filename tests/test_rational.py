"""The rational wire format."""

import ast
import contextlib
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import porosity_lab
from porosity_lab.rational import (
    INF,
    _fraction,
    _ratio,
    _scaled,
    format_rational,
    parse_rational,
)


@contextlib.contextmanager
def _digit_limit_lifted():
    # integers of more than 4,300 digits print and parse only with the
    # interpreter's limit lifted, as the CLI does (Python 3.11+)
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# numerators of more than 4,300 digits, whatever the denominator cancels
_huge = st.builds(
    lambda n, sign, d: F(sign * n, d),
    st.integers(10**4400, 10**4500),
    st.sampled_from((1, -1)),
    st.integers(1, 10**80),
)


@settings(max_examples=100, deadline=None, database=None)
@given(st.fractions() | _huge)
def test_wire_strings_round_trip(x):
    with _digit_limit_lifted():
        assert parse_rational(format_rational(x)) == x


# strings near the wire forms: signs, blanks, "_" separators, a digit of
# another script and a superscript digit; no ".", "e" or "E", which
# parse_rational refuses while Fraction reads them as decimals
_WIRE_ALPHABET = "0123456789" * 3 + "-+/ \t\n_\u0663\u00b2\u2003"
_near_wire = st.text(_WIRE_ALPHABET, max_size=14)
_wire_forms = st.builds(
    lambda sign, n, d: f"{sign}{n}" if d is None else f"{sign}{n}/{d}",
    st.sampled_from(("", "-", "+")),
    st.integers(0, 10**40),
    st.none() | st.integers(0, 10**40),
)
# digit runs past the interpreter's 4,300-digit limit for int(str)
_over_limit = st.builds(
    lambda sign, n, tail: f"{sign}{'7' * n}{tail}",
    st.sampled_from(("", "-")),
    st.integers(4301, 4400),
    st.sampled_from(("", "/3", "/0")),
)


def _fraction_of(text):
    # Fraction's reading of the text, or None when it refuses it
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        return None


@settings(max_examples=400, deadline=None, database=None)
@given(_near_wire | _wire_forms | _over_limit)
@example("-0")
@example("0/7")
@example("-12/18")
@example("3/0")
@example("3/00")
@example("\u0663/4")
@example("\u00b2")
@example("1_000/2")
@example(" -5/10 ")
@example("5/-10")
@example("-")
@example("/2")
@example("1" * 4301)
@example("2/" + "1" * 4301)
def test_parse_rational_reads_what_fraction_reads(text):
    # the int() fast path for the wire forms must agree with Fraction on
    # every string: the same reduced value, or both refuse it
    want = _fraction_of(text)
    if want is None:
        with pytest.raises(ValueError, match="^not an exact rational: "):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert type(got) is F
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_format_rational_values():
    assert format_rational(INF) == "inf"
    assert format_rational(F(-3, 2)) == "-3/2"
    assert format_rational(7) == "7"


def test_infinity_is_a_marker_not_a_number():
    assert repr(INF) == "inf"
    assert INF == INF and INF != F(10) ** 100 and F(0) != INF
    for compare in (lambda: INF < F(1), lambda: F(1) < INF, lambda: INF >= INF):
        with pytest.raises(TypeError):
            compare()


def test_no_floats_in_the_library():
    # the README promises no floats anywhere in the library: no float()
    # call or annotation and no float literal in any module
    found = []
    for path in sorted(Path(porosity_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno} float")
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert found == []


# ---------------------------------------------------------------------------
# the integer paths' helpers

_positive = st.fractions(min_value=0).filter(lambda x: x > 0) | st.builds(
    F, st.integers(1, 2**300), st.integers(1, 2**300)
)
# ints up to 300 bits, and ints of more than 4,300 digits
_ints = st.integers(1, 2**300) | st.integers(10**4300, 10**4400)


def _formatted(x):
    # the wire string, or the error that printing it raises
    try:
        return format_rational(x)
    except ValueError as exc:
        return repr(exc)


@settings(max_examples=200, deadline=None, database=None)
@given(st.just(0) | _ints, _ints, _positive | _ints.map(F))
def test_fraction_from_a_reduced_pair_is_fraction(n, d, other):
    # `_fraction` fills Fraction's two slots directly; on a pair reduced by
    # its gcd it must be the Fraction that Fraction(n, d) builds
    g = math.gcd(n, d)
    built, x = _fraction(n // g, d // g), F(n, d)
    assert type(built) is F
    assert built == x and x == built and hash(built) == hash(x)
    assert (built < other) is (x < other) and (other < built) is (other < x)
    assert not built < x and not x < built
    assert _formatted(built) == _formatted(x)
    with _digit_limit_lifted():
        assert format_rational(built) == format_rational(x)


@settings(max_examples=200, deadline=None, database=None)
@given(st.just(0) | _ints | _ints.map(lambda n: -n), _ints)
def test_ratio_is_the_reduced_quotient(n, d):
    x = _ratio(n, d)
    assert type(x) is F and x == F(n, d)
    assert (x.numerator, x.denominator) == (F(n, d).numerator, F(n, d).denominator)


@settings(max_examples=200, deadline=None, database=None)
@given(st.just(F(0)) | _positive, _positive)
def test_scaled_is_the_reduced_product(x, r):
    y = _scaled(x, r.numerator, r.denominator)
    assert type(y) is F and y == x * r
    assert (y.numerator, y.denominator) == ((x * r).numerator, (x * r).denominator)


@settings(max_examples=200, deadline=None, database=None)
@given(_positive)
def test_trusted_fraction_matches_fraction(x):
    built = _fraction(x.numerator, x.denominator)
    assert type(built) is F
    assert built == x and hash(built) == hash(x)
    assert (built.numerator, built.denominator) == (x.numerator, x.denominator)
    assert str(built) == str(x) and repr(built) == repr(x)


def test_fraction_keeps_its_two_slots():
    # `_fraction` sets these two slots directly; a Python whose
    # Fraction stores anything else fails here first
    assert F.__slots__ == ("_numerator", "_denominator")
