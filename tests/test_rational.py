"""The rational wire format."""

import ast
import contextlib
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import porosity_lab
from porosity_lab.rational import INF, _fraction, _gt, format_rational, is_finite, parse_rational


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


def test_format_rational_values():
    assert format_rational(INF) == "inf"
    assert format_rational(F(-3, 2)) == "-3/2"
    assert format_rational(7) == "7"


def test_infinity_is_a_marker_not_a_number():
    assert repr(INF) == "inf"
    assert not is_finite(INF) and is_finite(F(10) ** 100)
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
# the blow-up kernel's helpers

_positive = st.fractions(min_value=0).filter(lambda x: x > 0) | st.builds(
    F, st.integers(1, 2**300), st.integers(1, 2**300)
)


@settings(max_examples=300, deadline=None, database=None)
@given(_positive, _positive)
def test_gt_is_fraction_gt(x, y):
    assert _gt(x.numerator, x.denominator, y.numerator, y.denominator) is (x > y)


@pytest.mark.parametrize("gap", [0, 1, 2, 3])
@pytest.mark.parametrize("bits", [1, 2, 7, 64])
def test_gt_at_each_bit_length_gap(gap, bits):
    # an/ad against bn/bd where the bit lengths of the cross products an*bd
    # and bn*ad sum to s + gap and s; each side takes its smallest and its
    # largest value for those bit lengths, so the products come as close as
    # the bit lengths allow
    def ends(n):
        return (2 ** (n - 1), 2**n - 1)

    s = 2 * bits
    for an in ends(bits + gap):
        for bd in ends(bits):
            for bn in ends(bits):
                for ad in ends(bits):
                    assert an.bit_length() + bd.bit_length() == s + gap
                    assert bn.bit_length() + ad.bit_length() == s
                    for left, right in (((an, ad), (bn, bd)), ((bn, bd), (an, ad))):
                        expect = F(*left) > F(*right)
                        assert _gt(*left, *right) is expect, (left, right)


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
