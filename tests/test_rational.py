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
from porosity_lab.rational import INF, format_rational, is_finite, parse_rational


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
