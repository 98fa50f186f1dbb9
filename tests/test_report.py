"""The report's JSON writer against the standard library's encoder.

Core claims:
    - on any nested payload of the report's types (dicts with str keys,
      lists, tuples, str, int, bool, None and Fraction), the writer's text
      equals `json.dumps(indent=2)` with Fraction mapped to {"num", "den"}
    - a float, a non-str key or any other object raises TypeError naming it,
      wherever it sits in the payload, also next to ints or Fractions in a list
    - a list mixing int and bool keeps its bools as true/false
    - an int past CPython's int-to-str digit limit is written digit for
      digit, alone, in a list and inside a Fraction, and the limit is left
      as it was
"""

import io
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horikawa.report import _decimal, write_json


def _num_den(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    raise TypeError(f"not a Fraction: {value!r}")


def _written(body) -> str:
    out = io.StringIO()
    write_json(body, out)
    return out.getvalue()


BIG = 2**4000

# Every code point, lone surrogates included, plus the characters JSON escapes.
_chars = st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff", "\U0001f600"]
)
_strings = st.text(_chars, max_size=8)
_ints = st.integers(-BIG, BIG) | st.integers(-300, 300)
_fractions = st.builds(Fraction, _ints, st.integers(1, 3) | st.integers(1, BIG))

_scalars = st.none() | st.booleans() | _ints | _strings | _fractions
_payloads = st.recursive(
    _scalars | st.lists(_ints | st.booleans(), max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_strings, inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=60, deadline=None)
@given(_payloads)
@example({"": [], "e": {}, "t": (), "mix": [1, True, 0, False], "s": ["\ud800", "é\n\"\\"],
          "big": [-BIG, BIG], "q": [Fraction(3), {"x": Fraction(-1, 3)}]})
def test_writer_matches_stdlib_indent_two(body):
    assert _written(body) == json.dumps(body, indent=2, default=_num_den) + "\n"


@pytest.mark.parametrize(
    "body, named",
    [
        (1.5, "1.5"),
        ({"a": [1, 2, 0.5]}, "0.5"),
        ([{"x": (1, float("nan"))}], "nan"),
        ({4: 1}, "4"),
        ({"a": {None: 1}}, "None"),
        ({"a": [1, b"x"]}, "b'x'"),
        ({"a": {1, 2}}, "{1, 2}"),
    ],
    ids=["float", "nested-float", "nan", "int-key", "none-key", "bytes", "set"],
)
def test_writer_refuses_other_types_and_writes_nothing(body, named):
    out = io.StringIO()
    with pytest.raises(TypeError, match="cannot serialize .*" + re.escape(named)):
        write_json(body, out)
    assert out.getvalue() == ""


@pytest.mark.parametrize(
    "body, named",
    [([1, 2.0], "2.0"), ([Fraction(1, 2), 3, 0.25], "0.25"), ([True, 1, 1.0], "1.0")],
    ids=["int-then-float", "float-after-fraction", "bool-int-float"],
)
def test_writer_refuses_a_float_among_ints(body, named):
    out = io.StringIO()
    with pytest.raises(TypeError, match="cannot serialize " + re.escape(named)):
        write_json(body, out)
    assert out.getvalue() == ""


@given(st.lists(st.integers(-5, 5) | st.booleans(), min_size=1, max_size=8))
@example([1, True, 0, False])
def test_bools_among_ints_stay_bools(values):
    assert _written(values) == json.dumps(values, indent=2) + "\n"


def _digits_without_limit(value):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


HUGE = 7**6000  # 5,071 digits


@settings(max_examples=30, deadline=None)
@given(st.integers(-(10**6000), 10**6000) | st.integers(-HUGE * 3, HUGE * 3) | st.sampled_from(
    [0, -1, 10**4299, 10**4300, -(10**4300), 10**5000 - 1, 10**1000 * HUGE]
))
def test_decimal_writes_every_digit(value):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert _decimal(value) == _digits_without_limit(value)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_writer_writes_ints_past_the_digit_limit():
    digits = _digits_without_limit(HUGE)
    body = {"m": -HUGE, "list": [1, HUGE], "q": Fraction(1, HUGE)}
    assert _written(body) == (
        '{\n  "m": -' + digits + ',\n  "list": [\n    1,\n    ' + digits + "\n  ],\n"
        '  "q": {\n    "num": 1,\n    "den": ' + digits + "\n  }\n}\n"
    )
