"""The indented JSON writer equals json.dumps(sort_keys=True, indent=2) byte for byte."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kws.jsontext import _INT_ROWS, _compact, indented_json

# Integers json must spell the same way on every path: negative ones and
# ones wider than 64 bits included.
INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
FLOATS = st.floats() | st.sampled_from([-0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf])
TEXT = st.text() | st.sampled_from(['"', "\\", 'say "hi"', "back\\slash", "naïve", " ", "\x00"])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
# Lists of integer lists take the compact path; the near misses must not:
# bools among integers, floats, integers beside lists, deeper nesting.
INT_ROWS = st.lists(st.lists(INTS, max_size=4), min_size=1, max_size=4)
NEAR_ROWS = st.lists(
    st.lists(INTS | st.booleans() | FLOATS, min_size=1, max_size=4)
    | INTS
    | st.lists(st.lists(INTS, max_size=2), max_size=2),
    min_size=1,
    max_size=4,
)
VALUES = st.recursive(
    SCALARS | INT_ROWS | NEAR_ROWS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
        | st.dictionaries(INTS, children, max_size=3)
    ),
    max_leaves=25,
)


def reference(value, prefix: str) -> str:
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + prefix)


@settings(max_examples=300, deadline=None)
@given(value=VALUES, indent=st.integers(0, 6))
@example(value=[[1, -2], [], [True, 3]], indent=4)
@example(value=[[1, 2], [], [-(2**70)]], indent=4)
@example(value=[[], []], indent=0)
@example(value=[[1], 2], indent=2)
@example(value=[[[1]]], indent=0)
@example(value={'k"\\é': [-0.0, 1e-7, math.nan, math.inf, -math.inf]}, indent=2)
@example(value={"a": {}, "b": [], "c": [[]]}, indent=0)
def test_writer_equals_json_dumps(value, indent):
    prefix = " " * indent
    assert indented_json(value, prefix) == reference(value, prefix)


def test_unencodable_values_fail_as_json_does():
    for value in ({1: 0, "a": 1}, [[1], object()]):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            indented_json(value)


@pytest.mark.parametrize(
    "value, compact_path",
    [
        ([[3, 1, 2], [], [-7, 2**70, 0]], True),
        ([[1, True]], False),
        ([[1.0]], False),
        ([[1], 2], False),
        ([[[1]]], False),
        ([["1"]], False),
    ],
)
def test_only_lists_of_integer_lists_take_the_compact_path(value, compact_path):
    assert bool(_INT_ROWS.fullmatch(_compact(value))) is compact_path
