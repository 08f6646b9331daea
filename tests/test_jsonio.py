"""Deterministic JSON formatting round-trips."""
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fanokit.jsonio import INDENT, dumps, format_float, parse_extended, parse_extended_array


def test_integral_floats_keep_a_decimal_point():
    assert format_float(1.0) == "1.0"
    assert format_float(-3.0) == "-3.0"
    assert format_float(0.0) == "0.0"
    assert format_float(1e22) == "1e+22"


@pytest.mark.parametrize(
    "x",
    [1.0 / 3.0, 0.1, 2.0 ** -1074, 1.7976931348623157e308, -0.75, math.pi],
)
def test_seventeen_digits_round_trip(x):
    assert float(format_float(x)) == x


def test_infinities_become_quoted_strings():
    # quotes are part of the token so it can be spliced into raw JSON text
    assert format_float(math.inf) == '"inf"'
    assert format_float(-math.inf) == '"-inf"'
    blob = dumps({"a": math.inf, "b": -math.inf})
    assert json.loads(blob) == {"a": "inf", "b": "-inf"}


def test_nan_is_rejected():
    with pytest.raises(ValueError):
        format_float(math.nan)
    with pytest.raises(ValueError):
        dumps({"x": math.nan})


def test_keys_are_sorted_and_output_is_stable():
    obj = {"zeta": 1, "alpha": [1.5, 2], "mid": {"b": True, "a": None}}
    one = dumps(obj)
    two = dumps(obj)
    assert one == two
    assert one.index('"alpha"') < one.index('"mid"') < one.index('"zeta"')


def test_tuples_serialize_as_arrays():
    assert json.loads(dumps({"t": (1, 2.5)})) == {"t": [1, 2.5]}


def test_parse_extended_reads_the_same_dialect():
    assert parse_extended("inf", "x") == math.inf
    assert parse_extended("-inf", "x") == -math.inf
    assert parse_extended(3, "x") == 3.0
    assert parse_extended(0.25, "x") == 0.25
    with pytest.raises(ValueError, match="^x: expected a number, got 'three'$"):
        parse_extended("three", "x")
    with pytest.raises(ValueError, match="^x: expected a number, got True$"):
        parse_extended(True, "x")


def test_parse_extended_array_reads_each_number_as_parse_extended_does():
    rows = parse_extended_array([[0.25, "inf"], [3, "-inf"]], "rows")
    assert rows == [[0.25, math.inf], [3.0, -math.inf]]
    assert all(type(v) is float for row in rows for v in row)
    assert parse_extended_array([0.5, "inf", 1], "weights") == [0.5, math.inf, 1.0]
    assert parse_extended_array("inf", "t") == math.inf


@pytest.mark.parametrize("value", [
    True, [0.5, False], [[0.5, 0.5], [1, True]], [[True], 0.5], [0.5, [0.5, False]]])
def test_parse_extended_array_refuses_a_bool_at_any_depth(value):
    with pytest.raises(ValueError, match="^rows: expected a number, got (True|False)$"):
        parse_extended_array(value, "rows")


def _emit_before_the_fold(obj, out, level):
    """jsonio._emit as it was, with one branch for dicts and one for sequences."""
    pad = " " * (INDENT * (level + 1))
    close_pad = " " * (INDENT * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings, got %r" % (key,))
            out.append(pad + json.dumps(key) + ": ")
            _emit_before_the_fold(obj[key], out, level + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad)
            _emit_before_the_fold(item, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def _dumps_before_the_fold(obj):
    out = []
    _emit_before_the_fold(obj, out, 0)
    return "".join(out)


TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(TREES)
@example({"": [], "b": {}, "a": (), "\u00e9\n": [math.inf, -math.inf, -0.0, 1e22]})
def test_dumps_matches_the_two_branch_emitter(tree):
    assert dumps(tree) == _dumps_before_the_fold(tree)


@pytest.mark.parametrize("tree, error", [
    ({"a": [1, {2: "x"}]}, TypeError),        # a non-str key
    ([0.5, {"x": (math.nan,)}], ValueError),  # NaN
    ({"a": [{1, 2}]}, TypeError),             # a type JSON has no form for
])
def test_dumps_raises_as_the_two_branch_emitter(tree, error):
    with pytest.raises(error) as want:
        _dumps_before_the_fold(tree)
    with pytest.raises(error) as got:
        dumps(tree)
    assert str(got.value) == str(want.value)
