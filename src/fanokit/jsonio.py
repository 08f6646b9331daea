"""Input numbers, and deterministic output: JSON, and table and CSV cells.

The stock json module prints floats via repr, which is fine for round-trips
but does not guarantee a fixed significant-digit count, and it emits Infinity
(invalid JSON). This emitter renders every float with 17 significant digits,
sorts object keys, and maps +/-inf to the strings "inf"/"-inf". NaN is a bug
by contract and raises.

Output is a pure function of the value tree, which is what makes byte-identical
CLI output across runs and thread settings cheap to guarantee. Table and CSV
cells print floats with the same 17 significant digits, bare (inf, 1).

Every input number, in a JSON field or a flag, is read by one rule:
parse_extended (parse_extended_array in lists; _check_whole for counts).
"""
from __future__ import annotations

import json
import math
from typing import Any

from .errors import FanoError

INDENT = 2
# what json.dumps returns for a str, without its per-call dispatch
_quote = json.encoder.encode_basestring_ascii


def format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not representable in toolkit output")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    text = "%.17g" % x
    # keep float-ness through a JSON round trip
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def format_cell(value: Any) -> str:
    """Table or CSV cell: floats as %.17g (inf, -inf, no forced ".0")."""
    return "%.17g" % value if isinstance(value, float) else str(value)


def format_csv(rows) -> str:
    """Comma-separated lines, one per row, with None as an empty cell."""
    return "".join(",".join("" if v is None else format_cell(v) for v in row) + "\n"
                   for row in rows)


def parse_extended(value: Any, name: str) -> float:
    """The value of the JSON field or flag name as a float: a number (not a
    bool) or a string that float reads, format_float's "inf" and "-inf"
    included. ValueError, naming the field, otherwise."""
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        if s in ("-inf", "-infinity"):
            return -math.inf
        try:
            return float(value)
        except ValueError:
            pass
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError("%s: expected a number, got %r" % (name, value))


def parse_extended_array(value: Any, name: str):
    """The JSON field name's number, list or list of lists of numbers, read
    by parse_extended as floats in the same shape, a row per comprehension."""
    if not isinstance(value, list):
        return parse_extended(value, name)
    return [row if type(row) is float
            else [v if type(v) is float else parse_extended(v, name) for v in row]
            if isinstance(row, list) else parse_extended(row, name) for row in value]


def _check_whole(value, name: str) -> int:
    """A whole number given as an int or an integral float."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise FanoError(f"{name}: must be a whole number, got {value!r}")


def _emit(obj: Any, out: list, level: int) -> None:
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
        out.append(_quote(obj))
    elif isinstance(obj, (dict, list, tuple)):
        # one layout: a dict item is its value behind a "key": prefix, a list's has none
        if isinstance(obj, dict):
            brackets, items = "{}", []
            for key in sorted(obj):
                if not isinstance(key, str):
                    raise TypeError("JSON object keys must be strings, got %r" % (key,))
                items.append((pad + _quote(key) + ": ", obj[key]))
        else:
            brackets, items = "[]", [(pad, item) for item in obj]
        if not items:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        for i, (prefix, item) in enumerate(items):
            out.append(prefix)
            _emit(item, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(close_pad + brackets[1])
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps(obj: Any) -> str:
    out: list = []
    _emit(obj, out, 0)
    return "".join(out)
