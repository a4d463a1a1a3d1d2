"""Deterministic JSON writing: fixed layout, reals at 17 significant digits."""
from __future__ import annotations

import json
import math
import numbers

INDENT = 2  # spaces per nesting level; poset.poset_json_chunks writes the same layout


def format_real(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite number in output")
    return format(x, ".17g")


def _encode(obj, level: int) -> str:
    kind = type(obj)
    if kind is int:
        return str(obj)
    if kind is float:
        return format_real(obj)
    pad = " " * (INDENT * level)
    inner = " " * (INDENT * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _encode(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError("JSON keys must be strings, got %r" % (k,))
            items.append(inner + json.dumps(k) + ": " + _encode(v, level + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    # numpy scalars and other registered numbers
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return format_real(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def dumps(obj) -> str:
    return _encode(obj, 0) + "\n"
