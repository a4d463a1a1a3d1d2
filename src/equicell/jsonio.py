"""Deterministic JSON writing: `json.dumps` with a 2-space indent, reals in
Python's shortest round-trip form, and no NaN or infinity."""
from __future__ import annotations

import json
import math
import numbers


def format_real(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite number in output")
    return repr(x)


def _number(obj):
    # numpy scalars that are not Python ints or floats, and other registered numbers
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False, default=_number) + "\n"
