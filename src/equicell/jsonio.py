"""Deterministic JSON writing: `json.dumps` with a 2-space indent, reals in
Python's shortest round-trip form, and no NaN or infinity."""
from __future__ import annotations

import json
import math


def format_real(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite number in output")
    return repr(x)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
