"""Deterministic JSON writing: `json.dumps` with a 2-space indent, reals in
Python's shortest round-trip form, and no NaN or infinity."""
from __future__ import annotations

import json


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
