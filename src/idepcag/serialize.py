"""Deterministic JSON emission: fixed float format, stable key order.

Identical inputs must produce byte-identical reports, so floats are always
rendered as %.12e and dictionaries keep their insertion order.  Non-finite
floats (possible in diagnostic bounds) are emitted as strings.
"""

from __future__ import annotations

import json
import math

__all__ = ["canonical_json"]


def _render(value, level):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return '"nan"'
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        if value == 0.0:
            value = 0.0  # normalize -0.0
        return f"{value:.12e}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_render(v, level + 1) for v in value]
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {_render(v, level + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(value) -> str:
    """Serialize plain data deterministically, indented by two spaces per
    level; returns text ending in \\n."""
    return _render(value, 0) + "\n"
