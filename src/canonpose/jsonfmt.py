"""Deterministic JSON/CSV formatting, and the one rule for reading a number.

Floats are written with 17 significant digits, enough to round-trip any
64-bit value exactly, so re-serializing loaded data reproduces the original
bytes. Dict keys keep insertion order; nothing here depends on hash order or
locale. A number read from JSON input must be a JSON number (``json_float``,
``json_int``, ``json_floats``).
"""

from __future__ import annotations

import json

import numpy as np

# The one float spec: 17 significant digits. Row templates in ``dataset`` are
# built from it, so both emitters write the same text for the same value.
FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    """17-significant-digit decimal form of a float (round-trip exact)."""
    return FLOAT_FORMAT % float(value)


def json_float(value, name: str, expected: str = "a number") -> float:
    """A decoded JSON number as a float. Raises TypeError for a bool or any
    other non-number, OverflowError for an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be {expected}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise OverflowError(f"{name} is too large for a float") from None


def json_int(value, name: str) -> int:
    """A decoded JSON integer as an int; an integral float counts. Raises
    TypeError for a bool, a non-integral float or any other non-number."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def json_floats(value, name: str) -> list[float]:
    """Every entry of a JSON list, nested or not, through ``json_float``."""
    return [json_float(entry, f"{name} entry") for entry in np.asarray(value, dtype=object).ravel()]


def dumps(obj, indent: int | None = None) -> str:
    """Serialize nested dicts/lists/scalars with deterministic float text."""
    return "".join(_emit(obj, indent, 0))


def _emit(obj, indent, depth):
    if isinstance(obj, dict):
        yield from _emit_container(
            obj.items(), indent, depth, "{}", lambda item, d: _emit_pair(item, indent, d)
        )
    elif isinstance(obj, (list, tuple)):
        yield from _emit_container(obj, indent, depth, "[]", lambda item, d: _emit(item, indent, d))
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, bool) or obj is None:
        yield json.dumps(obj)
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield format_float(obj)
    elif isinstance(obj, np.ndarray):
        yield from _emit(obj.tolist(), indent, depth)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_pair(item, indent, depth):
    key, value = item
    yield json.dumps(str(key))
    yield ": "
    yield from _emit(value, indent, depth)


def _emit_container(items, indent, depth, brackets, emit_item):
    items = list(items)
    if not items:
        yield brackets
        return
    open_b, close_b = brackets
    if indent is None:
        yield open_b
        for i, item in enumerate(items):
            if i:
                yield ", "
            yield from emit_item(item, depth)
        yield close_b
    else:
        pad = " " * (indent * (depth + 1))
        yield open_b + "\n"
        for i, item in enumerate(items):
            if i:
                yield ",\n"
            yield pad
            yield from emit_item(item, depth + 1)
        yield "\n" + " " * (indent * depth) + close_b
