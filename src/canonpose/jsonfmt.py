"""Deterministic JSON/CSV formatting, and the one rule for reading a number.

Floats are written with 17 significant digits, enough to round-trip any
64-bit value exactly, so re-serializing loaded data reproduces the original
bytes. Dict keys keep insertion order; nothing here depends on hash order or
locale. A number read from JSON input must be a JSON number or a numpy
scalar, never a bool or a string (``json_float``, ``json_int``); its one
array form, ``json_numbers``, scans a decoded list's entry types in one pass
(the loader's joint lists and canon blocks, and ``json_array``). The config
dataclasses read their own fields through these, so the Python API and the
command line share one set of rules.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

# The one float spec: 17 significant digits. Row templates in ``dataset`` are
# built from it, so both emitters write the same text for the same value.
FLOAT_FORMAT = "%.17g"
# Types a number read from JSON may have; bool, an int subclass, is refused apart.
_NUMBERS = (int, float, np.integer, np.floating)


def format_float(value: float) -> str:
    """17-significant-digit decimal form of a float (round-trip exact)."""
    return FLOAT_FORMAT % float(value)


def json_float(value, name: str, expected: str = "a number") -> float:
    """A JSON number or numpy scalar as a float. Raises TypeError for a bool
    or any other non-number, OverflowError for an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS):
        raise TypeError(f"{name} must be {expected}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise OverflowError(f"{name} is too large for a float") from None


def json_int(value, name: str) -> int:
    """A JSON integer or numpy scalar as an int; an integral float counts.
    Raises TypeError for a bool, a non-integral float or any non-number."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_numbers(value, arr: np.ndarray) -> bool:
    """Whether every entry of ``value``, a list nested ``arr.ndim`` deep or an
    array, whose float64 form is ``arr``, is a JSON number or numpy scalar:
    ``np.asarray`` also takes a bool, a numeric string or None."""
    for _ in range(arr.ndim - 1):
        value = chain.from_iterable(value)
    kinds = set(map(type, value if arr.ndim else [value]))
    return kinds <= {int, float} or all(kind is not bool and issubclass(kind, _NUMBERS) for kind in kinds)


def json_array(value, name: str) -> np.ndarray:
    """A list of JSON numbers, nested or not, or an array, as a new float64
    array. Raises TypeError unless ``json_numbers`` holds, OverflowError for
    an int too large for a float."""
    try:
        arr = np.array(value, dtype=np.float64)
    except ValueError as exc:  # a non-numeric string, or a ragged list
        raise TypeError(f"{name} must hold numbers: {exc}") from None
    except OverflowError:
        raise OverflowError(f"{name} holds an int too large for a float") from None
    if not json_numbers(value, arr):
        raise TypeError(f"{name} holds a value that is not a JSON number: {value!r}")
    return arr


def dumps(obj) -> str:
    """Serialize nested dicts/lists/scalars with deterministic float text,
    indented by two spaces per level."""
    return _json_text(obj, "\n")


def _json_text(obj, newline: str) -> str:
    """``obj`` as JSON text; ``newline`` starts each of its lines (a line
    break plus the indent of its level)."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(key))}: {_json_text(value, inner)}" for key, value in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_json_text(item, inner) for item in obj]
        brackets = "[]"
    elif isinstance(obj, (str, bool)) or obj is None:
        return json.dumps(obj)
    elif isinstance(obj, (int, np.integer)):
        return str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        return format_float(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]
