"""Deterministic CSV / JSON writers.

Floats are rendered with the shortest round-trip decimal form so that a
rerun with identical inputs produces byte-identical files, in positional
form: no exponent, no trailing ``.0``, and -0.0 as 0.  The digits are
Python's ``repr`` of the float; where ``repr`` would write an exponent,
``np.format_float_positional(x, unique=True, trim="-")`` writes the same
shortest unique digits positionally.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["format_float", "csv_line", "write_csv", "write_json"]


def format_float(x) -> str:
    text = repr(float(x) + 0.0)  # + 0.0 normalises -0.0
    if "e" in text:
        return np.format_float_positional(float(x), unique=True, trim="-")
    return text[:-2] if text.endswith(".0") else text


def csv_line(values) -> str:
    parts = []
    for v in values:
        parts.append(format_float(v) if isinstance(v, (int, float, np.floating, np.integer))
                     else str(v))
    return ",".join(parts)


def write_csv(handle, columns, rows, meta=None) -> None:
    """Write a table to the open text ``handle``, with '# key=value'
    metadata lines above the header."""
    for key in meta or {}:
        handle.write(f"# {key}={meta[key]}\n")
    handle.write(",".join(columns) + "\n")
    for row in rows:
        handle.write(csv_line(row.tolist() if isinstance(row, np.ndarray) else row) + "\n")


def write_json(handle, payload) -> None:
    """Write ``payload`` to the open text ``handle`` as indented JSON, keys in order."""
    handle.write(json.dumps(payload, indent=2, sort_keys=False) + "\n")
