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


def _unexponent(text: str) -> str:
    """A float's ``repr`` text, written positionally if it has an exponent."""
    return np.format_float_positional(float(text), unique=True, trim="-") if "e" in text else text


def _positional(x: float) -> str:
    """The module's rule for a Python float that is not -0.0."""
    text = _unexponent(repr(x))
    return text[:-2] if text.endswith(".0") else text


def format_float(x) -> str:
    return _positional(float(x) + 0.0)  # + 0.0 normalises -0.0


def csv_line(values) -> str:
    parts = []
    for v in values:
        parts.append(format_float(v) if isinstance(v, (int, float, np.floating, np.integer))
                     else str(v))
    return ",".join(parts)


def _row_text(row: list) -> str:
    """A row of Python floats, none -0.0, joined with each cell as :func:`_positional`
    writes it: one ``repr`` join for the whole row, the cells with an
    exponent rewritten, then the ``.0`` endings cut."""
    text = ",".join(map(repr, row))
    if "e" in text:
        text = ",".join(map(_unexponent, text.split(",")))
    text = text.replace(".0,", ",")
    return text[:-2] if text.endswith(".0") else text


def write_csv(handle, columns, rows, meta=None) -> None:
    """Write a table of numbers to the open text ``handle``, with '# key=value'
    metadata lines above the header; every cell is formatted as
    :func:`format_float` formats it, and the text is written at once."""
    table = np.asarray(rows, dtype=float)
    width = table.shape[-1] if table.size else 1
    lines = [",".join(columns)]
    lines += map(_row_text, (table + 0.0).reshape(-1, width).tolist())
    handle.write("".join(f"# {key}={meta[key]}\n" for key in meta or {})
                 + "\n".join(lines) + "\n")


def write_json(handle, payload) -> None:
    """Write ``payload`` to the open text ``handle`` as indented JSON, keys in order."""
    handle.write(json.dumps(payload, indent=2, sort_keys=False) + "\n")
