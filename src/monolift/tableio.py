"""Deterministic CSV / JSON writers.

Floats are rendered with the shortest round-trip decimal form so that a
rerun with identical inputs produces byte-identical files.  The digits are
Python's ``repr`` of the float, the same shortest unique digits as
``np.format_float_positional(x, unique=True, trim="-")``, written in
positional form: no exponent, no trailing ``.0``, and -0.0 as 0.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["format_float", "csv_line", "write_csv", "write_json"]


def format_float(x) -> str:
    text = repr(float(x) + 0.0)  # + 0.0 normalises -0.0
    if "e" not in text:
        return text[:-2] if text.endswith(".0") else text
    mantissa, exponent = text.split("e")
    sign = "-" if mantissa[0] == "-" else ""
    digits = mantissa.lstrip("-").replace(".", "")
    point = int(exponent) + 1  # digits before the decimal point
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    return sign + digits + "0" * (point - len(digits))


def csv_line(values) -> str:
    parts = []
    for v in values:
        parts.append(format_float(v) if isinstance(v, (int, float, np.floating, np.integer))
                     else str(v))
    return ",".join(parts)


def _emit(handle, columns, rows, meta):
    for key in meta or {}:
        handle.write(f"# {key}={meta[key]}\n")
    handle.write(",".join(columns) + "\n")
    for row in rows:
        handle.write(csv_line(row.tolist() if isinstance(row, np.ndarray) else row) + "\n")


def write_csv(path_or_buf, columns, rows, meta=None) -> None:
    """Write a table with '# key=value' metadata lines above the header."""
    if hasattr(path_or_buf, "write"):
        _emit(path_or_buf, columns, rows, meta)
    else:
        with open(path_or_buf, "w", encoding="utf-8") as handle:
            _emit(handle, columns, rows, meta)


def write_json(path_or_buf, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        with open(path_or_buf, "w", encoding="utf-8") as handle:
            handle.write(text)
