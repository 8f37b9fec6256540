"""Exception types, and the workspace's two document formats: JSON and
CSV. Its float32 arrays are `grid`'s (`write_f32`, `read_f32`).

Every JSON file drycss writes goes through `write_json` and is read back
through `read_json`; every CSV table through `write_table` and
`read_table`. A table cell holds a float as its repr, so it reads back
bit-exactly, None as an empty cell, and anything else as its str. Both
readers take the caller's parsing as `make` and name the file in every
DataError they raise. A `make` reads each JSON leaf through the `json_`
reader of its type, which takes no bool for a number and no numeric
string, and raises TypeError or ValueError naming any other leaf.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


class DataError(Exception):
    """Malformed, inconsistent, or missing input data.

    Raised for unreadable cube/NDVI directories, shape or extent
    mismatches, out-of-bounds queries, masked-pixel access, and
    degenerate fits. CLI maps this to exit code 2.
    """


def read_json(path: str | Path, what: str, make=lambda doc: doc):
    """make(doc) of the JSON document in a file. A missing file, content
    that does not parse, or a document that make rejects with KeyError,
    TypeError or ValueError raise DataError naming the file; a DataError
    raised by make passes unchanged."""
    path = Path(path)
    if not path.is_file():  # a directory too
        raise DataError(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"corrupt {what} {path}: {e}") from None
    try:
        return make(doc)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed {what} {path}: bad or missing {e}") from None


def _typed(value, name: str, types, what: str):
    """value, if it is one of types; a bool only if bool is the type."""
    if isinstance(value, bool) is not (types is bool) or not isinstance(value, types):
        raise TypeError(f"{name}: {value!r} is not {what}")
    return value


def json_int(value, name: str) -> int:
    """A count: 64.9, 64.0, "64" and true are not, never truncated."""
    return _typed(value, name, int, "an integer")


def json_number(value, name: str) -> float:
    """A number as a float, NaN and the infinities included."""
    return float(_typed(value, name, (int, float), "a number"))


def json_finite(value, name: str) -> float:
    """A finite number as a float."""
    if not math.isfinite(number := json_number(value, name)):
        raise ValueError(f"{name}: {value!r} is not finite")
    return number


def json_str(value, name: str) -> str:
    return _typed(value, name, str, "a string")


def json_bool(value, name: str) -> bool:
    return _typed(value, name, bool, "true or false")


def json_names(value, name: str) -> tuple[str, ...]:
    """A list of strings, as a tuple."""
    return tuple(json_str(v, name) for v in _typed(value, name, list, "a list of names"))


def json_table(value, name: str, cell=json_finite) -> np.ndarray:
    """A list of equally long non-empty lists, as the 2-D array of cell(v)
    for each value v: finite numbers, or json_int's integers."""
    if not (isinstance(value, list) and value and all(isinstance(row, list) for row in value)
            and value[0] and all(len(row) == len(value[0]) for row in value)):
        raise TypeError(f"{name}: not a list of equally long non-empty lists")
    return np.array([[cell(v, name) for v in row] for row in value])


def write_json(path: str | Path, doc) -> None:
    """Write doc as indented JSON with sorted keys, as every drycss JSON
    file is written."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):  # np.float64 too; bool is not a float
        return repr(float(value))
    return "" if value is None else str(value)


def write_table(path: str | Path, header, rows) -> None:
    """Write a CSV table: the header, then one line per row of cells."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def read_table(path: str | Path, what: str, make=dict) -> list:
    """make(row) for each row of a CSV table, as a {column: text} dict.

    A missing file, a missing header, or a row that make rejects with
    KeyError, TypeError or ValueError raise DataError naming the file.
    Whether an empty table is allowed is the caller's to decide.
    """
    path = Path(path)
    if not path.is_file():  # a directory too
        raise DataError(f"{what} not found: {path}")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        try:
            if not reader.fieldnames:
                raise DataError(f"{what} has no header: {path}")
            return [make(row) for row in reader]
        except (KeyError, TypeError, ValueError, csv.Error) as e:
            raise DataError(f"malformed {what} {path}, line {reader.line_num}: "
                            f"bad or missing {e}") from None


def check_distinct(values, name: str, path: str | Path) -> None:
    """A DataError naming the file and the first of values that repeats,
    such as a table's key column."""
    seen = set()
    for value in values:
        if value in seen:
            raise DataError(f"{path} repeats {name} {value}")
        seen.add(value)


class NumericalError(Exception):
    """A numerical routine failed or diverged.

    Carries enough context to reproduce (epoch, learning rate, or the
    factorization that failed). CLI maps this to exit code 3.
    """

    def __init__(self, message: str, **context):
        self.context = dict(context)
        if context:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
            message = f"{message} ({detail})"
        super().__init__(message)
