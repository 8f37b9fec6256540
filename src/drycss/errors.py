"""Exception types, and the two on-disk document formats of a workspace.

Every JSON file drycss writes goes through `write_json` and is read back
through `read_json`; every CSV table through `write_table` and
`read_table`. A table cell holds a float as its repr, so it reads back
bit-exactly, None as an empty cell, and anything else as its str. Both
readers take the caller's parsing as `make` and name the file in every
DataError they raise.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


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


def json_int(value, name: str) -> int:
    """A count read from JSON. Anything but a JSON integer (64.9, 64.0,
    "64", true) is a ValueError naming it, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name}: {value!r} is not an integer")
    return value


def json_finite(value, name: str) -> float:
    """A finite number read from JSON. NaN and the infinities, which
    json reads from NaN and Infinity, are a ValueError naming it, as is
    anything float rejects."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name}: {value!r} is not finite")
    return number


def json_names(value, name: str) -> tuple[str, ...]:
    """A list of strings read from JSON, as a tuple; anything else is a
    TypeError naming it."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"{name}: {value!r} is not a list of names")
    return tuple(value)


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
