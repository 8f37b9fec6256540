"""Exception types shared across the package."""

from __future__ import annotations

import json
from pathlib import Path


class DataError(Exception):
    """Malformed, inconsistent, or missing input data.

    Raised for unreadable cube/NDVI directories, shape or extent
    mismatches, out-of-bounds queries, masked-pixel access, and
    degenerate fits. CLI maps this to exit code 2.
    """


def read_json(path: str | Path, what: str):
    """Parse a JSON file; unreadable content raises DataError naming `what`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"corrupt {what} {path}: {e}") from None


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
