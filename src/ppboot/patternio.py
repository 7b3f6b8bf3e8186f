"""Point pattern files: CSV point lists with a JSON window sidecar.

Both files are UTF-8, with or without a byte-order mark.  The CSV has a
header ``x`` (interval patterns) or ``x,y`` (planar patterns), one point
per row.  The sidecar declares the window::

    {"window": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0}}
    {"window": {"lo": 0.0, "hi": 1.0}}

Window bounds are finite JSON numbers.  Ingestion parses the header and
every row; :class:`PointPattern` then checks that points lie inside the
window and are pairwise distinct.  Failures carry the offending row
number.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import DataError, DuplicatePointError, OutOfWindowError
from .geometry import Interval1, PointPattern, Window2

_WINDOW2_KEYS = {"x_min", "x_max", "y_min", "y_max"}
_INTERVAL_KEYS = {"lo", "hi"}


def _number(v) -> float:
    """A finite JSON number; strings, booleans and infinities are refused."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"must be a finite number, got {v!r}")
    return float(v)


def parse_window(doc) -> Window2 | Interval1:
    """A Window2 or Interval1 from its key/value object, as in the sidecar's ``window``."""
    if not isinstance(doc, dict):
        raise DataError(f"a window must be an object, got {type(doc).__name__}")
    keys = set(doc)
    try:
        if keys == _WINDOW2_KEYS:
            return Window2(**{k: _number(v) for k, v in doc.items()})
        if keys == _INTERVAL_KEYS:
            return Interval1(lo=_number(doc["lo"]), hi=_number(doc["hi"]))
    except ValueError as exc:
        raise DataError(f"bad window values: {exc}") from exc
    raise DataError(
        f"window keys must be exactly {sorted(_WINDOW2_KEYS)} or {sorted(_INTERVAL_KEYS)}, "
        f"got {sorted(keys)}"
    )


def read_window(path: str | Path) -> Window2 | Interval1:
    """Parse a window sidecar JSON, an object whose ``window`` key holds the window."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read window file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"window file {path} must hold a JSON object, got {type(doc).__name__}")
    if "window" not in doc:
        raise DataError(f"window file {path} has no 'window' key, only {sorted(doc)}")
    try:
        return parse_window(doc["window"])
    except DataError as exc:
        raise DataError(f"window file {path}: {exc}") from exc


def write_window(window: Window2 | Interval1, path: str | Path) -> None:
    Path(path).write_text(json.dumps({"window": asdict(window)}, sort_keys=True) + "\n")


def ingest_pattern(csv_path: str | Path, window_path: str | Path | None = None) -> PointPattern:
    """Load and validate a point pattern from CSV plus its window sidecar.

    ``window_path`` defaults to the CSV path with a ``.json`` suffix.
    """
    csv_path = Path(csv_path)
    if window_path is None:
        window_path = csv_path.with_suffix(".json")
    window = read_window(window_path)

    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read pattern file {csv_path}: {exc}") from exc

    expected = ["x", "y"] if isinstance(window, Window2) else ["x"]
    if header is None or [c.strip() for c in header] != expected:
        raise DataError(
            f"pattern header must be {','.join(expected)!r} for this window, got {header!r}"
        )

    points = []
    for i, row in enumerate(rows, start=2):  # row 1 is the header
        if len(row) != len(expected):
            raise DataError(f"row {i}: expected {len(expected)} fields, got {len(row)}")
        try:
            points.append([float(v) for v in row])
        except ValueError as exc:
            raise DataError(f"row {i}: {exc}") from exc

    arr = np.asarray(points, dtype=float)
    if isinstance(window, Interval1):
        arr = arr.reshape(-1)
    try:
        return PointPattern(arr, window)
    except (DuplicatePointError, OutOfWindowError) as exc:
        raise type(exc)(f"row {exc.index + 2}: {exc}") from exc


def write_pattern(pattern: PointPattern, csv_path: str | Path,
                  window_path: str | Path | None = None) -> None:
    """Write a pattern as CSV plus window sidecar (full float precision)."""
    csv_path = Path(csv_path)
    if window_path is None:
        window_path = csv_path.with_suffix(".json")
    write_window(pattern.window, window_path)
    rows = pattern.points.reshape(pattern.n, pattern.dim)
    lines = ["x,y" if pattern.dim == 2 else "x"]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")
