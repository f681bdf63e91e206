"""Streaming file readers for the trace adapters.

Public cluster traces are multi-gigabyte files; the adapters must
replay them in bounded memory.  Everything here is a generator: rows
come off the file one at a time, flow through the windowing/sampling
combinators of :mod:`repro.trace.scaling`, and only the records the
replay keeps are ever materialised — peak memory is O(kept window),
not O(file).

Every malformed row dies with a :class:`~repro.errors.TraceError`
carrying ``path:line`` context, so a corrupt download points at the
offending line instead of skewing an experiment silently.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import TraceError

PathLike = Union[str, Path]


def row_error(
    path: PathLike, line_number: int, detail: object
) -> TraceError:
    """A malformed-row error with ``file:line`` context."""
    return TraceError(f"{path}:{line_number}: {detail}")


def _is_numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def is_blank_or_comment(row: List[str]) -> bool:
    """Whether a csv row is a blank line or a ``#`` comment."""
    return not row or row[0].lstrip().startswith("#")


def is_header(row: List[str], numeric_probe: int = 0) -> bool:
    """Whether the first data row is a header: no numeric probe field."""
    return numeric_probe >= len(row) or not _is_numeric(row[numeric_probe])


def csv_rows(
    path: PathLike,
    columns: Optional[int] = None,
    numeric_probe: int = 0,
) -> Iterator[Tuple[int, List[str]]]:
    """``(line_number, row)`` stream of a trace CSV.

    Skips blank lines and ``#`` comments anywhere; skips a single
    header row, detected as the first data row whose *numeric_probe*-th
    field is not numeric (public formats put strings in some columns,
    so the probe column is the adapter's submit-time field).  When
    *columns* is given, rows with a different arity die with
    ``path:line`` context.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    with path.open(newline="") as handle:
        yield from csv_records(path, handle, columns, numeric_probe)


def csv_records(
    path: PathLike,
    lines: Iterable[str],
    columns: Optional[int] = None,
    numeric_probe: int = 0,
    first_line: int = 1,
    header: bool = True,
) -> Iterator[Tuple[int, List[str]]]:
    """:func:`csv_rows` over *lines*, read from *path* from its line
    *first_line* on; *header* says whether the header may still come."""
    for line_number, row in enumerate(csv.reader(lines), start=first_line):
        if is_blank_or_comment(row):
            continue
        if header:
            header = False
            if is_header(row, numeric_probe):
                continue
        if columns is not None and len(row) != columns:
            raise row_error(
                path,
                line_number,
                f"expected {columns} columns, got {len(row)}",
            )
        yield line_number, row


def jsonl_rows(path: PathLike) -> Iterator[Tuple[int, Dict]]:
    """``(line_number, object)`` stream of a JSON-lines trace file."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                record = json.loads(text)
            except ValueError as exc:
                raise row_error(
                    path, line_number, f"bad JSON: {exc}"
                ) from None
            if not isinstance(record, dict):
                raise row_error(
                    path,
                    line_number,
                    f"expected a JSON object, got {type(record).__name__}",
                )
            yield line_number, record
