"""Row-level readers behind the ``borg-csv`` adapter.

:func:`repro.trace.loader.iter_borg_csv` parses most chunks of a file
with NumPy; a chunk NumPy may not take goes through
:func:`csv_records`, one ``csv`` row at a time.  Both readers share
the rules here: blank lines and ``#`` comments are skipped anywhere,
and a single header row (a first data row whose first field is not
numeric) is skipped.

Every malformed row dies with a :class:`~repro.errors.TraceError`
carrying ``path:line`` context, so a corrupt download points at the
offending line instead of skewing an experiment silently.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple, Union

from ..errors import TraceError

PathLike = Union[str, Path]

#: Fields per row: ``job_id, submit, duration, assigned, max``.
_COLUMNS = 5


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


def is_header(row: List[str]) -> bool:
    """Whether the first data row (not blank) is a header: its first
    field is not numeric."""
    return not _is_numeric(row[0])


def csv_records(
    path: PathLike,
    lines: Iterable[str],
    first_line: int = 1,
    header: bool = True,
) -> Iterator[Tuple[int, List[str]]]:
    """``(line_number, row)`` stream of the csv *lines*, read from
    *path* from its line *first_line* on.

    Skips blank lines and ``#`` comments; while *header* says the
    header may still come, skips the first data row if its first field
    is not numeric.  A row without the five columns dies with
    ``path:line`` context.
    """
    for line_number, row in enumerate(csv.reader(lines), start=first_line):
        if is_blank_or_comment(row):
            continue
        if header:
            header = False
            if is_header(row):
                continue
        if len(row) != _COLUMNS:
            raise row_error(
                path,
                line_number,
                f"expected {_COLUMNS} columns, got {len(row)}",
            )
        yield line_number, row
