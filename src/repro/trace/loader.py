"""Reader for a prepared Borg trace CSV: the ``borg-csv`` adapter.

The 2011 trace ships as CSV tables (Reiss et al., "Google cluster-usage
traces: format + schema").  The paper joins the *job events* and *task
usage* tables to extract four per-job metrics.  A user with the public
trace, or any other, converts it to a CSV of that shape and replays it
via ``Scenario(trace="borg-csv:path=…,window=…,stride=…")``, which
clips, samples and renumbers it as it streams.

Expected columns (header optional, comma-separated)::

    job_id, submit_time_seconds, duration_seconds,
    assigned_memory_fraction, max_memory_fraction

:func:`iter_borg_csv` is the streaming core.  It reads the file in
chunks of at most 64 KiB cut at line ends and parses each with NumPy's
C reader into columns; :class:`~repro.trace.schema.JobRecord`'s checks
and the window → stride → limit scaling run as array operations, and
only the kept rows become records.  A paper-style load (one hour of a
day, every 10th job) thus touches each row as a few bytes of an array,
never as a Python object, and holds one chunk at a time.

A chunk NumPy may not take goes to the row reader (``csv`` rows,
``int``/``float``, :class:`JobRecord`), which produces every error with
``path:line``: a byte outside :data:`_ALLOWED`, a parse NumPy rejects,
or a row :class:`JobRecord` would reject.  Once a ``"`` appears the
row reader takes the rest of the file, since a quoted field may span
lines.  :func:`dump_borg_csv` writes a :class:`Trace` in the same shape.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import fields
from pathlib import Path
from typing import (
    Generator,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from ..errors import TraceError
from .schema import JobRecord, Trace
from .stream import (
    PathLike,
    csv_records,
    is_blank_or_comment,
    is_header,
    row_error,
)

#: Characters read per chunk (bytes, for a Borg CSV's ASCII); bounds the
#: reader's memory, which is why it is no option.
_CHUNK_CHARS = 64 * 1024
#: The bytes on which NumPy's parse agrees with ``csv``, ``int`` and
#: ``float``: digits, signs, the decimal point, exponents, the letters of
#: ``nan``/``inf``/``infinity``, and field and line separators.  No ``#``
#: (comments) and no ``"`` (quoting).
_ALLOWED = b"0123456789+-.eEnNaAiIfFtTyY, \t\r\n"
_LF, _CR = ord("\n"), ord("\r")
#: One parsed row, in :class:`JobRecord`'s field order; the row reader
#: keeps job ids as Python ints, which may exceed int64.
_FIELDS = tuple(field.name for field in fields(JobRecord))
_DTYPE = np.dtype(
    {"names": _FIELDS, "formats": ("i8", "f8", "f8", "f8", "f8")}
)
_ROW_DTYPE = np.dtype(
    {"names": _FIELDS, "formats": ("O", "f8", "f8", "f8", "f8")}
)


class _Block(NamedTuple):
    """Consecutive valid rows in file order and, when the row right
    after them is bad, its error: the last block of the file."""

    rows: np.ndarray
    error: Optional[Exception] = None


def iter_borg_csv(
    path: PathLike,
    window: Optional[Tuple[float, float]] = None,
    stride: int = 1,
    limit: Optional[int] = None,
) -> Iterator[JobRecord]:
    """Stream a prepared Borg-trace CSV as :class:`JobRecord` values.

    Lines starting with ``#``, blank lines and a header row (detected
    by a non-numeric first field) are skipped.  *window* ``(start,
    end)`` keeps the records submitted in ``[start, end)`` seconds
    after the first record's; *stride* then keeps every *stride*-th of
    those and *limit* the first *limit* kept.  Raises
    :class:`~repro.errors.TraceError` with ``path:line`` context at
    the first malformed row, unless *limit* records were kept before
    it: rows after the last one kept are never checked.
    """
    if stride <= 0:
        raise TraceError(f"stride must be positive, got {stride}")
    origin = None
    windowed = kept = 0
    for rows, error in _blocks(path):
        if window is not None and len(rows):
            if origin is None:
                origin = rows["submit_time"][0]
            offset = rows["submit_time"] - origin
            rows = rows[(window[0] <= offset) & (offset < window[1])]
        first = -windowed % stride
        windowed += len(rows)
        rows = rows[first::stride]
        if limit is not None:
            rows = rows[: limit - kept]
        kept += len(rows)
        # .tolist() gives Python ints and floats, never NumPy scalars.
        yield from itertools.starmap(JobRecord, rows.tolist())
        if kept == limit:
            return
        if error is not None:
            raise error


def _blocks(path: PathLike) -> Iterator[_Block]:
    """The file's valid rows, chunk by chunk; a bad row ends them."""
    file = Path(path)
    if not file.exists():
        raise TraceError(f"trace file not found: {file}")
    with file.open(newline="") as handle:
        line = 1  # csv record number of the next chunk's first line
        header = True  # the header, if any, is still to come
        tail, eof = "", False
        while not eof:
            chunk = tail + handle.read(_CHUNK_CHARS)
            eof = len(chunk) == len(tail)
            if eof:
                cut = len(chunk)
            else:  # cut at the last line end; the rest waits
                cut = chunk.rfind("\n") + 1 or chunk.rfind("\r", 0, -1) + 1
            text, tail = chunk[:cut], chunk[cut:]
            del chunk  # one copy of the chunk at a time
            if '"' in text:
                rest = itertools.chain(
                    io.StringIO(text + tail + handle.readline(), newline=""),
                    handle,
                )
                yield from _row_blocks(
                    path, csv_records(file, rest, line, header)
                )
                return
            if header and text:
                skipped, records, header = _skip_header(text)
                text, line = text[skipped:], line + records
            if text:
                line += yield from _chunk_blocks(path, text, line)


def _chunk_blocks(
    path: PathLike, text: str, line: int
) -> Generator[_Block, None, int]:
    """The rows of one chunk starting at csv record *line*, parsed by
    NumPy or else by the row reader; returns its csv record count."""
    if not text.endswith("\n"):
        text += "\n"  # the file's last line: csv counts it the same
    counts = _line_counts(text)
    if counts is not None:
        rows = _parse_rows(text, counts[1])
        if rows is not None:
            yield _Block(rows)
            return counts[0]
    lines = io.StringIO(text, newline="")
    yield from _row_blocks(
        path, csv_records(Path(path), lines, line, False)
    )
    return sum(1 for _ in io.StringIO(text, newline=""))


def _skip_header(text: str) -> Tuple[int, int, bool]:
    """Characters and csv records before the first data row of *text*:
    blank lines, comments and the header (``csv_records``' rule); and
    whether the header may still come."""
    buffer = io.StringIO(text, newline="")
    skipped = records = 0
    for row in csv.reader(buffer):
        if not is_blank_or_comment(row):
            if is_header(row):
                return buffer.tell(), records + 1, False
            return skipped, records, False
        skipped, records = buffer.tell(), records + 1
    return skipped, records, True


def _line_counts(text: str) -> Optional[Tuple[int, int]]:
    """A chunk's csv records and rows, or ``None`` if NumPy may not
    parse it: a byte outside :data:`_ALLOWED`, a lone ``\\r`` (a csv
    line end NumPy rejects) or a line ``csv`` would refuse as too long.
    """
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if data.translate(None, _ALLOWED) or len(data) > csv.field_size_limit():
        return None
    codes = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(codes == _LF)
    crlf = codes[ends - 1] == _CR  # never wraps: the text ends in "\n"
    if np.count_nonzero(crlf) != np.count_nonzero(codes == _CR):
        return None
    # csv skips empty lines and so does NumPy; each other line is a row.
    return len(ends), np.count_nonzero(np.diff(ends, prepend=-1) > 1 + crlf)


def _parse_rows(text: str, expected: int) -> Optional[np.ndarray]:
    """The *expected* rows of a chunk by NumPy's C reader, or ``None``
    if it rejects a parse or :class:`JobRecord` would reject a row."""
    if not expected:
        return np.empty(0, _DTYPE)
    try:
        rows = np.loadtxt(
            io.StringIO(text),
            dtype=_DTYPE,
            delimiter=",",
            comments=None,
            ndmin=1,
        )
    except ValueError:
        return None
    return rows if len(rows) == expected and _valid(rows) else None


def _valid(rows: np.ndarray) -> bool:
    """:class:`JobRecord`'s checks as array comparisons (NaN fails all)."""
    submit, duration = rows["submit_time"], rows["duration"]
    ok = (0.0 <= submit) & (submit < math.inf)
    ok &= (0.0 < duration) & (duration < math.inf)
    for name in ("assigned_memory", "max_memory"):
        ok &= (0.0 <= rows[name]) & (rows[name] <= 1.0)
    return bool(ok.all())


def _row_blocks(
    path: PathLike, rows: Iterable[Tuple[int, List[str]]]
) -> Iterator[_Block]:
    """The row reader: ``int``/``float`` and :class:`JobRecord` per row,
    in blocks of about a chunk's characters."""
    values: List[tuple] = []
    size = 0
    try:
        for line_number, row in rows:
            try:
                parsed = (
                    int(row[0]),
                    float(row[1]),
                    float(row[2]),
                    float(row[3]),
                    float(row[4]),
                )
                JobRecord(*parsed)
            except (ValueError, TraceError) as exc:
                raise row_error(
                    path, line_number, f"bad job record: {exc}"
                ) from exc
            values.append(parsed)
            size += sum(map(len, row))
            if size >= _CHUNK_CHARS:
                yield _Block(np.array(values, _ROW_DTYPE))
                values, size = [], 0
    except (TraceError, csv.Error) as exc:
        yield _Block(np.array(values, _ROW_DTYPE), exc)
    else:
        yield _Block(np.array(values, _ROW_DTYPE))


def dump_borg_csv(trace: Trace, path: PathLike) -> None:
    """Write a :class:`Trace` in the loadable CSV shape (round-trips)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "job_id",
                "submit_time_seconds",
                "duration_seconds",
                "assigned_memory_fraction",
                "max_memory_fraction",
            ]
        )
        for job in trace:
            writer.writerow(
                [
                    job.job_id,
                    f"{job.submit_time:.6f}",
                    f"{job.duration:.6f}",
                    f"{job.assigned_memory:.8f}",
                    f"{job.max_memory:.8f}",
                ]
            )
