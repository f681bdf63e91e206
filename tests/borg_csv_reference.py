"""The literal row-by-row ``borg-csv`` pipeline: the reference the
columnar reader matches.

Every row goes through ``csv.reader``, ``int``/``float`` and a
:class:`JobRecord`; the window, the stride and the limit then run on
the record stream, and the kept records are sorted (and renumbered)
into a :class:`Trace`.  ``borg-csv`` and
:func:`repro.trace.loader.iter_borg_csv` must reproduce its records
(values, types and order) and its errors (message and ``path:line``)
exactly.
"""

import csv
import itertools
from pathlib import Path

from repro.errors import TraceError
from repro.trace.adapters.borg import materialise, read_scaling
from repro.trace.schema import JobRecord
from repro.trace.spec import parse_trace_spec
from repro.trace.stream import row_error

COLUMNS = 5


def _is_numeric(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def csv_rows(path, columns=None, numeric_probe=0):
    """``(line_number, row)``: blanks, comments and one header skipped."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    first_data_row = True
    with path.open(newline="") as handle:
        for line_number, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if first_data_row:
                first_data_row = False
                probe_ok = numeric_probe < len(row)
                if not probe_ok or not _is_numeric(row[numeric_probe]):
                    continue  # header
            if columns is not None and len(row) != columns:
                raise row_error(
                    path,
                    line_number,
                    f"expected {columns} columns, got {len(row)}",
                )
            yield line_number, row


def iter_borg_csv(path):
    """One validated :class:`JobRecord` per data row."""
    for line_number, row in csv_rows(path, columns=COLUMNS):
        try:
            yield JobRecord(
                job_id=int(row[0]),
                submit_time=float(row[1]),
                duration=float(row[2]),
                assigned_memory=float(row[3]),
                max_memory=float(row[4]),
            )
        except (ValueError, TraceError) as exc:
            raise row_error(
                path, line_number, f"bad job record: {exc}"
            ) from exc


def iter_relative_window(records, start, end):
    """Records submitted in ``[start, end)`` of the first record's time."""
    origin = None
    for job in records:
        if origin is None:
            origin = job.submit_time
        offset = job.submit_time - origin
        if start <= offset < end:
            yield job


def iter_stride(records, stride):
    """Every *stride*-th record, starting at the first."""
    for index, job in enumerate(records):
        if index % stride == 0:
            yield job


def apply_scaling(records, scaling):
    """Window, then stride, then limit, one record at a time."""
    if scaling.start is not None or scaling.window is not None:
        start = scaling.start or 0.0
        end = (
            start + scaling.window
            if scaling.window is not None
            else float("inf")
        )
        records = iter_relative_window(records, start, end)
    if scaling.stride != 1:
        records = iter_stride(records, scaling.stride)
    if scaling.limit is not None:
        records = itertools.islice(records, scaling.limit)
    return iter(records)


def build_borg_csv(spec):
    """The ``borg-csv`` adapter over the row pipeline."""
    options = parse_trace_spec(spec).reader("seed")
    path = options.path()
    scaling = read_scaling(options)
    renumber = options.flag("renumber", scaling.active)
    options.finish()
    return materialise(
        apply_scaling(iter_borg_csv(path), scaling), renumber
    )
