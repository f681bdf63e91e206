"""Streaming readers: bounded memory, header/comment handling, errors."""

import tracemalloc

import pytest

from repro.errors import TraceError
from repro.trace import Trace, resolve_trace
from repro.trace.loader import iter_borg_csv
from repro.trace.schema import JobRecord


def _write_big_borg_csv(path, rows):
    with path.open("w") as handle:
        handle.write(
            "job_id,submit_time_seconds,duration_seconds,"
            "assigned_memory_fraction,max_memory_fraction\n"
        )
        for i in range(rows):
            handle.write(f"{i},{i}.0,60.0,0.01,0.02\n")


class TestBoundedMemory:
    def test_windowed_load_uses_far_less_than_full_load(self, tmp_path):
        """A narrow window over a 100k-row file must not buffer the file.

        The window keeps 500 of 100_000 rows; if the reader
        materialised every row before filtering, the two peaks would
        be comparable.
        """
        path = tmp_path / "big.csv"
        _write_big_borg_csv(path, 100_000)

        tracemalloc.start()
        full = Trace(iter_borg_csv(path))
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(full) == 100_000
        del full

        tracemalloc.start()
        windowed = resolve_trace(f"borg-csv:path={path},window=500")
        _, windowed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(windowed) == 500
        assert windowed_peak < full_peak / 10

    def test_limit_short_circuits(self, tmp_path):
        path = tmp_path / "big.csv"
        _write_big_borg_csv(path, 100_000)
        tracemalloc.start()
        limited = resolve_trace(f"borg-csv:path={path},limit=100")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(limited) == 100
        assert peak < 2_000_000  # a 100k-record list is far larger


    def test_windowed_load_peaks_under_a_mib(self, tmp_path):
        """The columnar reader holds one 64 KiB chunk at a time."""
        path = tmp_path / "big.csv"
        _write_big_borg_csv(path, 100_000)
        tracemalloc.start()
        windowed = resolve_trace(f"borg-csv:path={path},window=500")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(windowed) == 500
        assert peak <= 2**20


class TestLimitAndChunks:
    HEADER = (
        "job_id,submit_time_seconds,duration_seconds,"
        "assigned_memory_fraction,max_memory_fraction\n"
    )

    def test_malformed_row_after_limit_is_never_checked(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            self.HEADER
            + "0,0.0,60.0,0.01,0.02\n"
            + "1,1.0,60.0,0.01,0.02\n"
            + "2,zap,60.0,0.01,0.02\n"
        )
        limited = resolve_trace(f"borg-csv:path={path},limit=2")
        assert [job.job_id for job in limited] == [0, 1]
        with pytest.raises(TraceError, match=r"t\.csv:4: bad job record"):
            resolve_trace(f"borg-csv:path={path},limit=3")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_malformed_row_in_a_later_chunk_names_its_line(
        self, tmp_path, newline
    ):
        path = tmp_path / "big.csv"
        rows = [f"{i},{i}.0,60.0,0.01,0.02" for i in range(20_000)]
        rows[15_000] = "15000,15000.0,-60.0,0.01,0.02"
        path.write_bytes(
            (self.HEADER + newline.join(rows) + newline).encode()
        )
        assert path.stat().st_size > 5 * 64 * 1024
        with pytest.raises(
            TraceError,
            match=r"big\.csv:15002: bad job record: job 15000: "
            "non-positive",
        ):
            resolve_trace(f"borg-csv:path={path}")


class TestCsvRows:
    """``borg-csv``'s csv rules: blanks and comments anywhere, one
    header, five columns."""

    def test_header_comments_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "# a comment\n"
            "\n"
            "id,submit,duration,assigned,max\n"
            "1,0.0,60,0.1,0.2\n"
            "# mid-file comment\n"
            "\n"
            "2,5.0,30,0.1,0.2\n"
            "3,zap,30,0.1,0.2\n"
        )
        # The bad row's line number counts the skipped lines.
        with pytest.raises(TraceError, match=r"t\.csv:8: bad job record"):
            resolve_trace(f"borg-csv:path={path}")
        kept = resolve_trace(f"borg-csv:path={path},limit=2")
        assert [(job.job_id, job.submit_time) for job in kept] == [
            (1, 0.0),
            (2, 5.0),
        ]

    def test_headerless_file_keeps_first_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,0.0,60,0.1,0.2\n2,5.0,30,0.1,0.2\n")
        trace = resolve_trace(f"borg-csv:path={path}")
        assert [job.job_id for job in trace] == [1, 2]

    def test_arity_mismatch_carries_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,0.0,60,0.1,0.2\n2,5.0,30\n")
        with pytest.raises(
            TraceError, match=r"t\.csv:2: expected 5 columns, got 3"
        ):
            resolve_trace(f"borg-csv:path={path}")

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            resolve_trace(f"borg-csv:path={tmp_path / 'absent.csv'}")


class TestLoaderErrors:
    def test_malformed_numeric_carries_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "job_id,submit_time_seconds,duration_seconds,"
            "assigned_memory_fraction,max_memory_fraction\n"
            "0,0.0,60.0,0.01,0.02\n"
            "1,zap,60.0,0.01,0.02\n"
        )
        with pytest.raises(TraceError, match=r"t\.csv:3"):
            resolve_trace(f"borg-csv:path={path}")

    def test_nan_rejected_by_trace_validation(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "job_id,submit_time_seconds,duration_seconds,"
            "assigned_memory_fraction,max_memory_fraction\n"
            "0,nan,60.0,0.01,0.02\n"
        )
        with pytest.raises(TraceError, match="finite"):
            resolve_trace(f"borg-csv:path={path}")

    NON_FINITE = (
        "job_id,submit_time_seconds,duration_seconds,"
        "assigned_memory_fraction,max_memory_fraction\n"
        "0,0.0,60.0,0.1,0.1\n"
        "1,5000.0,60.0,0.1,0.1\n"
        "2,nan,60.0,0.1,0.1\n"
    )

    @pytest.mark.parametrize("options", ["", ",window=1h", ",window=2h"])
    @pytest.mark.parametrize("tail", ["", "3,10.0,inf,0.1,0.1\n"])
    def test_nan_submit_time_names_its_line(self, tmp_path, options, tail):
        path = tmp_path / "t.csv"
        path.write_text(self.NON_FINITE + tail)
        with pytest.raises(
            TraceError, match=r"t\.csv:4: bad job record: job 2: .*finite"
        ):
            resolve_trace(f"borg-csv:path={path}{options}")

    def test_infinite_duration_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            self.NON_FINITE.replace("2,nan", "2,10.0")
            + "3,10.0,inf,0.1,0.1\n"
        )
        with pytest.raises(
            TraceError, match=r"t\.csv:5: bad job record: job 3: .*finite"
        ):
            resolve_trace(f"borg-csv:path={path}")

    def test_trace_rejects_nan_duration(self):
        record = JobRecord(
            job_id=0,
            submit_time=0.0,
            duration=60.0,
            assigned_memory=0.1,
            max_memory=0.1,
        )
        bad = object.__new__(JobRecord)
        object.__setattr__(bad, "job_id", 1)
        object.__setattr__(bad, "submit_time", 0.0)
        object.__setattr__(bad, "duration", float("nan"))
        object.__setattr__(bad, "assigned_memory", 0.1)
        object.__setattr__(bad, "max_memory", 0.1)
        with pytest.raises(TraceError, match="finite"):
            Trace([record, bad])
