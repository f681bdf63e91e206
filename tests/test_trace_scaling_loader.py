"""Trace scaling through ``borg-csv``, and the Borg CSV round trip.

``borg-csv`` windows, strides and renumbers its columns as the file
streams.  Each scaling case here resolves a spec over a file written
with :func:`dump_borg_csv` and checks its records against
``borg_csv_reference.py``'s row pipeline (``test_trace_columnar.py``
does the same over generated files).
"""

import pytest

from borg_csv_reference import build_borg_csv as reference_borg_csv
from repro.errors import TraceError
from repro.trace import resolve_trace
from repro.trace.loader import dump_borg_csv
from repro.trace.scaling import renumber_from_zero
from repro.trace.schema import JobRecord, Trace


def job(job_id, submit, duration=10.0):
    return JobRecord(
        job_id=job_id,
        submit_time=submit,
        duration=duration,
        assigned_memory=0.1,
        max_memory=0.05,
    )


@pytest.fixture
def long_trace() -> Trace:
    return Trace([job(i, float(i * 10)) for i in range(2000)])


@pytest.fixture
def long_csv(tmp_path, long_trace):
    path = tmp_path / "trace.csv"
    dump_borg_csv(long_trace, path)
    return path


def scaled(path, options):
    """``borg-csv`` over *path* with *options*, as the reference reads it."""
    spec = f"borg-csv:path={path},{options}"
    trace = resolve_trace(spec)
    assert list(trace) == list(reference_borg_csv(spec))
    return trace


class TestSliceWindow:
    def test_keeps_only_window_submissions(self, long_csv):
        window = scaled(long_csv, "start=100,window=100,renumber=false")
        times = [j.submit_time for j in window]
        assert min(times) >= 100.0
        assert max(times) < 200.0

    def test_empty_window_rejected(self, long_csv):
        with pytest.raises(TraceError, match="window"):
            resolve_trace(f"borg-csv:path={long_csv},window=0")


class TestSampleStride:
    def test_every_nth_job(self, long_csv):
        sampled = scaled(long_csv, "stride=100")
        assert len(sampled) == 20
        assert [j.job_id for j in sampled][:3] == [0, 100, 200]

    def test_bad_stride_rejected(self, long_csv):
        with pytest.raises(TraceError, match="'stride' must be >= 1"):
            resolve_trace(f"borg-csv:path={long_csv},stride=0")


class TestRenumber:
    def test_first_submission_at_zero(self, long_trace):
        window = Trace(long_trace.jobs[10:50])
        renumbered = renumber_from_zero(window)
        assert renumbered[0].submit_time == 0.0

    def test_relative_spacing_preserved(self, long_trace):
        window = Trace(long_trace.jobs[10:50])
        renumbered = renumber_from_zero(window)
        original_gaps = [
            b.submit_time - a.submit_time
            for a, b in zip(window.jobs, window.jobs[1:], strict=False)
        ]
        new_gaps = [
            b.submit_time - a.submit_time
            for a, b in zip(renumbered.jobs, renumbered.jobs[1:], strict=False)
        ]
        assert new_gaps == original_gaps

    def test_empty_trace_ok(self):
        assert len(renumber_from_zero(Trace())) == 0


class TestPipeline:
    def test_full_pipeline(self, long_csv):
        scaled_trace = scaled(long_csv, "start=0,window=20000,stride=10")
        assert len(scaled_trace) == 200
        assert scaled_trace[0].submit_time == 0.0


class TestLoader:
    def test_round_trip(self, tmp_path, long_trace):
        path = tmp_path / "trace.csv"
        small = Trace(long_trace.jobs[:10])
        dump_borg_csv(small, path)
        loaded = resolve_trace(f"borg-csv:path={path}")
        assert len(loaded) == 10
        assert loaded[0].submit_time == small[0].submit_time

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            resolve_trace(f"borg-csv:path={tmp_path / 'ghost.csv'}")

    def test_comments_and_header_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "job_id,submit,duration,assigned,max\n"
            "# a comment\n"
            "1,0.0,10.0,0.1,0.05\n"
        )
        loaded = resolve_trace(f"borg-csv:path={path}")
        assert len(loaded) == 1

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1,0.0,10.0\n")
        with pytest.raises(TraceError, match="columns"):
            resolve_trace(f"borg-csv:path={path}")

    def test_bad_values_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1,0.0,-5.0,0.1,0.05\n")
        with pytest.raises(TraceError, match="bad job record"):
            resolve_trace(f"borg-csv:path={path}")
