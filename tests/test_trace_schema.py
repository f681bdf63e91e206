"""Trace data model and aggregate properties."""

import pytest

from repro.errors import TraceError
from repro.trace.schema import JobRecord, Trace


def job(job_id=1, submit=0.0, duration=10.0, assigned=0.1, used=0.05):
    return JobRecord(
        job_id=job_id,
        submit_time=submit,
        duration=duration,
        assigned_memory=assigned,
        max_memory=used,
    )


class TestJobRecord:
    def test_end_time(self):
        assert job(submit=5.0, duration=10.0).end_time == 15.0

    def test_overallocates(self):
        assert job(assigned=0.1, used=0.2).overallocates
        assert not job(assigned=0.2, used=0.1).overallocates

    def test_shifted(self):
        shifted = job(submit=10.0).shifted(-4.0)
        assert shifted.submit_time == 6.0

    def test_negative_submit_rejected(self):
        with pytest.raises(TraceError):
            job(submit=-1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(TraceError):
            job(duration=0.0)

    def test_memory_fraction_bounds(self):
        with pytest.raises(TraceError):
            job(assigned=1.5)
        with pytest.raises(TraceError):
            job(used=-0.1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"submit": float("nan")},
            {"submit": float("inf")},
            {"duration": float("nan")},
            {"duration": float("inf")},
        ],
    )
    def test_non_finite_submit_or_duration_rejected(self, fields):
        with pytest.raises(TraceError, match="finite"):
            job(**fields)


class TestTrace:
    def test_sorted_by_submit_time(self):
        trace = Trace([job(1, submit=5.0), job(2, submit=1.0)])
        assert [j.job_id for j in trace] == [2, 1]

    def test_len_and_getitem(self):
        trace = Trace([job(i) for i in range(3)])
        assert len(trace) == 3
        assert trace[0].job_id == 0

    def test_span(self):
        trace = Trace([
            job(1, submit=0.0, duration=10.0),
            job(2, submit=5.0, duration=20.0),
        ])
        assert trace.span_seconds == 25.0

    def test_empty_span(self):
        assert Trace().span_seconds == 0.0

    def test_total_duration(self):
        trace = Trace([job(1, duration=10.0), job(2, duration=20.0)])
        assert trace.total_duration_seconds == 30.0

    def test_overallocator_count(self):
        trace = Trace(
            [job(1, assigned=0.1, used=0.2), job(2, assigned=0.2, used=0.1)]
        )
        assert trace.overallocator_count == 1
