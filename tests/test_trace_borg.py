"""Synthetic Borg trace generator: calibration to the paper's marginals."""

import pytest

from repro.errors import TraceError
from repro.trace.borg import BorgTraceGenerator, synthetic_scaled_trace
from repro.trace.stats import cdf_at


class TestScaledTrace:
    def test_default_counts_match_paper(self):
        trace = synthetic_scaled_trace(seed=0)
        assert len(trace) == 663
        assert trace.overallocator_count == 44

    def test_submissions_within_hour_window(self):
        trace = synthetic_scaled_trace(seed=0)
        times = [j.submit_time for j in trace]
        assert min(times) >= 0.0
        assert max(times) < 3600.0

    def test_durations_within_cap(self):
        trace = synthetic_scaled_trace(seed=0)
        assert max(job.duration for job in trace) <= 300.0

    def test_memory_within_cap(self):
        trace = synthetic_scaled_trace(seed=0)
        memories = [job.max_memory for job in trace]
        assert max(memories) <= 0.5
        assert min(memories) > 0.0

    def test_determinism(self):
        a = synthetic_scaled_trace(seed=5)
        b = synthetic_scaled_trace(seed=5)
        assert [(j.submit_time, j.duration) for j in a] == [
            (j.submit_time, j.duration) for j in b
        ]

    def test_seeds_differ(self):
        a = synthetic_scaled_trace(seed=1)
        b = synthetic_scaled_trace(seed=2)
        assert [j.duration for j in a] != [j.duration for j in b]

    def test_custom_counts(self):
        trace = BorgTraceGenerator(seed=0).scaled_trace(
            n_jobs=100, overallocators=10
        )
        assert len(trace) == 100
        assert trace.overallocator_count == 10

    def test_zero_overallocators(self):
        trace = BorgTraceGenerator(seed=0).scaled_trace(
            n_jobs=50, overallocators=0
        )
        assert trace.overallocator_count == 0

    def test_bad_counts_rejected(self):
        generator = BorgTraceGenerator()
        with pytest.raises(TraceError):
            generator.scaled_trace(n_jobs=0)
        with pytest.raises(TraceError):
            generator.scaled_trace(n_jobs=10, overallocators=11)


class TestMarginals:
    def test_duration_cdf_shape(self):
        durations, _ = BorgTraceGenerator(seed=0).marginal_samples(20_000)
        samples = durations.tolist()
        # Smooth CDF over [0, 300]; mean ~180 s.
        assert cdf_at(samples, 300.0) == 100.0
        assert 30.0 < cdf_at(samples, 150.0) < 55.0

    def test_memory_cdf_shape(self):
        _, memory = BorgTraceGenerator(seed=0).marginal_samples(20_000)
        samples = memory.tolist()
        # Fig. 3: most jobs below 0.1 of the reference machine.
        assert cdf_at(samples, 0.1) > 55.0
        assert cdf_at(samples, 0.5) == 100.0

    def test_validation(self):
        with pytest.raises(TraceError):
            BorgTraceGenerator(max_duration=0)
        with pytest.raises(TraceError):
            BorgTraceGenerator(max_memory_fraction=2.0)


class TestConcurrencySeries:
    def test_band_is_plausible(self):
        series = BorgTraceGenerator(seed=0).concurrency_series()
        values = [v for _, v in series]
        # Fig. 5's band: roughly 125k-145k concurrent jobs.
        assert 115_000 < min(values)
        assert max(values) < 155_000

    def test_covers_24_hours(self):
        series = BorgTraceGenerator(seed=0).concurrency_series(
            hours=24.0, step_seconds=600.0
        )
        assert series[0][0] == 0.0
        assert series[-1][0] == pytest.approx(24 * 3600.0)

    def test_deterministic(self):
        a = BorgTraceGenerator(seed=3).concurrency_series(hours=2.0)
        b = BorgTraceGenerator(seed=3).concurrency_series(hours=2.0)
        assert a == b

    def test_arrival_rate_dips_in_slice(self):
        generator = BorgTraceGenerator(seed=0)
        slice_rate = generator.arrival_rate(8280.0)
        later_rate = generator.arrival_rate(50_000.0)
        assert slice_rate < later_rate
