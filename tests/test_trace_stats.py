"""CDFs, percentiles and confidence intervals."""

import pytest

from repro.errors import TraceError
from repro.trace.stats import (
    cdf_at,
    confidence_interval_95,
    mean,
    percentile,
)


class TestCdfAt:
    def test_interior_value(self):
        assert cdf_at([1.0, 2.0, 3.0, 4.0], 2.0) == 50.0

    def test_below_minimum(self):
        assert cdf_at([1.0, 2.0], 0.5) == 0.0

    def test_above_maximum(self):
        assert cdf_at([1.0, 2.0], 10.0) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            cdf_at([], 1.0)


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25.0) == 2.5

    def test_extremes(self):
        samples = [3.0, 1.0, 2.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 100.0) == 3.0

    def test_single_sample(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_out_of_range_rejected(self):
        with pytest.raises(TraceError):
            percentile([1.0], 101.0)


class TestMeanAndCi:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(TraceError):
            mean([])

    def test_ci_zero_for_constant_samples(self):
        center, half = confidence_interval_95([5.0, 5.0, 5.0])
        assert center == 5.0
        assert half == 0.0

    def test_ci_single_sample(self):
        center, half = confidence_interval_95([5.0])
        assert center == 5.0
        assert half == 0.0

    def test_ci_shrinks_with_sample_size(self):
        small = confidence_interval_95([1.0, 3.0] * 5)[1]
        large = confidence_interval_95([1.0, 3.0] * 500)[1]
        assert large < small
