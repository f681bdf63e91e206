"""Unit conversions: bytes, pages, durations."""

import pytest

from repro.units import (
    EPC_PAGE_BYTES,
    bytes_to_mib,
    fmt_bytes,
    fmt_duration,
    gib,
    hours,
    kib,
    mib,
    minutes,
    pages,
    pages_to_bytes,
    pages_to_mib,
)


class TestSizes:
    def test_kib(self):
        assert kib(1) == 1024

    def test_mib(self):
        assert mib(1) == 1024 * 1024

    def test_gib(self):
        assert gib(1) == 1024**3

    def test_fractional_mib(self):
        assert mib(93.5) == int(93.5 * 1024 * 1024)

    def test_bytes_to_mib_roundtrip(self):
        assert bytes_to_mib(mib(12)) == pytest.approx(12.0)

class TestPages:
    def test_page_size_is_4kib(self):
        assert EPC_PAGE_BYTES == 4096

    def test_exact_page_count(self):
        assert pages(8192) == 2

    def test_partial_page_rounds_up(self):
        assert pages(8193) == 3

    def test_one_byte_needs_one_page(self):
        assert pages(1) == 1

    def test_zero_bytes_zero_pages(self):
        assert pages(0) == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            pages(-1)

    def test_usable_epc_matches_paper(self):
        # 93.5 MiB == 23 936 pages, as stated in Section II.
        assert pages(mib(93.5)) == 23_936

    def test_pages_to_bytes(self):
        assert pages_to_bytes(2) == 8192

    def test_pages_to_bytes_negative_rejected(self):
        with pytest.raises(ValueError):
            pages_to_bytes(-1)

    def test_pages_to_mib(self):
        assert pages_to_mib(256) == pytest.approx(1.0)


class TestDurations:
    def test_minutes(self):
        assert minutes(2) == 120.0

    def test_hours(self):
        assert hours(1.5) == 5400.0


class TestFormatting:
    def test_fmt_bytes_gib(self):
        assert fmt_bytes(gib(2)) == "2.0 GiB"

    def test_fmt_bytes_mib(self):
        assert fmt_bytes(mib(93)) == "93.0 MiB"

    def test_fmt_bytes_small(self):
        assert fmt_bytes(100) == "100 B"

    def test_fmt_duration_seconds(self):
        assert fmt_duration(12.3) == "12.3s"

    def test_fmt_duration_minutes(self):
        assert fmt_duration(125) == "2min 5s"

    def test_fmt_duration_hours(self):
        assert fmt_duration(3600 + 22 * 60) == "1h 22min"

    def test_fmt_duration_negative(self):
        assert fmt_duration(-30) == "-30.0s"
