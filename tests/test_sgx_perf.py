"""SGX latency model versus the constants measured in Fig. 6."""

import pytest

from repro.errors import SgxError
from repro.sgx.perf import SgxPerfModel
from repro.units import mib


@pytest.fixture
def model() -> SgxPerfModel:
    return SgxPerfModel()


class TestStartupCurve:
    def test_psw_startup_is_about_100ms(self, model):
        assert model.startup(0).psw_seconds == pytest.approx(0.100)

    def test_zero_allocation_costs_nothing(self, model):
        assert model.startup(0).allocation_seconds == 0.0

    def test_slope_below_knee(self, model):
        # 1.6 ms/MiB below the usable EPC.
        latency = model.allocation_seconds(mib(50))
        assert latency == pytest.approx(50 * 0.0016, rel=1e-6)

    def test_knee_at_usable_epc(self, model):
        at_knee = model.allocation_seconds(mib(93.5))
        just_past = model.allocation_seconds(mib(94.5))
        # The fixed 200 ms penalty appears immediately past the knee.
        assert just_past - at_knee > 0.200

    def test_slope_above_knee(self, model):
        low = model.allocation_seconds(mib(100))
        high = model.allocation_seconds(mib(120))
        slope = (high - low) / 20.0
        assert slope == pytest.approx(0.0045, rel=1e-6)

    def test_monotonically_increasing(self, model):
        sizes = [mib(s) for s in (0, 10, 50, 93, 94, 110, 128)]
        latencies = [model.allocation_seconds(s) for s in sizes]
        assert latencies == sorted(latencies)

    def test_negative_size_rejected(self, model):
        with pytest.raises(SgxError):
            model.allocation_seconds(-1)

    def test_full_epc_startup_matches_paper_magnitude(self, model):
        # Fig. 6: a 128 MiB request takes roughly 600 ms end to end.
        total = model.startup(mib(128)).total_seconds
        assert 0.45 < total < 0.75

    def test_standard_startup_below_1ms(self, model):
        assert model.standard_startup().total_seconds <= 0.001


class TestPagingSlowdown:
    def test_no_slowdown_at_or_below_capacity(self, model):
        assert model.paging_slowdown(0.5) == 1.0
        assert model.paging_slowdown(1.0) == 1.0

    def test_max_slowdown_at_saturation(self, model):
        assert model.paging_slowdown(2.0) == pytest.approx(1000.0)

    def test_clamped_beyond_saturation(self, model):
        assert model.paging_slowdown(10.0) == pytest.approx(1000.0)

    def test_monotone_in_ratio(self, model):
        ratios = [1.0, 1.1, 1.3, 1.5, 1.9, 2.0]
        slowdowns = [model.paging_slowdown(r) for r in ratios]
        assert slowdowns == sorted(slowdowns)

    def test_geometric_midpoint(self, model):
        # Halfway to saturation in ratio gives sqrt(1000) in slowdown.
        assert model.paging_slowdown(1.5) == pytest.approx(1000.0**0.5)

class TestValidation:
    def test_bad_slowdown_rejected(self):
        with pytest.raises(SgxError):
            SgxPerfModel(paging_max_slowdown=0.5)

    def test_bad_saturation_rejected(self):
        with pytest.raises(SgxError):
            SgxPerfModel(paging_saturation_ratio=1.0)

    def test_bad_epc_rejected(self):
        with pytest.raises(SgxError):
            SgxPerfModel(usable_epc_bytes=0)

    def test_custom_knee_moves_with_usable_epc(self):
        model = SgxPerfModel(usable_epc_bytes=mib(32))
        below = model.allocation_seconds(mib(30))
        assert below == pytest.approx(30 * 0.0016, rel=1e-6)
        above = model.allocation_seconds(mib(40))
        assert above > 0.200
