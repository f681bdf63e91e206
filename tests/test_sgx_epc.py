"""EPC page accounting: strict and over-commit regimes."""

import pytest

from repro.errors import EpcExhaustedError, SgxError
from repro.sgx.epc import EnclavePageCache
from repro.units import mib


def make_epc(**kwargs) -> EnclavePageCache:
    return EnclavePageCache(**kwargs)


class TestGeometry:
    def test_default_usable_pages_match_paper(self):
        assert make_epc().total_pages == 23_936

    def test_usable_fraction_applied(self):
        epc = make_epc(total_bytes=mib(256))
        # Same 93.5/128 usable ratio at double the PRM.
        assert epc.usable_bytes == int(mib(256) * mib(93.5) / mib(128))

    def test_zero_size_rejected(self):
        with pytest.raises(SgxError):
            make_epc(total_bytes=0)

    def test_bad_usable_fraction_rejected(self):
        with pytest.raises(SgxError):
            make_epc(usable_fraction=1.5)


class TestStrictAllocation:
    def test_allocate_reduces_free(self):
        epc = make_epc()
        epc.allocate("pod-a", 1000)
        assert epc.free_pages == epc.total_pages - 1000

    def test_allocation_is_fully_resident_in_strict_mode(self):
        epc = make_epc()
        alloc = epc.allocate("pod-a", 1000)
        assert alloc.resident_pages == 1000
        assert alloc.paged_out_pages == 0

    def test_exhaustion_raises(self):
        epc = make_epc()
        with pytest.raises(EpcExhaustedError) as excinfo:
            epc.allocate("pod-a", epc.total_pages + 1)
        assert excinfo.value.requested_pages == epc.total_pages + 1
        assert excinfo.value.free_pages == epc.total_pages

    def test_exact_fit_succeeds(self):
        epc = make_epc()
        epc.allocate("pod-a", epc.total_pages)
        assert epc.free_pages == 0

    def test_failed_allocation_changes_nothing(self):
        epc = make_epc()
        epc.allocate("pod-a", 100)
        before = epc.allocated_pages
        with pytest.raises(EpcExhaustedError):
            epc.allocate("pod-b", epc.total_pages)
        assert epc.allocated_pages == before

    def test_non_positive_allocation_rejected(self):
        epc = make_epc()
        with pytest.raises(SgxError):
            epc.allocate("pod-a", 0)

    def test_release_returns_pages(self):
        epc = make_epc()
        alloc = epc.allocate("pod-a", 500)
        epc.release(alloc)
        assert epc.free_pages == epc.total_pages

    def test_double_release_rejected(self):
        epc = make_epc()
        alloc = epc.allocate("pod-a", 500)
        epc.release(alloc)
        with pytest.raises(SgxError):
            epc.release(alloc)

    def test_release_owner_releases_all(self):
        epc = make_epc()
        epc.allocate("pod-a", 100)
        epc.allocate("pod-a", 200)
        epc.allocate("pod-b", 300)
        freed = epc.release_owner("pod-a")
        assert freed == 300
        assert epc.allocated_pages == 300

    def test_usage_by_owner(self):
        epc = make_epc()
        epc.allocate("pod-a", 100)
        epc.allocate("pod-b", 200)
        epc.allocate("pod-a", 50)
        assert epc.usage_by_owner() == {"pod-a": 150, "pod-b": 200}

class TestOvercommit:
    def test_overcommit_allowed_when_enabled(self):
        epc = make_epc(allow_overcommit=True)
        epc.allocate("pod-a", epc.total_pages)
        alloc = epc.allocate("pod-b", 1000)
        assert alloc.resident_pages == 0
        assert alloc.paged_out_pages == 1000

    def test_overcommit_ratio(self):
        epc = make_epc(allow_overcommit=True)
        epc.allocate("pod-a", epc.total_pages)
        epc.allocate("pod-b", epc.total_pages)
        assert epc.overcommit_ratio() == pytest.approx(2.0)

    def test_not_overcommitted_below_capacity(self):
        epc = make_epc(allow_overcommit=True)
        epc.allocate("pod-a", 10)
        assert not epc.overcommitted
        assert epc.overcommit_ratio() < 1.0

    def test_free_pages_never_negative(self):
        epc = make_epc(allow_overcommit=True)
        epc.allocate("pod-a", epc.total_pages + 5000)
        assert epc.free_pages == 0

    def test_rebalance_residency_proportional(self):
        epc = make_epc(allow_overcommit=True)
        a = epc.allocate("pod-a", epc.total_pages)
        b = epc.allocate("pod-b", epc.total_pages)
        epc.rebalance_residency()
        allocations = {x.owner: x for x in epc.allocations()}
        assert allocations["pod-a"].resident_pages == pytest.approx(
            epc.total_pages // 2, abs=1
        )
        assert allocations["pod-b"].resident_pages == pytest.approx(
            epc.total_pages // 2, abs=1
        )
        assert a.pages == b.pages  # original records untouched in size

    def test_rebalance_restores_full_residency_after_release(self):
        epc = make_epc(allow_overcommit=True)
        first = epc.allocate("pod-a", epc.total_pages)
        epc.allocate("pod-b", 100)
        epc.release(first)
        epc.rebalance_residency()
        (remaining,) = list(epc.allocations())
        assert remaining.resident_pages == 100


class TestSnapshotMisc:
    def test_len_counts_allocations(self):
        epc = make_epc()
        epc.allocate("a", 1)
        epc.allocate("b", 1)
        assert len(epc) == 2

    def test_repr_mentions_totals(self):
        text = repr(make_epc())
        assert "23936" in text
