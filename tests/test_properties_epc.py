"""Property-based tests: EPC accounting invariants."""

from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import EpcExhaustedError
from repro.sgx.epc import EnclavePageCache

page_counts = st.integers(min_value=1, max_value=30_000)


class TestAllocationProperties:
    @given(requests=st.lists(page_counts, max_size=30))
    def test_strict_mode_never_overcommits(self, requests):
        epc = EnclavePageCache()
        for index, pages in enumerate(requests):
            try:
                epc.allocate(f"pod-{index}", pages)
            except EpcExhaustedError:
                pass
        assert epc.allocated_pages <= epc.total_pages
        assert epc.free_pages == epc.total_pages - epc.allocated_pages

    @given(requests=st.lists(page_counts, max_size=30))
    def test_overcommit_mode_accepts_everything(self, requests):
        epc = EnclavePageCache(allow_overcommit=True)
        for index, pages in enumerate(requests):
            epc.allocate(f"pod-{index}", pages)
        assert epc.allocated_pages == sum(requests)

    @given(requests=st.lists(page_counts, min_size=1, max_size=20))
    def test_allocate_release_is_identity(self, requests):
        epc = EnclavePageCache(allow_overcommit=True)
        allocations = [
            epc.allocate(f"pod-{i}", pages)
            for i, pages in enumerate(requests)
        ]
        for allocation in allocations:
            epc.release(allocation)
        assert epc.allocated_pages == 0
        assert epc.free_pages == epc.total_pages

    @given(
        requests=st.lists(page_counts, min_size=1, max_size=20),
        data=st.data(),
    )
    def test_usage_by_owner_sums_to_allocated(self, requests, data):
        epc = EnclavePageCache(allow_overcommit=True)
        owners = data.draw(
            st.lists(
                st.sampled_from(["a", "b", "c"]),
                min_size=len(requests),
                max_size=len(requests),
            )
        )
        for owner, pages in zip(owners, requests, strict=True):
            epc.allocate(owner, pages)
        usage = {}
        for allocation in epc.allocations():
            usage[allocation.owner] = (
                usage.get(allocation.owner, 0) + allocation.pages
            )
        assert sum(usage.values()) == epc.allocated_pages


class EpcMachine(RuleBasedStateMachine):
    """Stateful check: interleaved allocate/release keep books balanced."""

    def __init__(self):
        super().__init__()
        self.epc = EnclavePageCache(allow_overcommit=True)
        self.live = []
        self.expected_total = 0

    @rule(pages=page_counts, owner=st.sampled_from(["a", "b", "c"]))
    def allocate(self, pages, owner):
        allocation = self.epc.allocate(owner, pages)
        self.live.append(allocation)
        self.expected_total += pages

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(self.live) - 1)
        )
        allocation = self.live.pop(index)
        self.epc.release(allocation)
        self.expected_total -= allocation.pages

    @precondition(lambda self: self.live)
    @rule(owner=st.sampled_from(["a", "b", "c"]))
    def release_owner(self, owner):
        freed = self.epc.release_owner(owner)
        self.live = [a for a in self.live if a.owner != owner]
        self.expected_total -= freed

    @invariant()
    def books_balance(self):
        assert self.epc.allocated_pages == self.expected_total
        assert self.epc.free_pages == max(
            0, self.epc.total_pages - self.expected_total
        )


TestEpcStateMachine = EpcMachine.TestCase
