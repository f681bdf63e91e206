"""Enclave Page Cache (EPC) accounting.

The EPC is the scarce resource the whole paper revolves around: a subset
of Processor Reserved Memory, split into 4 KiB pages, shared by every
enclave on the machine.  Current hardware reserves 128 MiB of which only
93.5 MiB (23 936 pages) are usable by applications; the rest holds SGX
metadata (Section II of the paper).

Two allocation regimes exist:

* **strict** — the paper's system *deliberately prevents over-commitment*
  (Section V-A) so that performance stays predictable; allocations beyond
  the free page count raise :class:`~repro.errors.EpcExhaustedError`.
* **paging** — stock SGX allows over-commitment by paging EPC pages out to
  encrypted system memory, at a cost of up to 1000x.  We model it so the
  no-enforcement experiments (Fig. 11) and the ablation benches can
  quantify what strictness buys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ..constants import EPC_TOTAL_BYTES, EPC_USABLE_BYTES
from ..errors import EpcExhaustedError, SgxError
from ..units import pages as bytes_to_pages


@dataclass(frozen=True, slots=True)
class EpcAllocation:
    """A live reservation of EPC pages owned by a single enclave."""

    allocation_id: int
    owner: str
    pages: int


class EnclavePageCache:
    """Page-granular model of one machine's EPC.

    Parameters
    ----------
    total_bytes:
        Size of the Processor Reserved Memory.  Defaults to the 128 MiB of
        current hardware; Fig. 7 sweeps this up to 256 MiB.
    usable_fraction:
        Share of the PRM usable by applications.  Defaults to the
        93.5/128 ratio of SGX 1 hardware.
    allow_overcommit:
        When ``False`` (the paper's choice), allocations that do not fit
        raise :class:`EpcExhaustedError`.  When ``True``, every
        allocation succeeds, and :meth:`overcommit_ratio` feeds the
        paging slowdown model.
    """

    def __init__(
        self,
        total_bytes: int = EPC_TOTAL_BYTES,
        usable_fraction: Optional[float] = None,
        allow_overcommit: bool = False,
    ):
        if total_bytes <= 0:
            raise SgxError(f"EPC size must be positive, got {total_bytes}")
        if usable_fraction is None:
            usable_fraction = EPC_USABLE_BYTES / EPC_TOTAL_BYTES
        if not 0.0 < usable_fraction <= 1.0:
            raise SgxError(
                f"usable fraction must be in (0, 1], got {usable_fraction}"
            )
        self.total_bytes = total_bytes
        self.usable_bytes = int(total_bytes * usable_fraction)
        self.total_pages = bytes_to_pages(self.usable_bytes)
        self.allow_overcommit = allow_overcommit
        self._allocations: Dict[int, EpcAllocation] = {}
        self._ids = itertools.count(1)
        # Running page total, adjusted at every allocation mutation:
        # the paging-slowdown model queries allocated_pages per running
        # job per occupancy change, far too often to re-sum.
        self._allocated_pages = 0

    # -- capacity queries ---------------------------------------------------

    @property
    def allocated_pages(self) -> int:
        """Total pages owned by live allocations (resident or paged out)."""
        return self._allocated_pages

    @property
    def free_pages(self) -> int:
        """Pages not owned by any allocation (never negative)."""
        return max(0, self.total_pages - self.allocated_pages)

    @property
    def overcommitted(self) -> bool:
        """Whether live allocations exceed the usable EPC."""
        return self.allocated_pages > self.total_pages

    def overcommit_ratio(self) -> float:
        """Ratio of allocated to usable pages (1.0 means exactly full)."""
        if self.total_pages == 0:
            return float("inf") if self.allocated_pages else 1.0
        return self.allocated_pages / self.total_pages

    # -- allocation lifecycle -----------------------------------------------

    def allocate(self, owner: str, n_pages: int) -> EpcAllocation:
        """Reserve *n_pages* for *owner*.

        In strict mode the whole request must fit in free pages.  In
        overcommit mode the request always succeeds.
        """
        if n_pages <= 0:
            raise SgxError(f"allocation must be positive, got {n_pages}")
        free = self.total_pages - self.allocated_pages
        if n_pages > free and not self.allow_overcommit:
            raise EpcExhaustedError(n_pages, max(0, free))
        alloc = EpcAllocation(
            allocation_id=next(self._ids), owner=owner, pages=n_pages
        )
        self._allocations[alloc.allocation_id] = alloc
        self._allocated_pages += n_pages
        return alloc

    def grow_allocation(
        self, allocation: EpcAllocation, extra_pages: int
    ) -> EpcAllocation:
        """Extend a live allocation by *extra_pages* (SGX 2 EAUG path).

        Strict mode requires the extra pages to be free; overcommit mode
        always grows.  Returns the replacement record (the old one is
        retired).
        """
        if extra_pages <= 0:
            raise SgxError(f"growth must be positive, got {extra_pages}")
        if allocation.allocation_id not in self._allocations:
            raise SgxError(
                f"allocation {allocation.allocation_id} is not live"
            )
        current = self._allocations[allocation.allocation_id]
        free = self.total_pages - self.allocated_pages
        if extra_pages > free and not self.allow_overcommit:
            raise EpcExhaustedError(extra_pages, max(0, free))
        grown = EpcAllocation(
            allocation_id=current.allocation_id,
            owner=current.owner,
            pages=current.pages + extra_pages,
        )
        self._allocations[grown.allocation_id] = grown
        self._allocated_pages += extra_pages
        return grown

    def shrink_allocation(
        self, allocation: EpcAllocation, fewer_pages: int
    ) -> EpcAllocation:
        """Trim *fewer_pages* off a live allocation (SGX 2 EREMOVE path).

        Returns the replacement record; shrinking to zero pages is not
        allowed — destroy the enclave instead.
        """
        if fewer_pages <= 0:
            raise SgxError(f"shrink must be positive, got {fewer_pages}")
        if allocation.allocation_id not in self._allocations:
            raise SgxError(
                f"allocation {allocation.allocation_id} is not live"
            )
        current = self._allocations[allocation.allocation_id]
        if fewer_pages >= current.pages:
            raise SgxError(
                f"cannot shrink {current.pages}-page allocation by "
                f"{fewer_pages}; destroy the enclave instead"
            )
        shrunk = EpcAllocation(
            allocation_id=current.allocation_id,
            owner=current.owner,
            pages=current.pages - fewer_pages,
        )
        self._allocations[shrunk.allocation_id] = shrunk
        self._allocated_pages -= fewer_pages
        return shrunk

    def release(self, allocation: EpcAllocation) -> None:
        """Return an allocation's pages to the free pool."""
        # Subtract the live record's pages, not the argument's: the
        # caller may hold a stale record from before a grow/shrink.
        current = self._allocations.get(allocation.allocation_id)
        if current is None:
            raise SgxError(
                f"allocation {allocation.allocation_id} is not live"
            )
        del self._allocations[allocation.allocation_id]
        self._allocated_pages -= current.pages

    def release_owner(self, owner: str) -> int:
        """Release every allocation owned by *owner*; return pages freed."""
        doomed = [
            a for a in self._allocations.values() if a.owner == owner
        ]
        freed = 0
        for alloc in doomed:
            del self._allocations[alloc.allocation_id]
            freed += alloc.pages
        self._allocated_pages -= freed
        return freed

    def allocations(self) -> Iterator[EpcAllocation]:
        """Iterate over live allocations (snapshot order is insertion)."""
        return iter(list(self._allocations.values()))

    def __len__(self) -> int:
        return len(self._allocations)

    def __repr__(self) -> str:
        return (
            f"EnclavePageCache(total_pages={self.total_pages}, "
            f"allocated={self.allocated_pages}, free={self.free_pages}, "
            f"overcommit={self.allow_overcommit})"
        )
