"""Binpack placement strategy.

Section IV: "When binpack is in use, the scheduler always tries to fit as
many jobs as possible on the same node.  As soon as its resources become
insufficient, the scheduler advances to the next node in the pool.  The
order of the nodes stays consistent by always sorting them in the same
way.  In the case of a standard job, we sort SGX-enabled nodes at the end
of this list, to preserve their resources for SGX-enabled jobs."

The strategy is therefore first-fit over a fixed node order; the
``prefer_non_sgx`` step in the base pass already guarantees SGX nodes are
only touched by standard jobs when nothing else fits, and the sort here
keeps the order consistent within each group.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..orchestrator.pod import Pod
from ..registry import register_scheduler
from .base import NodeView, Scheduler


@register_scheduler("binpack")
class BinpackScheduler(Scheduler):
    """First-fit over a consistent node order, SGX nodes sorted last."""

    name = "sgx-aware-binpack"

    __slots__ = ()

    def _select(
        self,
        pod: Pod,
        candidates: Sequence[NodeView],
        views: Sequence[NodeView],
    ) -> Optional[NodeView]:
        # First fit over the consistent order == the minimum-keyed
        # fitting candidate; a single min-scan replaces the historical
        # per-pod sort (node names are unique, so the minimum — and
        # hence the selection — is exactly the sorted walk's).
        preserve = self.preserve_sgx_nodes
        requests = pod.spec.resources.requests
        req_cpu = requests.cpu_millicores
        req_mem = requests.memory_bytes
        req_epc = requests.epc_pages
        best: Optional[NodeView] = None
        best_key = None
        for view in candidates:
            # Component-wise ``requests.fits_within(view.available)``
            # without materialising the available vector per candidate:
            # a zero request always fits (available floors at zero), a
            # positive one needs headroom in that dimension.
            cap = view.capacity
            used = view.used
            if (
                req_cpu > cap.cpu_millicores - used.cpu_millicores
                and req_cpu != 0
            ):
                continue
            if (
                req_mem > cap.memory_bytes - used.memory_bytes
                and req_mem != 0
            ):
                continue
            if req_epc > cap.epc_pages - used.epc_pages and req_epc != 0:
                continue
            key = (view.sgx_capable if preserve else False, view.name)
            if best_key is None or key < best_key:
                best_key = key
                best = view
        return best
