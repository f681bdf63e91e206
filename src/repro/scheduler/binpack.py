"""Binpack placement strategy.

Section IV: "When binpack is in use, the scheduler always tries to fit as
many jobs as possible on the same node.  As soon as its resources become
insufficient, the scheduler advances to the next node in the pool.  The
order of the nodes stays consistent by always sorting them in the same
way.  In the case of a standard job, we sort SGX-enabled nodes at the end
of this list, to preserve their resources for SGX-enabled jobs."

The strategy is therefore first-fit over a fixed node order; the base
pass already hands a standard job the SGX nodes only when no other node
fits, and the sort here keeps the order consistent within each group.
"""

from __future__ import annotations

from operator import attrgetter
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
        # First fit over the consistent order is the first name.  The
        # pass hands over only views the pod fits, so no fit test is
        # left, and the pass has already narrowed them to one SGX-ness
        # (SGX nodes last).
        return min(candidates, key=attrgetter("name"))
