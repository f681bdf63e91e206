"""Spread placement strategy.

Section IV: "the main goal of the spread strategy is to even out the load
across all nodes.  It works by choosing job-node combinations that yield
the smallest standard deviation of load across the nodes.  Like binpack,
it only resorts to SGX-enabled nodes for non-SGX jobs when no other
choice is possible."

Node load is the dominant utilisation ratio across the dimensions the
node possesses (see :attr:`~repro.scheduler.base.NodeView.load`), which
makes heterogeneous machines comparable: a standard node is as loaded as
its busiest dimension, an SGX node additionally counts its EPC.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..orchestrator.pod import Pod
from ..registry import register_scheduler
from .base import NodeView, Scheduler


def _stddev(values: List[float]) -> float:
    """Population standard deviation (the metric the paper minimises)."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


@register_scheduler("spread")
class SpreadScheduler(Scheduler):
    """Minimise the standard deviation of node loads after placement."""

    name = "sgx-aware-spread"

    def _select(
        self,
        pod: Pod,
        candidates: Sequence[NodeView],
        views: Sequence[NodeView],
    ) -> Optional[NodeView]:
        requests = pod.spec.resources.requests
        # Base loads once per pod; each candidate substitutes its own
        # post-placement load into its position.  The list handed to
        # ``_stddev`` holds the identical values in the identical
        # positions the per-candidate rebuild produced, at O(V + C)
        # load computations instead of O(V * C).
        loads = [view.load for view in views]
        position = {id(view): i for i, view in enumerate(views)}
        best: Optional[NodeView] = None
        best_key = None
        for candidate in candidates:
            index = position[id(candidate)]
            saved = loads[index]
            loads[index] = candidate.load_after(requests)
            # Tie-break deterministically by name, so runs are
            # reproducible across dict orderings (the pass has already
            # narrowed the candidates to one SGX-ness).
            key = (_stddev(loads), candidate.name)
            loads[index] = saved
            if best_key is None or key < best_key:
                best_key = key
                best = candidate
        return best
