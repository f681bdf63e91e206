"""Baseline: the stock Kubernetes scheduler.

Section IV observes that existing orchestrators "rely on statically-
provided information given by the users upon deployment", which "can be
malformed or non-conforming to the real usage of the containers, and
henceforth leading to over- or under-allocations".

This baseline reproduces that behaviour: feasibility and scoring use
*declared requests only* (``use_measured = False``), and nodes are scored
with a least-requested spreading heuristic in the spirit of Kubernetes'
``LeastRequestedPriority``.  It still understands the device-plugin EPC
resource (a stock scheduler counts extended resources), so the comparison
against the SGX-aware schedulers isolates the value of *measured usage*,
not of EPC awareness per se.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..orchestrator.pod import Pod
from ..registry import register_scheduler
from .base import NodeView, Scheduler


@register_scheduler("kube-default")
class KubeDefaultScheduler(Scheduler):
    """Declared-requests-only scheduling with least-requested scoring."""

    name = "kube-default"

    #: The stock scheduler is *defined* by declared-requests
    #: feasibility: the baseline never reads measured usage.
    use_measured = False

    def _select(
        self,
        pod: Pod,
        candidates: Sequence[NodeView],
        views: Sequence[NodeView],
    ) -> Optional[NodeView]:
        requests = pod.spec.resources.requests

        def score(view: NodeView) -> tuple:
            # Lower post-placement load is better (more headroom), which
            # is LeastRequestedPriority inverted into a minimisation;
            # the pass has already narrowed the candidates to one
            # SGX-ness.
            return (view.load_after(requests), view.name)

        return min(candidates, key=score, default=None)
