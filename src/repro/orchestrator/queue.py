"""Priority-tiered FCFS pending queue.

Section IV: "The orchestrator keeps a persistent queue of pending jobs;
the scheduler periodically checks for the possibility to schedule some of
them, applying a first-come first-served (FCFS) priority."

Jobs are iterated highest-priority-tier first, and oldest-first by
*original submission time* within a tier: the order
``(-priority, submitted_at, uid)``, where uids increase monotonically,
so ties at the same submission instant break by arrival order.  The
paper's evaluation runs entirely at the default priority 0, where the
tier key is constant and the order collapses to the original pure FCFS
— priority-disabled replays are bit-for-bit identical to the
pre-policy queue.  Like the Kubernetes scheduler the paper extends
non-preemptively, a job that cannot currently be placed does not block
younger jobs from being attempted (no head-of-line blocking), but
priority within a tier remains FCFS: every pass considers older jobs
first.

A pod whose launch failed transiently is pushed back with its original
``submitted_at``, so it regains its FCFS position on the very next
pass instead of being demoted to the tail (where the oldest pod could
starve behind younger ones forever).

The scheduling order is materialised once and maintained
incrementally — pushes bisect into place, removals splice out — so the
per-pass snapshot costs a copy, not a fresh ``O(n log n)`` sort.  The
requested-resource aggregates the queue samples report every tick are
kept as running integer totals the same way.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterator, List

from ..errors import OrchestrationError
from .pod import Pod


def _order_key(pod: Pod):
    """Scheduling order: priority tiers first, FCFS within a tier."""
    return (-pod.spec.priority, pod.submitted_at, pod.uid)


class PendingQueue:
    """FCFS pending pods, keyed by uid for O(1) membership."""

    __slots__ = (
        "_pods", "_sorted", "_total_epc_pages", "_total_memory_bytes",
    )

    def __init__(self):
        self._pods: Dict[str, Pod] = {}
        #: Scheduling-ordered materialisation of ``_pods``; every key
        #: is unique (uids are), so bisection insert keeps it exact.
        self._sorted: List[Pod] = []
        self._total_epc_pages = 0
        self._total_memory_bytes = 0

    # -- mutation ----------------------------------------------------------

    def push(self, pod: Pod) -> None:
        """Enqueue a pod at its FCFS slot (newly submitted, or back
        from a transiently failed launch)."""
        if pod.uid in self._pods:
            raise OrchestrationError(
                f"pod {pod.name} (uid {pod.uid}) already queued"
            )
        self._pods[pod.uid] = pod
        insort(self._sorted, pod, key=_order_key)
        requests = pod.spec.resources.requests
        self._total_epc_pages += requests.epc_pages
        self._total_memory_bytes += requests.memory_bytes

    def remove(self, pod: Pod) -> None:
        """Remove a pod (scheduled or rejected)."""
        if pod.uid not in self._pods:
            raise OrchestrationError(
                f"pod {pod.name} (uid {pod.uid}) is not queued"
            )
        del self._pods[pod.uid]
        self._sorted.remove(pod)
        requests = pod.spec.resources.requests
        self._total_epc_pages -= requests.epc_pages
        self._total_memory_bytes -= requests.memory_bytes

    # -- membership --------------------------------------------------------

    def __contains__(self, pod: Pod) -> bool:
        return pod.uid in self._pods

    def __len__(self) -> int:
        return len(self._pods)

    def __iter__(self) -> Iterator[Pod]:
        """Highest-tier-oldest-first iteration over a queue snapshot."""
        return iter(self.snapshot())

    def snapshot(self) -> List[Pod]:
        """Every queued pod: priority tiers first, FCFS within a tier.

        An evicted pod is resubmitted with its *original*
        ``submitted_at``, so it re-enters exactly where its tier's
        FCFS order had it.  Returns a copy: callers mutate the queue
        while walking it.
        """
        return list(self._sorted)

    # -- aggregates --------------------------------------------------------

    def total_requested_epc_pages(self) -> int:
        """Sum of EPC pages requested by queued pods (Fig. 7's y-axis)."""
        return self._total_epc_pages

    def total_requested_memory_bytes(self) -> int:
        """Sum of standard memory requested by queued pods."""
        return self._total_memory_bytes
