"""Priority-tiered FCFS pending queue with a backoff-aware requeue
sub-queue.

Section IV: "The orchestrator keeps a persistent queue of pending jobs;
the scheduler periodically checks for the possibility to schedule some of
them, applying a first-come first-served (FCFS) priority."

Jobs are iterated highest-priority-tier first, and oldest-first by
*original submission time* within a tier.  The paper's evaluation runs
entirely at the default priority 0, where the tier key is constant and
the order collapses to the original pure FCFS — priority-disabled
replays are bit-for-bit identical to the pre-policy queue.  Like the
Kubernetes scheduler the paper extends non-preemptively, a job that
cannot currently be placed does not block younger jobs from being
attempted (no head-of-line blocking), but priority within a tier
remains FCFS: every pass considers older jobs first.  A strict variant
is available for the ablation benchmark.

Two queues live here:

* the **main queue** of submitted pods, ordered by
  ``(-priority, submitted_at, uid)`` — uids are monotonically
  increasing, so ties at the same submission instant break by arrival
  order;
* the **requeue sub-queue** for pods whose launch failed transiently.
  A requeued pod keeps its original ``submitted_at`` key, so it regains
  its FCFS position instead of being demoted to the tail (where the
  oldest pod could starve behind younger ones forever).  Each requeue
  carries a ``ready_at = now + backoff``; until then the pod is hidden
  from :meth:`snapshot`, which keeps crash-looping admissions from
  hammering every pass while preserving the pod's priority the moment
  its backoff expires.  The default backoff of 0 makes requeued pods
  eligible immediately, matching the paper's retry-next-pass behaviour.

The scheduling order is materialised once and maintained
incrementally — pushes bisect into place, removals splice out — so the
per-pass snapshot costs a copy, not a fresh ``O(n log n)`` sort.  The
requested-resource aggregates the queue samples report every tick are
kept as running integer totals the same way.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterator, List, Optional

from ..errors import OrchestrationError
from .pod import Pod


def _order_key(pod: Pod):
    """Scheduling order: priority tiers first, FCFS within a tier."""
    return (-pod.spec.priority, pod.submitted_at, pod.uid)


class PendingQueue:
    """FCFS pending pods, keyed by uid for O(1) membership."""

    __slots__ = (
        "requeue_backoff_seconds", "_pods", "_sorted", "_ready_at",
        "_total_epc_pages", "_total_memory_bytes",
    )

    def __init__(self, requeue_backoff_seconds: float = 0.0):
        if requeue_backoff_seconds < 0:
            raise OrchestrationError(
                f"requeue backoff must be >= 0, got {requeue_backoff_seconds}"
            )
        self.requeue_backoff_seconds = requeue_backoff_seconds
        self._pods: Dict[str, Pod] = {}
        #: Scheduling-ordered materialisation of ``_pods``; every key
        #: is unique (uids are), so bisection insert keeps it exact.
        self._sorted: List[Pod] = []
        #: uid -> ready_at for pods sitting out a requeue backoff.
        self._ready_at: Dict[str, float] = {}
        self._total_epc_pages = 0
        self._total_memory_bytes = 0

    # -- mutation ----------------------------------------------------------

    def push(self, pod: Pod) -> None:
        """Enqueue a newly submitted pod (FCFS position: its uid)."""
        if pod.uid in self._pods:
            raise OrchestrationError(
                f"pod {pod.name} (uid {pod.uid}) already queued"
            )
        self._pods[pod.uid] = pod
        insort(self._sorted, pod, key=_order_key)
        requests = pod.spec.resources.requests
        self._total_epc_pages += requests.epc_pages
        self._total_memory_bytes += requests.memory_bytes

    def requeue(self, pod: Pod, now: float) -> float:
        """Reinsert a transiently failed pod at its original FCFS slot.

        Returns the ``ready_at`` time at which the pod becomes eligible
        again (``now`` when no backoff is configured).
        """
        self.push(pod)
        ready_at = now + self.requeue_backoff_seconds
        if ready_at > now:
            self._ready_at[pod.uid] = ready_at
        return ready_at

    def remove(self, pod: Pod) -> None:
        """Remove a pod (scheduled or rejected)."""
        if pod.uid not in self._pods:
            raise OrchestrationError(
                f"pod {pod.name} (uid {pod.uid}) is not queued"
            )
        del self._pods[pod.uid]
        self._sorted.remove(pod)
        self._ready_at.pop(pod.uid, None)
        requests = pod.spec.resources.requests
        self._total_epc_pages -= requests.epc_pages
        self._total_memory_bytes -= requests.memory_bytes

    # -- membership --------------------------------------------------------

    def __contains__(self, pod: Pod) -> bool:
        return pod.uid in self._pods

    def __len__(self) -> int:
        return len(self._pods)

    def _ordered(self) -> List[Pod]:
        """All queued pods: priority tiers first, FCFS within a tier.

        An evicted pod is resubmitted with its *original*
        ``submitted_at``, so it re-enters exactly where its tier's
        FCFS order had it.  Returns a copy: callers mutate the queue
        while walking it.
        """
        return list(self._sorted)

    def __iter__(self) -> Iterator[Pod]:
        """Highest-tier-oldest-first iteration over a queue snapshot."""
        return iter(self._ordered())

    def snapshot(self, now: Optional[float] = None) -> List[Pod]:
        """Scheduling-ordered list of pods eligible for scheduling.

        With *now* supplied, pods still inside a requeue backoff are
        excluded (a pod whose ``ready_at`` equals *now* exactly is
        eligible); without it the whole queue is returned (reporting).
        """
        if now is None or not self._ready_at:
            return list(self._sorted)
        ready_at = self._ready_at
        return [
            pod
            for pod in self._sorted
            if ready_at.get(pod.uid, now) <= now
        ]

    # -- aggregates --------------------------------------------------------

    def total_requested_epc_pages(self) -> int:
        """Sum of EPC pages requested by queued pods (Fig. 7's y-axis)."""
        return self._total_epc_pages

    def total_requested_memory_bytes(self) -> int:
        """Sum of standard memory requested by queued pods."""
        return self._total_memory_bytes
