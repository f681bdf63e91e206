"""Event-driven scheduling triggers: react instead of polling.

Section IV of the paper runs the scheduler on a fixed period: "the
scheduler periodically checks for the possibility to schedule" pending
jobs.  That is faithful to the testbed (5 nodes, one queue) but wasteful
at scale — most periodic passes find a cluster in exactly the state the
previous pass left it and recompute the same all-deferred outcome.

This module turns the initiation of scheduling passes inside out.  The
:class:`~repro.orchestrator.controller.Orchestrator` *publishes* cluster
events — pod submitted, pod completed, pod killed, node added/removed,
capacity freed by a migration, a requeue backoff expiring — into a
:class:`SchedulingTrigger`.  Whatever drives the control plane (the
simulation's replay runner, a benchmark harness, a test) then asks the
trigger whether a pass is *due* instead of blindly running one:

* **coalescing** — any number of events between two passes are served by
  one pass; :meth:`SchedulingTrigger.begin_pass` consumes everything
  that became ready and counts the surplus as coalesced;
* **min-interval guard** — :meth:`next_pass_due` never answers a time
  closer than ``min_interval_seconds`` after the previous pass, bounding
  the pass rate under event storms (mass submissions, cascading
  requeues);
* **backoff awareness** — a requeued pod publishes a ``ready_at`` in the
  future; the event stays *deferred* and only makes a pass due once its
  backoff expires, so crash-looping admissions cannot spin the
  scheduler.

**The periodic mode stays as the oracle.**  The trigger deliberately
does not own a clock or an event loop: callers pass ``now`` and decide
when to look.  The replay runner's event-driven mode keeps waking on the
paper's periodic grid but consults the trigger (plus the cluster-state
fingerprint, see :meth:`repro.scheduler.base.ClusterStateService.
state_unchanged`) to *skip* passes that provably cannot differ from the
previous one.  Because a skipped pass is exactly a pass the periodic
oracle would have executed to an all-deferred no-op, event-driven replay
reproduces the periodic replay bit-for-bit — same bindings, same
timestamps — while executing far fewer passes.  ``Scenario
(event_driven=False)`` remains the default, so Sec. IV's "periodically
checks" behaviour is reproducible unchanged.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..obs.ledger import NULL_LEDGER


class ClusterEvent(enum.Enum):
    """Cluster state transitions that can make a scheduling pass useful."""

    #: A new pod entered the pending queue.
    POD_SUBMITTED = "pod-submitted"
    #: A transiently failed launch went back to the queue; carries the
    #: ``ready_at`` at which its backoff expires.
    POD_REQUEUED = "pod-requeued"
    #: A requeued pod's backoff expired (derived from POD_REQUEUED when
    #: the pass that serves it begins).
    REQUEUE_READY = "requeue-ready"
    #: A pod finished and returned its resources.
    POD_COMPLETED = "pod-completed"
    #: A pod was forcibly terminated (possibly freeing resources).
    POD_KILLED = "pod-killed"
    #: A node joined the cluster (new capacity).
    NODE_ADDED = "node-added"
    #: A node left the cluster (capacity lost, pods resubmitted).
    NODE_REMOVED = "node-removed"
    #: Resources freed outside the completion path (e.g. a migration
    #: vacated its source node).
    CAPACITY_FREED = "capacity-freed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TriggerEvent:
    """One published cluster event."""

    kind: ClusterEvent
    time: float
    #: Earliest time a pass serving this event is useful; equals
    #: ``time`` for everything except backoff requeues.
    ready_at: float
    pod_name: Optional[str] = None
    node_name: Optional[str] = None


#: Listener signature: receives every published event, immediately.
Listener = Callable[[TriggerEvent], None]


class SchedulingTrigger:
    """Publish/subscribe hub that gates scheduling passes.

    Parameters
    ----------
    min_interval_seconds:
        Lower bound on the spacing between two granted passes.  ``0``
        disables the guard (the replay runner uses its periodic grid as
        the guard instead and leaves this at 0).
    """

    def __init__(self, min_interval_seconds: float = 0.0):
        self.min_interval_seconds = min_interval_seconds
        self._listeners: List[Listener] = []
        #: Events ready to be served by the next pass.
        self._ready: List[TriggerEvent] = []
        #: Backoff events not yet ready: heap of (ready_at, seq, event).
        self._deferred: List[Tuple[float, int, TriggerEvent]] = []
        self._seq = 0
        self._last_pass_at: Optional[float] = None
        # Stats the benchmark harness reports.
        self.events_published = 0
        self.passes_started = 0
        self.events_coalesced = 0
        #: The run's decision ledger (the orchestrator rebinds this to
        #: the live one on observed runs); every published event is
        #: recorded as a ``trigger`` ledger record.
        self.ledger = NULL_LEDGER

    # -- pub/sub -----------------------------------------------------------

    def subscribe(self, listener: Listener) -> None:
        """Register *listener* for every future publish."""
        self._listeners.append(listener)

    def publish(
        self,
        kind: ClusterEvent,
        now: float,
        pod_name: Optional[str] = None,
        node_name: Optional[str] = None,
        ready_at: Optional[float] = None,
    ) -> TriggerEvent:
        """Record one cluster event and notify listeners."""
        event = TriggerEvent(
            kind=kind,
            time=now,
            ready_at=now if ready_at is None else max(now, ready_at),
            pod_name=pod_name,
            node_name=node_name,
        )
        self.events_published += 1
        ledger = self.ledger
        if ledger.enabled:
            ledger.emit(
                now, "trigger",
                event=kind.value, pod=pod_name, node=node_name,
            )
        if event.ready_at > now:
            self._seq += 1
            heapq.heappush(
                self._deferred, (event.ready_at, self._seq, event)
            )
        else:
            self._ready.append(event)
        for listener in self._listeners:
            listener(event)
        return event

    # -- pass gating -------------------------------------------------------

    def _promote(self, now: float) -> None:
        """Move deferred events whose backoff expired to the ready set."""
        while self._deferred and self._deferred[0][0] <= now:
            _, _, event = heapq.heappop(self._deferred)
            ready = TriggerEvent(
                kind=ClusterEvent.REQUEUE_READY,
                time=event.ready_at,
                ready_at=event.ready_at,
                pod_name=event.pod_name,
                node_name=event.node_name,
            )
            self._ready.append(ready)
            for listener in self._listeners:
                listener(ready)

    def has_work(self, now: float) -> bool:
        """Whether any event is ready to be served at *now*."""
        self._promote(now)
        return bool(self._ready)

    def next_wake(self, now: float) -> Optional[float]:
        """Earliest future ``ready_at`` among deferred events, if any."""
        self._promote(now)
        return self._deferred[0][0] if self._deferred else None

    def next_pass_due(self, now: float) -> Optional[float]:
        """When a pass serving the ready events may run, or ``None``.

        ``None`` means no event is ready at *now*; otherwise the answer
        is *now* pushed out by the min-interval guard.
        """
        if not self.has_work(now):
            return None
        if self._last_pass_at is None:
            return now
        return max(now, self._last_pass_at + self.min_interval_seconds)

    def begin_pass(self, now: float) -> List[TriggerEvent]:
        """Consume the ready events a pass starting at *now* serves.

        Returns the consumed events (possibly empty — a periodic
        fallback pass runs regardless of events).  All but the first are
        counted as coalesced: one pass served them all.
        """
        self._promote(now)
        consumed = self._ready
        self._ready = []
        self._last_pass_at = now
        self.passes_started += 1
        if len(consumed) > 1:
            self.events_coalesced += len(consumed) - 1
        return consumed

    def discard_ready(self, now: float) -> int:
        """Drop the events ready at *now* without granting a pass.

        For drivers that know a pass would be pointless regardless of
        events — e.g. the pending queue is empty, so completions have
        nothing to unblock.  Backoff events whose ``ready_at`` is still
        in the future are kept: their pods are still queued and will
        need a pass once ready.
        """
        self._promote(now)
        dropped = len(self._ready)
        self._ready = []
        return dropped

    @property
    def pending_events(self) -> int:
        """Ready plus deferred events not yet consumed by a pass."""
        return len(self._ready) + len(self._deferred)
