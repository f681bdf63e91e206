"""Cluster events: the transitions that can make a scheduling pass useful.

The :class:`~repro.orchestrator.controller.Orchestrator` publishes every
such transition — pod submitted, requeued, completed or killed, node
added or removed, capacity freed by a migration — into a
:class:`SchedulingTrigger`, which counts it and records it as a
``trigger`` ledger record on observed runs.  ``repro explain`` reads a
pod's submission and end from those records.

The scheduler itself still runs on the paper's fixed period (Sec. IV:
"the scheduler periodically checks for the possibility to schedule"
pending jobs); the orchestrator answers a pass over an unchanged queue
and cluster from the previous pass's outcome instead of gating passes
on events.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..obs.ledger import NULL_LEDGER


class ClusterEvent(enum.Enum):
    """Cluster state transitions that can make a scheduling pass useful."""

    #: A new pod entered the pending queue.
    POD_SUBMITTED = "pod-submitted"
    #: A transiently failed launch went back to the queue.
    POD_REQUEUED = "pod-requeued"
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


class SchedulingTrigger:
    """Counts published cluster events and records them in the ledger."""

    __slots__ = ("events_published", "ledger")

    def __init__(self) -> None:
        self.events_published = 0
        #: The run's decision ledger (the orchestrator rebinds this to
        #: the live one on observed runs).
        self.ledger = NULL_LEDGER

    def publish(
        self,
        kind: ClusterEvent,
        now: float,
        pod_name: Optional[str] = None,
        node_name: Optional[str] = None,
    ) -> None:
        """Record one cluster event."""
        self.events_published += 1
        ledger = self.ledger
        if ledger.enabled:
            ledger.emit(
                now, "trigger",
                event=kind.value, pod=pod_name, node=node_name,
            )
