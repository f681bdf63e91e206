"""Typed event records for audit and testing.

The engine itself runs opaque callbacks; the runner additionally logs
what *happened* as typed records so tests can assert ordering invariants
("no pod starts before it was bound", "metrics precede the pass that
used them") and experiments can be replayed for debugging.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


class EventKind(enum.Enum):
    """What happened at a point in simulated time."""

    SUBMITTED = "submitted"
    METRICS_COLLECTED = "metrics-collected"
    SCHEDULING_PASS = "scheduling-pass"
    BOUND = "bound"
    LAUNCH_KILLED = "launch-killed"
    REJECTED = "rejected"
    REQUEUED = "requeued"
    #: The preemption step killed this pod to place a higher-priority
    #: one; its spec was resubmitted with the original submission time.
    EVICTED = "evicted"
    STARTED = "started"
    COMPLETED = "completed"
    #: A rebalancer migration failed at restore; the pod's spec was
    #: resubmitted and its runner-side job entry purged.
    MIGRATION_FAILED = "migration-failed"
    SLOWDOWN_CHANGED = "slowdown-changed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class LoggedEvent:
    """One audit record."""

    time: float
    kind: EventKind
    pod_name: Optional[str] = None
    node_name: Optional[str] = None
    detail: str = ""


@dataclass
class EventLog:
    """Append-only audit log of a replay."""

    events: List[LoggedEvent] = field(default_factory=list)

    def record(
        self,
        time: float,
        kind: EventKind,
        pod_name: Optional[str] = None,
        node_name: Optional[str] = None,
        detail: str = "",
    ) -> None:
        """Append one record (times must be non-decreasing by caller)."""
        self.events.append(
            LoggedEvent(
                time=time,
                kind=kind,
                pod_name=pod_name,
                node_name=node_name,
                detail=detail,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[LoggedEvent]:
        return iter(self.events)

    def of_kind(self, kind: EventKind) -> List[LoggedEvent]:
        """All records of one kind, in time order."""
        return [e for e in self.events if e.kind is kind]

    def for_pod(self, pod_name: str) -> List[LoggedEvent]:
        """All records touching one pod, in time order."""
        return [e for e in self.events if e.pod_name == pod_name]

    def counts(self) -> Dict[EventKind, int]:
        """Record counts per kind."""
        tally: Dict[EventKind, int] = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally
