"""Deterministic discrete-event engine.

A minimal, classic design: a priority queue of (time, sequence, action)
entries, a monotonically advancing clock and cancellable handles.  Ties
break by scheduling order (the sequence number), which — together with
seeded randomness everywhere else — makes whole experiments reproducible
bit-for-bit.

The heap stores bare ``(time, seq, handle)`` tuples rather than the
handles themselves: tuple comparison happens in C, so the hot
push/pop path never re-enters the interpreter for ordering.  Handles
exist only to let callers cancel events; ordering is carried entirely
by the tuple.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

Action = Callable[[], None]


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("time", "seq", "action", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Action,
        engine: Optional["SimulationEngine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.action: Optional[Action] = action
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; cancelling an
        already-fired event is a no-op."""
        if self.cancelled or self.action is None:
            return
        self.cancelled = True
        self.action = None
        engine = self._engine
        if engine is not None:
            # Inlined bookkeeping: this is the hottest cancel path
            # (every reschedule cancels the stale finish event).
            engine._pending -= 1
            engine._cancelled += 1
            queue = engine._queue
            if (
                len(queue) >= engine.COMPACT_MIN_QUEUE
                and engine._cancelled * 2 >= len(queue)
            ):
                engine._compact()


class SimulationEngine:
    """Event loop with a simulated clock."""

    __slots__ = (
        "_now", "_queue", "_next_seq", "_fired", "_pending",
        "_cancelled",
    )

    #: Compact the heap once cancelled handles make up at least half of
    #: it.  The threshold is proportional to the heap size (amortised
    #: O(1) work per cancel, bounded memory overhead of 2x live events)
    #: rather than a fixed count, which on small queues never triggered
    #: and on huge queues compacted too eagerly.  Queues smaller than
    #: ``COMPACT_MIN_QUEUE`` are left alone: compaction is pure
    #: overhead when the whole heap fits in a cache line or two.
    COMPACT_MIN_QUEUE = 32

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._next_seq = 0
        self._fired = 0
        self._pending = 0  # live (non-cancelled, unfired) events
        self._cancelled = 0  # cancelled handles still sitting in the heap

    @property
    def now(self) -> float:
        """The current simulated time, seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Events scheduled and not yet fired or cancelled.  O(1)."""
        return self._pending

    @property
    def fired_events(self) -> int:
        """Events executed so far."""
        return self._fired

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors."""
        self._queue = [e for e in self._queue if not e[2].cancelled]
        heapify(self._queue)
        self._cancelled = 0

    def schedule_at(self, time: float, action: Action) -> EventHandle:
        """Schedule *action* at absolute simulated *time*."""
        # Negated so NaN fails too: ``nan < now`` is False, and a NaN
        # key would break the heap's ordering.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now={self._now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle(time, seq, action, self)
        heappush(self._queue, (time, seq, handle))
        self._pending += 1
        return handle

    def schedule_in(self, delay: float, action: Action) -> EventHandle:
        """Schedule *action* after *delay* seconds of simulated time."""
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"negative delay: {delay}")
        # Inlined schedule_at: a non-negative delay can never land in
        # the past, so the guard there is redundant on this path.
        time = self._now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle(time, seq, action, self)
        heappush(self._queue, (time, seq, handle))
        self._pending += 1
        return handle

    def reschedule_in(
        self,
        handle: Optional[EventHandle],
        delay: float,
        action: Action,
    ) -> EventHandle:
        """Cancel *handle* (when live) and schedule *action* after *delay*.

        Fuses ``handle.cancel()`` + :meth:`schedule_in` into one call —
        the replay arms a job's finish event through it at start and
        re-arms it whenever the job's paging slowdown changes.
        Timestamps, sequence numbers and compaction behaviour are
        exactly those of the unfused pair; a live cancel nets out
        against the new event in the pending count.  A bad *delay*
        raises before *handle* is touched.
        """
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"negative delay: {delay}")
        if (
            handle is not None
            and not handle.cancelled
            and handle.action is not None
        ):
            handle.cancelled = True
            handle.action = None
            self._cancelled += 1
            size = len(self._queue)
            if size >= self.COMPACT_MIN_QUEUE and self._cancelled * 2 >= size:
                self._compact()
        else:
            self._pending += 1
        time = self._now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        new = EventHandle(time, seq, action, self)
        heappush(self._queue, (time, seq, new))
        return new

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> float:
        """Run events in order until the queue drains or *until* passes.

        Returns the final simulated time.  ``max_events`` guards against
        runaway self-rescheduling loops.
        """
        queue = self._queue
        pop = heappop
        fired_this_run = 0
        while queue:
            entry = queue[0]
            handle = entry[2]
            if handle.cancelled:
                pop(queue)
                self._cancelled -= 1
                continue
            if until is not None and entry[0] > until:
                self._now = until
                return self._now
            pop(queue)
            self._now = entry[0]
            action = handle.action
            handle.action = None
            self._pending -= 1
            self._fired += 1
            fired_this_run += 1
            if fired_this_run > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; runaway loop?"
                )
            if action is not None:
                action()
            # Compaction rebinds self._queue; stay on the live heap.
            queue = self._queue
        if until is not None and until > self._now:
            self._now = until
        return self._now
