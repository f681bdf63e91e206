"""Sliding-window MAX store: the scheduler's monitoring sink.

The paper's scheduler reads exactly one thing from monitoring: Listing
1's per-pod sliding-window maximum, ``SELECT MAX(value) FROM m WHERE
value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename``.
:class:`WindowedAggregateCache` keeps, for every ``(measurement,
nodename, pod_name)`` series, that rolling MAX with the classic
monotonic-deque algorithm.

Collectors report by change: at every collection Heapster and the SGX
probes hand it the series that started, changed value or ended (a row
of value 0), read from the pods each kubelet's :class:`SeriesLog`
names.  The store counts a live series as sampled at every collection
with its last value, so it answers as if every pod were sampled at
every collection, at a cost that follows the changes, not the pods.
No raw series are kept (memory is bounded by the window) and expiry
is lazy: front-of-deque pops at query time.

Series are grouped by node, and every node carries two things that let
the scheduler rebuild only the node views whose rows moved:

* a **version**: the store's monotone
  :attr:`~WindowedAggregateCache.content_version` at the node's last
  reported-row change (a new series, a rising maximum, or an expiry
  that surfaces a smaller value or kills a series);
* a **stability horizon**: the oldest maximum that can expire among
  the node's series.  While a query's cutoff stays at or below it,
  expiry can change none of the node's rows, so
  :meth:`~WindowedAggregateCache.node_states` walks only the nodes
  whose horizon lapsed.

A query or report the store cannot answer (a ``now`` earlier than the
last collection, or a query earlier than an earlier query) raises
:class:`~repro.errors.MonitoringError`: there is no raw series to fall
back to.  The simulation's monotone clock never makes one.  Listing 1
itself, run by an InfluxQL engine over a time-series database that
receives every pod's sample at every collection, is the reference the
tests compare every view build with.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..constants import METRICS_WINDOW_SECONDS
from ..errors import MonitoringError

#: One reported row: ``(nodename, pod_name, value)``; value 0 ends the
#: series.
SampleRow = Tuple[str, str, float]

#: One series' monotonic max structure: ``(time, value)`` pairs, times
#: ascending and values strictly decreasing.  The front is the window
#: maximum after expiry; the back is the series' newest sample (for a
#: live series, the value it holds at every collection since).
_MaxDeque = Deque[Tuple[float, float]]

_INF = float("inf")

#: Equal to no node name (``None`` included).
_NO_NODE = object()


class MetricsSink(Protocol):
    """Where collectors send changes, one batch per collection."""

    def report(
        self, measurement: str, now: float, rows: Sequence[SampleRow]
    ) -> None:
        """Absorb the series that started, changed or ended (value 0)
        at the collection at *now*."""
        ...  # pragma: no cover - protocol


class SeriesLog:
    """One node's series of one measurement, as its collector sees them.

    The kubelet files a pod's record in :attr:`touched` at every write
    that can move the pod's reading (admission, teardown, an SGX 2
    resize); at each collection the collector drains it (:meth:`drain`).
    Only the state at the collection is read, so what happens between
    two (a pod admitted and torn down) is never seen, as sampling every
    pod would not see it.  Series are keyed by pod name, as Listing 1
    groups them; the orchestrator refuses a second live pod of one
    name, so a name's series is one pod's reading.
    """

    __slots__ = ("node_name", "touched", "reported")

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        #: Pod uid -> the pod's kubelet record (``pod_name``, ``pid``),
        #: insertion-ordered; a torn-down record has no pid.
        self.touched: Dict[str, Any] = {}
        #: Pod name -> the non-zero value last reported for it.
        self.reported: Dict[str, float] = {}

    def drain(self, read: Callable[[Any], float]) -> List[SampleRow]:
        """The rows of the touched pods whose reading moved, in touch
        order; *read* gives a live record's reading.  Empties
        :attr:`touched`."""
        rows: List[SampleRow] = []
        node_name = self.node_name
        reported = self.reported
        for record in self.touched.values():
            value = 0.0 if record.pid is None else float(read(record))
            name = record.pod_name
            if value != reported.get(name, 0.0):
                rows.append((node_name, name, value))
                if value:
                    reported[name] = value
                else:
                    del reported[name]
        self.touched.clear()
        return rows


class _NodeState:
    """One node's series of one measurement, keyed by pod name.

    ``live`` names the series whose collector last reported a non-zero
    value: each is sampled at every collection with its deque's newest
    value, so that newest entry stands for the measurement's last
    collection and never expires while collections continue.
    ``version`` is the store's content version at the node's last
    reported-row change.  The counter never goes back and starts at 0,
    so a node state deleted and created again never repeats a version,
    and callers may read a node without state as version 0 (no rows).
    ``horizon`` is at most the time of every maximum that can expire:
    every ended series' max-deque head, and every live series' head
    that is not its newest entry.  A walk (:meth:`expire`) sets it
    exactly; between walks, an end or a change that leaves an older
    maximum in front lowers it.
    """

    __slots__ = ("series", "live", "version", "horizon")

    def __init__(self) -> None:
        self.series: Dict[Optional[str], _MaxDeque] = {}
        self.live: Dict[Optional[str], None] = {}
        self.version = 0
        self.horizon = _INF

    def expire(self, cutoff: float) -> bool:
        """Drop every point older than *cutoff*, and every series left
        without one, and recompute the horizon; ``True`` when a
        reported row changed (a smaller maximum surfaced or a series
        died).

        Max-deque values strictly decrease, so a popped head always
        surfaces a smaller maximum; the deque's back is the series'
        newest point, so an emptied deque is a dead series.  A live
        series keeps its newest entry.
        """
        changed = False
        horizon = _INF
        dead: List[Optional[str]] = []
        live = self.live
        for pod_name, maxdeque in self.series.items():
            keep = 1 if pod_name in live else 0
            if len(maxdeque) > keep and maxdeque[0][0] < cutoff:
                changed = True
                maxdeque.popleft()
                while len(maxdeque) > keep and maxdeque[0][0] < cutoff:
                    maxdeque.popleft()
                if not maxdeque:
                    dead.append(pod_name)
                    continue
            if len(maxdeque) > keep:
                head_time = maxdeque[0][0]
                if head_time < horizon:
                    horizon = head_time
        for pod_name in dead:
            del self.series[pod_name]
        self.horizon = horizon
        return changed

    def maxima(self) -> Dict[Optional[str], float]:
        """Each series' window maximum, by pod name (valid right after
        :meth:`WindowedAggregateCache.node_states`)."""
        return {
            pod_name: maxdeque[0][1]
            for pod_name, maxdeque in self.series.items()
        }


class _MeasurementState:
    """All series of one measurement, by node, plus the collection
    clock and the validity watermarks."""

    __slots__ = (
        "nodes", "horizon", "last", "prev", "hwm", "paused", "paused_at",
    )

    def __init__(self) -> None:
        self.nodes: Dict[Optional[str], _NodeState] = {}
        #: At most every node's horizon: while a query's cutoff stays
        #: at or below it, no node needs a walk.
        self.horizon = _INF
        #: The latest collection, and the one before it.
        self.last = float("-inf")
        self.prev = float("-inf")
        #: Highest query ``now`` served; queries earlier than this may
        #: need already-expired samples.
        self.hwm = float("-inf")
        #: Live series expired by a pause in collections longer than
        #: the window, by node, with their values; they start anew at
        #: the first collection after :attr:`paused_at` that does not
        #: report them.
        self.paused: Dict[Optional[str], Dict[Optional[str], float]] = {}
        self.paused_at = float("-inf")


class WindowedAggregateCache:
    """Sliding-window MAX store over Listing 1's 25 s window
    (:data:`~repro.constants.METRICS_WINDOW_SECONDS`), fed by
    :meth:`report`."""

    __slots__ = ("_measurements", "content_version")

    def __init__(self) -> None:
        self._measurements: Dict[str, _MeasurementState] = {}
        #: Bumped at every reported-row change of any node (see
        #: :class:`_NodeState`); each node keeps the value of its last
        #: one as its version.  A change that merely lowers a live
        #: series below its window maximum bumps nothing.
        self.content_version = 0

    def report(
        self, measurement: str, now: float, rows: Sequence[SampleRow]
    ) -> None:
        """Absorb one collector's ``(nodename, pod_name, value)`` rows
        for the collection at *now*: the series that started, changed
        value or ended (value 0) since the previous collection.

        Collectors call this at every collection, rows or not: the
        first call at a new *now* opens a collection, where every live
        series counts as sampled with its last value.  A change or an
        end first dates the series' newest entry at the previous
        collection (the last that saw the old value); a start or a
        change is then absorbed as a sample at *now*, where a new
        series or a rising maximum is a change of its node.  Entries
        behind the deque's head that no query can reach again are
        trimmed.  A value-0 row for a series that is not live changes
        nothing (Listing 1 filters ``value <> 0``).

        Raises :class:`~repro.errors.MonitoringError` when *now* lies
        before the measurement's last collection.
        """
        state = self._measurements.get(measurement)
        if state is None:
            state = self._measurements[measurement] = _MeasurementState()
        if now != state.last:
            if now < state.last:
                raise MonitoringError(
                    f"{measurement!r} report at t={now} is older than "
                    f"the last collection at t={state.last}"
                )
            if state.paused:
                self._close(state)
            state.prev = state.last
            state.last = now
        if not rows:
            return
        nodes = state.nodes
        paused = state.paused
        prev = state.prev
        cutoff = now - METRICS_WINDOW_SECONDS
        version = self.content_version
        node_name: object = _NO_NODE
        node: Optional[_NodeState] = None
        node_paused: Optional[Dict[Optional[str], float]] = None
        for nodename, pod_name, value in rows:
            if nodename != node_name:
                # A batch is grouped by node: look it up once per run.
                node_name = nodename
                node = nodes.get(nodename)
                node_paused = paused.get(nodename) if paused else None
            if node is not None and pod_name in node.live:
                maxdeque = node.series[pod_name]
                time, old = maxdeque[-1]
                if time < prev:
                    maxdeque[-1] = (prev, old)
                if not value:
                    # An end: the series' maxima can expire from now on.
                    del node.live[pod_name]
                    head_time = maxdeque[0][0]
                    if head_time < node.horizon:
                        node.horizon = head_time
                        if head_time < state.horizon:
                            state.horizon = head_time
                    continue
            else:
                if node_paused is not None:
                    node_paused.pop(pod_name, None)
                if not value:
                    continue
                if node is None:
                    node = nodes[nodename] = _NodeState()
                node.live[pod_name] = None
                maxdeque = node.series.get(pod_name)
                if maxdeque is None:
                    maxdeque = node.series[pod_name] = deque()
                    version += 1
                    node.version = version
            if maxdeque and value > maxdeque[0][1]:
                version += 1
                node.version = version
            while maxdeque and maxdeque[-1][1] <= value:
                maxdeque.pop()
            maxdeque.append((now, value))
            if len(maxdeque) > 1:
                # The head is a maximum the live value no longer holds.
                head_time = maxdeque[0][0]
                if head_time < node.horizon:
                    node.horizon = head_time
                    if head_time < state.horizon:
                        state.horizon = head_time
                if len(maxdeque) > 2 and maxdeque[1][0] < cutoff:
                    head = maxdeque.popleft()
                    while maxdeque[0][0] < cutoff:
                        maxdeque.popleft()
                    maxdeque.appendleft(head)
        self.content_version = version

    #: ``bench/run.py`` times this attribute as its
    #: ``monitoring.aggregate`` layer; nothing in the package calls it.
    on_write = report

    # -- collections that pause past the window --------------------------

    def _pause(self, state: _MeasurementState) -> None:
        """The query's cutoff passed the last collection: every sample
        expired.  Every node leaves (read as version 0, no rows); the
        live series' values wait for the next collection."""
        for nodename, node in state.nodes.items():
            if node.live:
                waiting = state.paused.setdefault(nodename, {})
                for pod_name in node.live:
                    waiting[pod_name] = node.series[pod_name][-1][1]
        state.nodes.clear()
        state.horizon = _INF
        state.paused_at = state.last

    def _close(self, state: _MeasurementState) -> None:
        """Once the first collection after a pause is over, start the
        paused series it did not report anew there, as sampling it
        would have."""
        if not state.paused or state.last <= state.paused_at:
            return
        now = state.last
        for nodename, values in state.paused.items():
            if not values:
                continue  # the collection reported them all
            node = state.nodes.get(nodename)
            if node is None:
                node = state.nodes[nodename] = _NodeState()
            for pod_name, value in values.items():
                node.series[pod_name] = deque([(now, value)])
                node.live[pod_name] = None
            self.content_version += 1
            node.version = self.content_version
        state.paused = {}

    # -- queries ---------------------------------------------------------

    def _expire(self, state: _MeasurementState, cutoff: float) -> None:
        """Walk the nodes whose horizon lapsed at *cutoff*, giving each
        changed node a new version, dropping emptied nodes and
        recomputing the measurement's horizon."""
        horizon = _INF
        empty: List[Optional[str]] = []
        for nodename, node in state.nodes.items():
            if node.horizon < cutoff:
                if node.expire(cutoff):
                    self.content_version += 1
                    node.version = self.content_version
                if not node.series:
                    empty.append(nodename)
                    continue
            if node.horizon < horizon:
                horizon = node.horizon
        for nodename in empty:
            del state.nodes[nodename]
        state.horizon = horizon

    def node_states(
        self, measurement: str, now: float
    ) -> Dict[Optional[str], _NodeState]:
        """*measurement*'s node states, by node name, valid at *now*.

        Walks only the nodes whose horizon lapsed, so every node's
        series are then exactly those alive in ``[now - window, now]``
        and its :meth:`_NodeState.maxima` are Listing 1's rows for it;
        a node absent from the mapping has no rows.  The mapping is the
        store's own: read it before the next write, never change it.

        Raises :class:`~repro.errors.MonitoringError` when *now* lies
        before the last collection or before an earlier query (which
        may already have expired what *now* would see).
        """
        state = self._measurements.get(measurement)
        if state is None:
            return {}  # never collected: no rows
        if now < state.last or now < state.hwm:
            if now < state.last:
                reason = f"the last collection was at t={state.last}"
            else:
                reason = f"a query at t={state.hwm} already expired it"
            raise MonitoringError(
                f"cannot answer {measurement!r} from the window store: "
                f"query at t={now} is too early: {reason}"
            )
        state.hwm = now
        if state.paused:
            self._close(state)
        cutoff = now - METRICS_WINDOW_SECONDS
        if cutoff > state.last and state.nodes:
            self._pause(state)
        elif state.horizon < cutoff:
            self._expire(state, cutoff)
        return state.nodes

    def live_series(self, measurement: str) -> int:
        """Number of series currently tracked for *measurement*."""
        state = self._measurements.get(measurement)
        if state is None:
            return 0
        self._close(state)
        return sum(len(node.series) for node in state.nodes.values())
