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

Series are grouped by node, and two things let the scheduler update
only the pods whose rows moved:

* a **change log**: every reported-row change of either measurement
  files the series' pod name under its node (a new series, a rising
  maximum, an expiry that surfaces a smaller value or kills a series,
  a pause past the window, which files every series, and the restart
  after it) in :attr:`~WindowedAggregateCache.changes`, the one log
  the kubelets and the scheduler's state service share, which the
  service empties;
* a **time index** per measurement: a heap of the maxima that can
  expire, oldest first.  A query pops only the entries older than its
  cutoff and expires their series, so its cost follows the rows that
  move, not the series the store holds.

A query or report the store cannot answer (a ``now`` earlier than the
last collection, or a query earlier than an earlier query) raises
:class:`~repro.errors.MonitoringError`: there is no raw series to fall
back to.  The simulation's monotone clock never makes one.  Listing 1
itself, run by an InfluxQL engine over a time-series database that
receives every pod's sample at every collection, is the reference the
tests compare every view build with.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
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

#: Pod names by node name, each insertion-ordered: the pods whose
#: share of their node's view may have moved.
ChangeLog = Dict[Optional[str], Dict[Optional[str], None]]

#: One time-index entry: ``(head time, sequence number, nodename,
#: pod_name)``.  The sequence number breaks ties, so names are never
#: compared.
_IndexEntry = Tuple[float, int, Optional[str], Optional[str]]

#: Equal to no node name (``None`` included).
_NO_NODE = object()


def file_change(
    changes: ChangeLog, nodename: Optional[str], pod_name: Optional[str]
) -> None:
    """File *pod_name* under *nodename* in the change log *changes*."""
    pods = changes.get(nodename)
    if pods is None:
        changes[nodename] = {pod_name: None}
    else:
        pods[pod_name] = None


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
    collection and never expires while collections continue.  Every
    other head can expire: an ended series' head, and a live series'
    head that is not its newest entry; the measurement's time index
    holds an entry at or before each.
    """

    __slots__ = ("series", "live")

    def __init__(self) -> None:
        self.series: Dict[Optional[str], _MaxDeque] = {}
        self.live: Dict[Optional[str], None] = {}

    def maxima(self) -> Dict[Optional[str], float]:
        """Each series' window maximum, by pod name (valid right after
        :meth:`WindowedAggregateCache.node_states`)."""
        return {
            pod_name: maxdeque[0][1]
            for pod_name, maxdeque in self.series.items()
        }

    def maximum(self, pod_name: Optional[str]) -> Optional[float]:
        """*pod_name*'s window maximum, or ``None`` without a row
        (valid as :meth:`maxima`)."""
        maxdeque = self.series.get(pod_name)
        return None if maxdeque is None else maxdeque[0][1]


class _MeasurementState:
    """All series of one measurement, by node, plus the collection
    clock, the validity watermarks and the time index."""

    __slots__ = (
        "nodes", "index", "last", "prev", "hwm", "paused", "paused_at",
    )

    def __init__(self) -> None:
        self.nodes: Dict[Optional[str], _NodeState] = {}
        #: A heap with an entry at or before every head that can expire
        #: (see :class:`_NodeState`).  An entry whose head has since
        #: gone is stale: popping it expires nothing.
        self.index: List[_IndexEntry] = []
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

    __slots__ = ("_measurements", "changes", "_seq")

    def __init__(self) -> None:
        self._measurements: Dict[str, _MeasurementState] = {}
        #: The change log both measurements file into: the series whose
        #: window maximum appeared, changed or vanished, pod names by
        #: node name, each in the order first filed.  A series can be
        #: named although its maximum is back where it was (a rise that
        #: expired again, a series that started and died), never
        #: omitted when it moved.  The orchestrator hands it to its
        #: kubelets, which file their admissions and teardowns here
        #: too; its reader empties it.
        self.changes: ChangeLog = {}
        #: Numbers the time-index entries (see :data:`_IndexEntry`).
        self._seq = itertools.count()

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
        series or a rising maximum is filed in the change log (a
        change that merely lowers a live series below its window
        maximum files nothing).  A head that stops being its series'
        newest entry, or whose series ends, joins the time index.
        Entries behind the deque's head that no query can reach again
        are trimmed.  A value-0 row for a series that is not live
        changes nothing (Listing 1 filters ``value <> 0``).

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
        changes = self.changes
        index = state.index
        seq = self._seq
        paused = state.paused
        prev = state.prev
        cutoff = now - METRICS_WINDOW_SECONDS
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
                # Until now the newest entry held the head back.
                held = len(maxdeque) == 1
                if not value:
                    # An end: the series' maxima can expire from now on.
                    del node.live[pod_name]
                    if held:
                        heappush(
                            index,
                            (maxdeque[0][0], next(seq), nodename, pod_name),
                        )
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
                # An ended series' head is indexed already.
                held = False
            if not maxdeque or value > maxdeque[0][1]:
                # A new series or a rising maximum.
                file_change(changes, nodename, pod_name)
            elif held and value < maxdeque[0][1]:
                # The head outlives the value that held it back.
                heappush(
                    index, (maxdeque[0][0], next(seq), nodename, pod_name)
                )
            while maxdeque and maxdeque[-1][1] <= value:
                maxdeque.pop()
            maxdeque.append((now, value))
            if len(maxdeque) > 2 and maxdeque[1][0] < cutoff:
                head = maxdeque.popleft()
                while maxdeque[0][0] < cutoff:
                    maxdeque.popleft()
                maxdeque.appendleft(head)

    #: ``bench/run.py`` times this attribute as its
    #: ``monitoring.aggregate`` layer; nothing in the package calls it.
    on_write = report

    # -- collections that pause past the window --------------------------

    def _pause(self, state: _MeasurementState) -> None:
        """The query's cutoff passed the last collection: every sample
        expired.  Every node leaves with every series filed (no rows)
        and the index empties; the live series' values wait for the
        next collection."""
        changes = self.changes
        for nodename, node in state.nodes.items():
            changes.setdefault(nodename, {}).update(dict.fromkeys(node.series))
            if node.live:
                waiting = state.paused.setdefault(nodename, {})
                for pod_name in node.live:
                    waiting[pod_name] = node.series[pod_name][-1][1]
        state.nodes.clear()
        state.index.clear()
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
            self.changes.setdefault(nodename, {}).update(dict.fromkeys(values))
        state.paused = {}

    # -- queries ---------------------------------------------------------

    def _expire(self, state: _MeasurementState, cutoff: float) -> None:
        """Pop the index entries older than *cutoff*, expiring each
        one's series, filing it and indexing its next head that can
        expire; a stale entry expires nothing and is dropped.

        Max-deque values strictly decrease, so a popped head always
        surfaces a smaller maximum; the deque's back is the series'
        newest point, so an emptied deque is a dead series, and its
        node leaves with its last series.  A live series keeps its
        newest entry.
        """
        index = state.index
        nodes = state.nodes
        changes = self.changes
        seq = self._seq
        while index and index[0][0] < cutoff:
            _, _, nodename, pod_name = heappop(index)
            node = nodes.get(nodename)
            if node is None:
                continue  # stale: the node left with its last series
            maxdeque = node.series.get(pod_name)
            if maxdeque is None:
                continue  # stale: the series died
            keep = 1 if pod_name in node.live else 0
            if len(maxdeque) <= keep or maxdeque[0][0] >= cutoff:
                continue  # stale: the head it named has gone
            maxdeque.popleft()
            while len(maxdeque) > keep and maxdeque[0][0] < cutoff:
                maxdeque.popleft()
            file_change(changes, nodename, pod_name)
            if len(maxdeque) > keep:
                heappush(
                    index, (maxdeque[0][0], next(seq), nodename, pod_name)
                )
            elif not maxdeque:
                del node.series[pod_name]
                if not node.series:
                    del nodes[nodename]

    def node_states(
        self, measurement: str, now: float
    ) -> Dict[Optional[str], _NodeState]:
        """*measurement*'s node states, by node name, valid at *now*.

        Expires only the series the time index names before the
        window's cutoff, so every node's series are then exactly those
        alive in ``[now - window, now]`` and its
        :meth:`_NodeState.maxima` are Listing 1's rows for it; a node
        absent from the mapping has no rows.  The mapping is the
        store's own: read it before the next write, never change it.
        What the expiry changes is filed in :attr:`changes`, so query
        before reading the log.

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
        elif state.index and state.index[0][0] < cutoff:
            self._expire(state, cutoff)
        return state.nodes

    def live_series(self, measurement: str) -> int:
        """Number of series currently tracked for *measurement*."""
        state = self._measurements.get(measurement)
        if state is None:
            return 0
        self._close(state)
        return sum(len(node.series) for node in state.nodes.values())
