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

* a **change log** per measurement: every reported-row change files
  the series' pod name under its node (a new series, a rising
  maximum, an expiry that surfaces a smaller value or kills a series,
  a pause past the window, which files every series, and the restart
  after it); :meth:`~WindowedAggregateCache.drain_changes` hands the
  log over and empties it;
* a **stability horizon** per node: the oldest maximum that can expire
  among the node's series.  While a query's cutoff stays at or below
  it, expiry can change none of the node's rows, so
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
    Iterable,
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

#: Pod names by node name, each insertion-ordered: the series whose
#: window maximum moved.
ChangeLog = Dict[Optional[str], Dict[Optional[str], None]]

_INF = float("inf")

#: Equal to no node name (``None`` included).
_NO_NODE = object()


def file_changes(
    changed: ChangeLog, nodename: Optional[str], pod_names: Iterable
) -> None:
    """File *pod_names* under *nodename* in the change log *changed*."""
    pods = changed.get(nodename)
    if pods is None:
        changed[nodename] = dict.fromkeys(pod_names)
    else:
        pods.update(dict.fromkeys(pod_names))


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
    ``horizon`` is at most the time of every maximum that can expire:
    every ended series' max-deque head, and every live series' head
    that is not its newest entry.  A walk (:meth:`expire`) sets it
    exactly; between walks, an end or a change that leaves an older
    maximum in front lowers it.
    """

    __slots__ = ("series", "live", "horizon")

    def __init__(self) -> None:
        self.series: Dict[Optional[str], _MaxDeque] = {}
        self.live: Dict[Optional[str], None] = {}
        self.horizon = _INF

    def expire(self, cutoff: float) -> List[Optional[str]]:
        """Drop every point older than *cutoff*, and every series left
        without one, and recompute the horizon; returns the series
        whose reported row changed (a smaller maximum surfaced or the
        series died).

        Max-deque values strictly decrease, so a popped head always
        surfaces a smaller maximum; the deque's back is the series'
        newest point, so an emptied deque is a dead series.  A live
        series keeps its newest entry.
        """
        moved: List[Optional[str]] = []
        horizon = _INF
        live = self.live
        series = self.series
        for pod_name, maxdeque in series.items():
            keep = 1 if pod_name in live else 0
            if len(maxdeque) > keep and maxdeque[0][0] < cutoff:
                moved.append(pod_name)
                maxdeque.popleft()
                while len(maxdeque) > keep and maxdeque[0][0] < cutoff:
                    maxdeque.popleft()
                if not maxdeque:
                    continue
            if len(maxdeque) > keep:
                head_time = maxdeque[0][0]
                if head_time < horizon:
                    horizon = head_time
        for pod_name in moved:
            if not series[pod_name]:
                del series[pod_name]
        self.horizon = horizon
        return moved

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
    clock, the validity watermarks and the change log."""

    __slots__ = (
        "nodes", "changed", "horizon", "last", "prev", "hwm", "paused",
        "paused_at",
    )

    def __init__(self) -> None:
        self.nodes: Dict[Optional[str], _NodeState] = {}
        #: The series whose window maximum moved since the last
        #: :meth:`WindowedAggregateCache.drain_changes`.
        self.changed: ChangeLog = {}
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

    __slots__ = ("_measurements",)

    def __init__(self) -> None:
        self._measurements: Dict[str, _MeasurementState] = {}

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
        maximum files nothing).  Entries
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
        changed = state.changed
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
            if not maxdeque or value > maxdeque[0][1]:
                # A new series or a rising maximum.
                file_changes(changed, nodename, (pod_name,))
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

    #: ``bench/run.py`` times this attribute as its
    #: ``monitoring.aggregate`` layer; nothing in the package calls it.
    on_write = report

    # -- collections that pause past the window --------------------------

    def _pause(self, state: _MeasurementState) -> None:
        """The query's cutoff passed the last collection: every sample
        expired.  Every node leaves with every series filed (no rows);
        the live series' values wait for the next collection."""
        for nodename, node in state.nodes.items():
            file_changes(state.changed, nodename, node.series)
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
            file_changes(state.changed, nodename, values)
        state.paused = {}

    # -- queries ---------------------------------------------------------

    def _expire(self, state: _MeasurementState, cutoff: float) -> None:
        """Walk the nodes whose horizon lapsed at *cutoff*, filing each
        series whose row changed, dropping emptied nodes and
        recomputing the measurement's horizon."""
        horizon = _INF
        empty: List[Optional[str]] = []
        for nodename, node in state.nodes.items():
            if node.horizon < cutoff:
                moved = node.expire(cutoff)
                if moved:
                    file_changes(state.changed, nodename, moved)
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
        What the walk changes is filed in the change log, so query
        before :meth:`drain_changes`.

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

    def drain_changes(self, measurement: str) -> ChangeLog:
        """*measurement*'s change log: the series whose window maximum
        appeared, changed or vanished since the last drain, pod names
        by node name, each in the order first filed.  Empties the log.

        A series can be named although its maximum is back where it
        was (a rise that expired again, a series that started and
        died), never omitted when it moved.
        """
        state = self._measurements.get(measurement)
        if state is None or not state.changed:
            return {}
        changed = state.changed
        state.changed = {}
        return changed

    def live_series(self, measurement: str) -> int:
        """Number of series currently tracked for *measurement*."""
        state = self._measurements.get(measurement)
        if state is None:
            return 0
        self._close(state)
        return sum(len(node.series) for node in state.nodes.values())
