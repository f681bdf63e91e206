"""Sliding-window MAX store: the scheduler's monitoring sink.

The paper's scheduler reads exactly one thing from monitoring: Listing
1's per-pod sliding-window maximum, ``SELECT MAX(value) FROM m WHERE
value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename``.
:class:`WindowedAggregateCache` keeps, for every ``(measurement,
nodename, pod_name)`` series, that rolling MAX with the classic
monotonic-deque algorithm:

* Heapster and the SGX probes hand it one batch of ``(nodename,
  pod_name, value)`` rows per node per tick through
  :meth:`~WindowedAggregateCache.ingest`, each absorbed in O(1)
  amortised time;
* no raw series are kept: samples no query can reach again are trimmed
  on ingest, so memory is bounded by the window;
* expiry is lazy (front-of-deque pops at query time).

Series are grouped by node, and every node carries two things that let
the scheduler rebuild only the node views whose rows moved:

* a **version**: the store's monotone
  :attr:`~WindowedAggregateCache.content_version` at the node's last
  reported-row change (a new series, a rising maximum, or an expiry
  that surfaces a smaller value or kills a series);
* a **stability horizon**: the oldest window maximum among the node's
  series.  While a query's cutoff stays at or below it, expiry can
  change none of the node's rows, so
  :meth:`~WindowedAggregateCache.node_states` walks only the nodes
  whose horizon lapsed.

A query the store cannot answer (a ``now`` earlier than absorbed data
or than an earlier query) raises :class:`~repro.errors.MonitoringError`:
there is no raw series to fall back to.  The simulation's monotone
clock never asks one.  Listing 1 itself, run by an InfluxQL engine
over a time-series database, is the reference the tests compare every
view build with.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Protocol, Sequence, Tuple

from ..constants import METRICS_WINDOW_SECONDS
from ..errors import MonitoringError

#: One collected sample: ``(nodename, pod_name, value)``.
SampleRow = Tuple[str, str, float]

#: One series' monotonic max structure: ``(time, value)`` pairs, times
#: ascending and values strictly decreasing.  The front is the window
#: maximum after expiry; the back is the series' newest sample.
_MaxDeque = Deque[Tuple[float, float]]

_INF = float("inf")

#: Equal to no node name (``None`` included).
_NO_NODE = object()


class MetricsSink(Protocol):
    """Where collectors send samples, one batch per node per tick."""

    def ingest(
        self, measurement: str, now: float, rows: Sequence[SampleRow]
    ) -> None:
        """Absorb *rows*, all sampled at *now*, into *measurement*."""
        ...  # pragma: no cover - protocol


class _NodeState:
    """One node's series of one measurement, keyed by pod name.

    ``version`` is the store's content version at the node's last
    reported-row change.  The counter never goes back and starts at 0,
    so a node state deleted and created again never repeats a version,
    and callers may read a node without state as version 0 (no rows).
    ``horizon`` is at most the time of every series' window maximum
    (its max-deque head): expiry at a cutoff at or below it pops no
    head and kills no series.  A walk (:meth:`expire`) sets it exactly;
    between walks, a sample that becomes a series' maximum lowers it.
    """

    __slots__ = ("series", "version", "horizon")

    def __init__(self) -> None:
        self.series: Dict[Optional[str], _MaxDeque] = {}
        self.version = 0
        self.horizon = _INF

    def expire(self, cutoff: float) -> bool:
        """Drop every point older than *cutoff*, and every series left
        without one, and recompute the horizon; ``True`` when a
        reported row changed (a smaller maximum surfaced or a series
        died).

        Max-deque values strictly decrease, so a popped head always
        surfaces a smaller maximum; the deque's back is the series'
        newest point, so an emptied deque is a dead series.
        """
        changed = False
        horizon = _INF
        dead: List[Optional[str]] = []
        for pod_name, maxdeque in self.series.items():
            if maxdeque[0][0] < cutoff:
                changed = True
                maxdeque.popleft()
                while maxdeque and maxdeque[0][0] < cutoff:
                    maxdeque.popleft()
                if not maxdeque:
                    dead.append(pod_name)
                    continue
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
    """All series of one measurement, by node, plus the validity
    watermarks."""

    __slots__ = ("nodes", "horizon", "max_time", "hwm")

    def __init__(self) -> None:
        self.nodes: Dict[Optional[str], _NodeState] = {}
        #: At most every node's horizon: while a query's cutoff stays
        #: at or below it, no node needs a walk.
        self.horizon = _INF
        #: Newest non-zero sample time absorbed; queries earlier than
        #: this would wrongly see "future" samples, so they are refused.
        self.max_time = float("-inf")
        #: Highest query ``now`` served; queries earlier than this may
        #: need already-expired samples.
        self.hwm = float("-inf")


class WindowedAggregateCache:
    """Sliding-window MAX store over Listing 1's 25 s window
    (:data:`~repro.constants.METRICS_WINDOW_SECONDS`), fed by
    :meth:`ingest`."""

    __slots__ = ("_measurements", "content_version")

    def __init__(self) -> None:
        self._measurements: Dict[str, _MeasurementState] = {}
        #: Bumped at every reported-row change of any node (see
        #: :class:`_NodeState`); each node keeps the value of its last
        #: one as its version.  Samples that merely refresh an unchanged
        #: maximum (steady-state probes) bump nothing.
        self.content_version = 0

    def ingest(
        self, measurement: str, now: float, rows: Sequence[SampleRow]
    ) -> None:
        """Absorb one batch of ``(nodename, pod_name, value)`` samples
        taken at *now* — one node's tick from one collector.

        Zero values are not retained (Listing 1 filters ``value <>
        0``), a new series or a rising maximum is a change of its node,
        and a new maximum lowers the horizons.  Samples no query can
        reach again are trimmed: queries earlier than absorbed data are
        refused, so nothing older than ``now - window`` is ever served.
        The maximum deque keeps its head (the head decides the
        rising-max changes and the expiry walks' change test) and drops
        only the expired entries behind it, so what every query reports
        is unchanged while memory stays bounded by the window.
        """
        if not rows:
            return
        state = self._measurements.get(measurement)
        if state is None:
            state = self._measurements[measurement] = _MeasurementState()
        nodes = state.nodes
        cutoff = now - METRICS_WINDOW_SECONDS
        version = self.content_version
        absorbed = False
        node_name: object = _NO_NODE
        # The batch's rows share one time, so the batch lowers a node's
        # horizon at most once: to *now*, if that is below it.
        lowers = False
        try:
            for nodename, pod_name, value in rows:
                if value == 0.0:
                    # Listing 1 filters ``value <> 0``: never a max.
                    continue
                if nodename != node_name:
                    # A batch is one node's: look it up once.
                    node = nodes.get(nodename)
                    if node is None:
                        node = nodes[nodename] = _NodeState()
                    node_name = nodename
                    node_series = node.series
                    lowers = now < node.horizon
                maxdeque = node_series.get(pod_name)
                if maxdeque is None:
                    maxdeque = node_series[pod_name] = deque()
                    version += 1
                    node.version = version
                elif now < maxdeque[-1][0]:
                    raise MonitoringError(
                        f"{measurement!r} sample for "
                        f"{(nodename, pod_name)} at t={now} is older "
                        f"than the series' newest at t={maxdeque[-1][0]}"
                    )
                elif value > maxdeque[0][1]:
                    version += 1
                    node.version = version
                absorbed = True
                while maxdeque and maxdeque[-1][1] <= value:
                    maxdeque.pop()
                if lowers and not maxdeque:
                    # The sample is the series' new window maximum.
                    node.horizon = now
                    lowers = False
                    if now < state.horizon:
                        state.horizon = now
                maxdeque.append((now, value))
                if len(maxdeque) > 2 and maxdeque[1][0] < cutoff:
                    head = maxdeque.popleft()
                    while maxdeque[0][0] < cutoff:
                        maxdeque.popleft()
                    maxdeque.appendleft(head)
        finally:
            # Rows absorbed before a refused one stay absorbed.
            if absorbed and now > state.max_time:
                state.max_time = now
            self.content_version = version

    #: ``bench/run.py`` times this attribute as its
    #: ``monitoring.aggregate`` layer; nothing in the package calls it.
    on_write = ingest

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
        before absorbed data or before an earlier query (which may
        already have expired what *now* would see).
        """
        state = self._measurements.get(measurement)
        if state is None:
            return {}  # nothing absorbed: no rows
        if now < state.max_time or now < state.hwm:
            if now < state.max_time:
                reason = f"data was absorbed up to t={state.max_time}"
            else:
                reason = f"a query at t={state.hwm} already expired it"
            raise MonitoringError(
                f"cannot answer {measurement!r} from the window store: "
                f"query at t={now} is too early: {reason}"
            )
        state.hwm = now
        cutoff = now - METRICS_WINDOW_SECONDS
        if state.horizon < cutoff:
            self._expire(state, cutoff)
        return state.nodes

    def live_series(self, measurement: str) -> int:
        """Number of series currently tracked for *measurement*."""
        state = self._measurements.get(measurement)
        if state is None:
            return 0
        return sum(len(node.series) for node in state.nodes.values())
