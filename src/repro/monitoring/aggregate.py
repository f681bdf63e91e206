"""Sliding-window MAX store: the scheduler's monitoring sink.

The paper's scheduler reads exactly one thing from monitoring: Listing
1's per-pod sliding-window maximum, ``SELECT MAX(value) FROM m WHERE
value <> 0 AND time >= now() - Ws GROUP BY pod_name, nodename``.
:class:`WindowedAggregateCache` keeps, for every ``(measurement,
nodename, pod_name)`` series, that rolling MAX with the classic
monotonic-deque algorithm:

* each sample is absorbed in O(1) amortised time;
* a :meth:`~WindowedAggregateCache.snapshot` answers the query in
  O(live series), never touching stored raw points;
* expiry is lazy (front-of-deque pops at query time).

Series are grouped by node, and every node carries two things that let
the scheduler rebuild only the node views whose rows moved:

* a **version**: the store's monotone
  :attr:`~WindowedAggregateCache.content_version` at the node's last
  reported-row change (a new series, a rising maximum, an expiry that
  surfaces a smaller value or kills a series, or a rebuild);
* a **stability horizon**: the oldest window maximum among the node's
  series.  While a query's cutoff stays at or below it, expiry can
  change none of the node's rows, so
  :meth:`~WindowedAggregateCache.node_states` walks only the nodes
  whose horizon lapsed.

The store runs in one of two modes.

**Standalone** (``db=None``, the orchestrator's default): it *is* the
monitoring sink.  Heapster and the SGX probes hand it one batch of
``(nodename, pod_name, value)`` rows per node per tick through
:meth:`~WindowedAggregateCache.ingest`; no raw series are kept, and
samples no query can reach again are trimmed on ingest, so memory is
bounded by the window rather than by a retention period.  A query it
cannot answer (a ``now`` earlier than absorbed data) raises
:class:`~repro.errors.MonitoringError`: there is no raw series to fall
back to.

**Write-through** over a :class:`~repro.monitoring.tsdb.
TimeSeriesDatabase` (the Listing 1 fidelity path): it subscribes to the
database's writes (``on_write``) and mirrors its retention
(``on_vacuum``), so cache and store never disagree.  Inputs the
incremental algorithm cannot handle keep bit-for-bit equivalence with
the full scan: out-of-order writes mark the measurement dirty (rebuilt
from one scan on the next query), and queries whose ``now`` lies
before absorbed data or already-expired state return ``None``, telling
the caller to run the ordinary full scan.

Both modes apply the same absorption rules, so they report identical
rows, node versions and horizons for the same samples.  The
simulation's monotone clock never takes a fallback path.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import MonitoringError
from .tsdb import Point, SampleRow, TimeSeriesDatabase

logger = logging.getLogger(__name__)

_INF = float("inf")

#: Equal to no node name (``None`` included).
_NO_NODE = object()


@dataclass(frozen=True)
class SeriesAggregate:
    """One live series' window aggregate, as Listing 1 reports it.

    ``max_value`` is the maximum non-zero value in the window;
    ``latest_time`` is the timestamp of the newest contributing point
    (the ``time`` column the InfluxQL executor attaches to each group).
    """

    nodename: Optional[str]
    pod_name: Optional[str]
    max_value: float
    latest_time: float


class _SeriesState:
    """Deques of one ``(measurement, nodename, pod_name)`` series.

    ``times`` holds ``(time, seq)`` for every live non-zero point, in
    arrival order — its front is the series' discovery position in a
    full scan, its back the newest sample.  ``maxdeque`` holds the
    monotonic max structure: times ascending, values strictly
    decreasing, front = window maximum after expiry.
    """

    __slots__ = ("times", "maxdeque")

    def __init__(self) -> None:
        self.times: Deque[Tuple[float, int]] = deque()
        self.maxdeque: Deque[Tuple[float, float]] = deque()


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
        self.series: Dict[Optional[str], _SeriesState] = {}
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
        for pod_name, series in self.series.items():
            maxdeque = series.maxdeque
            if maxdeque[0][0] < cutoff:
                changed = True
                maxdeque.popleft()
                while maxdeque and maxdeque[0][0] < cutoff:
                    maxdeque.popleft()
                if not maxdeque:
                    dead.append(pod_name)
                    continue
            times = series.times
            while times[0][0] < cutoff:
                times.popleft()
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
            pod_name: series.maxdeque[0][1]
            for pod_name, series in self.series.items()
        }


class _MeasurementState:
    """All series of one measurement, by node, plus the validity
    watermarks."""

    __slots__ = (
        "nodes", "horizon", "max_time", "hwm", "vacuum_floor", "dirty"
    )

    def __init__(self, dirty: bool = False) -> None:
        self.nodes: Dict[Optional[str], _NodeState] = {}
        #: At most every node's horizon: while a query's cutoff stays
        #: at or below it, no node needs a walk.
        self.horizon = _INF
        #: Newest non-zero point time absorbed; queries earlier than
        #: this would wrongly see "future" points, so they fall back.
        self.max_time = float("-inf")
        #: Highest query ``now`` served; queries earlier than this may
        #: need already-expired points.
        self.hwm = float("-inf")
        #: Highest retention-vacuum cutoff seen; points below it are
        #: gone from the store, so queries must not serve them.
        self.vacuum_floor = float("-inf")
        self.dirty = dirty


class WindowedAggregateCache:
    """Sliding-window MAX store, standalone or write-through over a TSDB.

    With a *db*, construction subscribes to it (and publishes itself as
    ``db.aggregate_cache`` so the InfluxQL executor's fast path can find
    it); measurements already holding points are marked dirty and
    rebuilt from one scan on first use.  With ``db=None`` the store is
    standalone and fed through :meth:`ingest`.

    Parameters
    ----------
    db:
        The database to mirror, or ``None`` for a standalone store.
    window_seconds:
        The sliding-window length; must match the ``now() - Ws`` bound
        of the queries the cache is meant to answer.
    """

    def __init__(
        self, db: Optional[TimeSeriesDatabase], window_seconds: float
    ):
        if window_seconds <= 0:
            raise MonitoringError(
                f"window must be positive, got {window_seconds}"
            )
        self.db = db
        self.window_seconds = window_seconds
        self._measurements: Dict[str, _MeasurementState] = {}
        self._seq = 0
        self._detached = False
        # Stats: queries answered, fallbacks to full scan, rebuilds.
        self.hits = 0
        self.fallbacks = 0
        self.rebuilds = 0
        #: Bumped at every reported-row change of any node (see
        #: :class:`_NodeState`); each node keeps the value of its last
        #: one as its version.  Writes that merely refresh an unchanged
        #: maximum (steady-state probes) bump nothing.
        self.content_version = 0
        if db is None:
            return
        # One write-through cache per database: a displaced cache would
        # either absorb every write twice (if left subscribed) or serve
        # stale windows (if silently unsubscribed), so replace it
        # explicitly — it detaches and declines all future queries.
        existing = getattr(db, "aggregate_cache", None)
        if existing is not None:
            logger.warning(
                "replacing aggregate cache (window %ss) with a new one "
                "(window %ss); holders of the old cache fall back to "
                "full window scans",
                existing.window_seconds, window_seconds,
            )
            existing.detach()
        for measurement in db.measurements():
            self._measurements[measurement] = _MeasurementState(dirty=True)
        db.subscribe(self)
        db.aggregate_cache = self

    def detach(self) -> None:
        """Stop mirroring the database and stop answering queries.

        Idempotent.  Holders of a detached cache fall back to the full
        scan on every query (queries return ``None``), which stays
        correct — a detached cache never serves stale windows.  A
        detached standalone store has nothing to fall back to, so its
        queries raise instead.
        """
        if self._detached:
            return
        self._detached = True
        if self.db is not None:
            self.db.unsubscribe(self)
        self._measurements.clear()

    # -- the standalone sink ---------------------------------------------

    def ingest(
        self, measurement: str, now: float, rows: Sequence[SampleRow]
    ) -> None:
        """Absorb one batch of ``(nodename, pod_name, value)`` samples
        taken at *now* — one node's tick from one collector.

        Applies exactly :meth:`on_write`'s absorption rules row by row
        (zero values are not retained, each retained row takes one
        ``seq``, a new series or a rising maximum is a change of its
        node, a new maximum lowers the horizons), so the store reports
        what per-point absorption through a database would.  On top,
        samples no query can reach again are trimmed: queries earlier
        than absorbed data are refused, so nothing older than ``now -
        window`` is ever served.  The maximum deque keeps its head (the
        head decides the rising-max changes and the expiry walks'
        change test) and drops only the expired entries behind it, so
        what every query reports is unchanged while memory stays
        bounded by the window.
        """
        if self.db is not None:
            raise MonitoringError(
                "this cache mirrors a database; ingest into the database"
            )
        if not rows:
            return
        state = self._measurements.get(measurement)
        if state is None:
            state = self._measurements[measurement] = _MeasurementState()
        nodes = state.nodes
        cutoff = now - self.window_seconds
        seq = self._seq
        version = self.content_version
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
                series = node_series.get(pod_name)
                if series is None:
                    series = node_series[pod_name] = _SeriesState()
                    version += 1
                    node.version = version
                times = series.times
                if times and now < times[-1][0]:
                    raise MonitoringError(
                        f"{measurement!r} sample for "
                        f"{(nodename, pod_name)} at t={now} is older "
                        f"than the series' newest at t={times[-1][0]}"
                    )
                maxdeque = series.maxdeque
                if maxdeque and value > maxdeque[0][1]:
                    version += 1
                    node.version = version
                times.append((now, seq))
                seq += 1
                while maxdeque and maxdeque[-1][1] <= value:
                    maxdeque.pop()
                if lowers and not maxdeque:
                    # The sample is the series' new window maximum.
                    node.horizon = now
                    lowers = False
                    if now < state.horizon:
                        state.horizon = now
                maxdeque.append((now, value))
                while times[0][0] < cutoff:
                    times.popleft()
                if len(maxdeque) > 2 and maxdeque[1][0] < cutoff:
                    head = maxdeque.popleft()
                    while maxdeque[0][0] < cutoff:
                        maxdeque.popleft()
                    maxdeque.appendleft(head)
        finally:
            # Rows absorbed before a refused one stay absorbed.
            if seq != self._seq and now > state.max_time:
                state.max_time = now
            self._seq = seq
            self.content_version = version

    # -- subscriber interface (driven by the TSDB) -----------------------

    def on_write(self, measurement: str, point: Point) -> None:
        """Absorb one appended point.  O(1) amortised."""
        state = self._measurements.get(measurement)
        if state is None:
            state = self._measurements[measurement] = _MeasurementState()
        value = point.value
        if value == 0.0:
            # Listing 1 filters ``value <> 0``; zero samples can never
            # contribute to a window max, so they are not retained.
            return
        time = point.time
        if time > state.max_time:
            state.max_time = time
        if time < state.vacuum_floor:
            # The store keeps this point (vacuums only drop what was
            # present at vacuum time) but the lazy floor would expire
            # it; rebuild from the store rather than serve a mismatch.
            state.dirty = True
            return
        tags = point.tags
        if (
            len(tags) == 2
            and tags[0][0] == "nodename"
            and tags[1][0] == "pod_name"
        ):
            # The collectors' exact tag shape, pre-sorted: skip the
            # two linear tag() scans on the per-write path.
            nodename, pod_name = tags[0][1], tags[1][1]
        else:
            nodename = point.tag("nodename")
            pod_name = point.tag("pod_name")
        node = state.nodes.get(nodename)
        if node is None:
            node = state.nodes[nodename] = _NodeState()
        series = node.series.get(pod_name)
        if series is None:
            series = node.series[pod_name] = _SeriesState()
            self.content_version += 1
            node.version = self.content_version
        elif series.times and time < series.times[-1][0]:
            # Out-of-order arrival: the monotonic deque cannot absorb
            # it incrementally; rebuild lazily from the store.
            state.dirty = True
            return
        maxdeque = series.maxdeque
        if maxdeque and value > maxdeque[0][1]:
            # The window maximum rises: reported rows change.  A write
            # at or below the current max only refreshes the deque.
            self.content_version += 1
            node.version = self.content_version
        seq = self._seq
        self._seq = seq + 1
        series.times.append((time, seq))
        while maxdeque and maxdeque[-1][1] <= value:
            maxdeque.pop()
        if not maxdeque and time < node.horizon:
            node.horizon = time
            if time < state.horizon:
                state.horizon = time
        maxdeque.append((time, value))

    def on_vacuum(self, cutoff: float) -> None:
        """Mirror a retention vacuum — lazily.

        Auto-vacuums fire every 256 writes; walking every series each
        time would swamp the O(1)-per-write absorption.  Instead the
        cutoff is recorded and raises every later query's cutoff: a cut
        into the window lies above the horizon of each node it reaches,
        so the next query walks exactly those nodes.
        """
        for state in self._measurements.values():
            if cutoff > state.vacuum_floor:
                state.vacuum_floor = cutoff

    def on_drop(self, measurement: str) -> None:
        """Mirror a dropped measurement."""
        self._measurements.pop(measurement, None)

    # -- queries ---------------------------------------------------------

    def _serve(
        self, measurement: str, now: float
    ) -> Optional[Tuple[_MeasurementState, float]]:
        """The measurement's state and the query cutoff at *now*.

        ``None`` means the cache cannot guarantee equivalence with a
        full scan — *now* earlier than absorbed data or than a previous
        query — and the caller must fall back.
        """
        if self._detached:
            return self._decline(measurement, "the store is detached")
        state = self._measurements.get(measurement)
        if state is None:
            if self.db is not None and self.db.count(measurement) != 0:
                # Data exists the cache never saw (defensive;
                # construction marks pre-existing measurements dirty).
                self.fallbacks += 1
                return None
            state = _MeasurementState()  # nothing absorbed: no rows
        if state.dirty:
            self._rebuild(measurement, state)
        if now < state.max_time or now < state.hwm:
            if now < state.max_time:
                reason = f"data was absorbed up to t={state.max_time}"
            else:
                reason = f"a query at t={state.hwm} already expired it"
            return self._decline(
                measurement, f"query at t={now} is too early: {reason}"
            )
        state.hwm = now
        self.hits += 1
        cutoff = now - self.window_seconds
        if state.vacuum_floor > cutoff:
            # Retention cut inside the window: the store no longer has
            # those points, so the cache must not serve them either.
            cutoff = state.vacuum_floor
        return state, cutoff

    def _expire(
        self, state: _MeasurementState, cutoff: float, every_node: bool
    ) -> None:
        """Walk the nodes whose horizon lapsed (or *every_node*) at
        *cutoff*, giving each changed node a new version, dropping
        emptied nodes and recomputing the measurement's horizon."""
        horizon = _INF
        empty: List[Optional[str]] = []
        for nodename, node in state.nodes.items():
            if every_node or node.horizon < cutoff:
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
    ) -> Optional[Dict[Optional[str], _NodeState]]:
        """*measurement*'s node states, by node name, valid at *now*.

        Walks only the nodes whose horizon lapsed, so every node's
        series are then exactly those alive in ``[now - window, now]``
        and its :meth:`_NodeState.maxima` are Listing 1's rows for it;
        a node absent from the mapping has no rows.  The mapping is the
        store's own: read it before the next write, never change it.
        ``None`` means fall back to the full scan (see :meth:`_serve`).
        """
        served = self._serve(measurement, now)
        if served is None:
            return None
        state, cutoff = served
        if state.horizon < cutoff:
            self._expire(state, cutoff, every_node=False)
        return state.nodes

    def snapshot(
        self, measurement: str, now: float
    ) -> Optional[List[SeriesAggregate]]:
        """Window aggregates of *measurement* at *now*, or ``None``.

        Returns one :class:`SeriesAggregate` per series with at least
        one non-zero point in ``[now - window, now]``, ordered exactly
        as a full InfluxQL scan discovers the groups (by each series'
        oldest in-window point, so every series is expired).  ``None``
        tells the caller to run the full scan instead (see
        :meth:`_serve`).
        """
        served = self._serve(measurement, now)
        if served is None:
            return None
        state, cutoff = served
        self._expire(state, cutoff, every_node=True)
        live = [
            (nodename, pod_name, series)
            for nodename, node in state.nodes.items()
            for pod_name, series in node.series.items()
        ]
        live.sort(key=lambda entry: entry[2].times[0])
        return [
            SeriesAggregate(
                nodename=nodename,
                pod_name=pod_name,
                max_value=series.maxdeque[0][1],
                latest_time=series.times[-1][0],
            )
            for nodename, pod_name, series in live
        ]

    def live_series(self, measurement: str) -> int:
        """Number of series currently tracked for *measurement*."""
        state = self._measurements.get(measurement)
        if state is None:
            return 0
        return sum(len(node.series) for node in state.nodes.values())

    # -- internals -------------------------------------------------------

    def _decline(self, measurement: str, reason: str) -> None:
        """Tell the caller to fall back to the full scan — or, for a
        standalone store, which has no raw series to scan, raise."""
        if self.db is None:
            raise MonitoringError(
                f"cannot answer {measurement!r} from the window store: "
                f"{reason}"
            )
        self.fallbacks += 1
        return None

    def _rebuild(self, measurement: str, state: _MeasurementState) -> None:
        """Reconstruct a measurement's deques from one full scan.

        Replays the stored points through :meth:`on_write` so rebuilt
        state follows exactly the incremental absorption rules (every
        node comes back with a new version); the scan is time-sorted,
        so the out-of-order branch never fires.
        """
        state.nodes = {}
        state.horizon = _INF
        state.max_time = float("-inf")
        state.hwm = float("-inf")
        # The store is ground truth: whatever a past vacuum dropped is
        # already absent from the scan, so no floor needs reapplying.
        state.vacuum_floor = float("-inf")
        state.dirty = False
        self.rebuilds += 1
        assert self.db is not None  # only a mirror is ever dirty
        for point in self.db.scan(measurement):
            self.on_write(measurement, point)
