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
* expiry is lazy (front-of-deque pops at snapshot time).

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
from one scan on the next snapshot), and queries whose ``now`` lies
before absorbed data or already-expired state return ``None`` from
:meth:`~WindowedAggregateCache.snapshot`, telling the caller to run the
ordinary full scan.

Both modes apply the same absorption rules, so they report identical
rows, content versions and stability horizons for the same samples.
The simulation's monotone clock never takes a fallback path.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import MonitoringError
from .tsdb import Point, SampleRow, TimeSeriesDatabase

logger = logging.getLogger(__name__)

#: Series key: ``(nodename, pod_name)`` tag values (either may be None
#: when a point lacks the tag, mirroring the executor's GROUP BY).
SeriesKey = Tuple[Optional[str], Optional[str]]


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

    def expire(self, cutoff: float) -> None:
        """Drop points with ``time < cutoff`` from both deques."""
        times = self.times
        while times and times[0][0] < cutoff:
            times.popleft()
        maxdeque = self.maxdeque
        while maxdeque and maxdeque[0][0] < cutoff:
            maxdeque.popleft()


class _MeasurementState:
    """All series of one measurement plus the validity watermarks."""

    __slots__ = (
        "series", "max_time", "hwm", "vacuum_floor", "dirty", "stable_until"
    )

    def __init__(self, dirty: bool = False) -> None:
        self.series: Dict[SeriesKey, _SeriesState] = {}
        #: Newest non-zero point time absorbed; queries earlier than
        #: this would wrongly see "future" points, so they fall back.
        self.max_time = float("-inf")
        #: Highest snapshot ``now`` whose expiry mutated the deques;
        #: queries earlier than this may need already-expired points.
        self.hwm = float("-inf")
        #: Highest retention-vacuum cutoff seen; points below it are
        #: gone from the store, so snapshots must not serve them.
        self.vacuum_floor = float("-inf")
        self.dirty = dirty
        #: Earliest future instant at which window expiry alone could
        #: change this measurement's reported rows (a masked smaller
        #: value surfacing, or a series aging out entirely).  Computed
        #: by each snapshot; ``-inf`` means "unknown — don't trust it".
        self.stable_until = float("-inf")


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
        # Stats: snapshots answered, fallbacks to full scan, rebuilds.
        self.hits = 0
        self.fallbacks = 0
        self.rebuilds = 0
        #: Bumped whenever absorbed writes could change the rows a
        #: future snapshot reports: a new series, a write raising a
        #: series' window max, anything that marks state dirty, a
        #: rebuild, a drop, or a vacuum cutting into an observed
        #: window.  Together with :meth:`stable_until` this lets the
        #: scheduler's skip-clean check prove "the measured view is
        #: identical to the previous pass" in O(1) — writes that merely
        #: refresh an unchanged maximum (steady-state probes) do not
        #: bump it.
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
        scan on every query (snapshots return ``None``), which stays
        correct — a detached cache never serves stale windows.  A
        detached standalone store has nothing to fall back to, so its
        queries raise instead.
        """
        if self._detached:
            return
        self._detached = True
        self.content_version += 1
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
        ``seq``, a new series or a rising maximum bumps
        :attr:`content_version`), so the store reports what per-point
        absorption through a database would.  On top, samples no query
        can reach again are trimmed: queries earlier than absorbed data
        are refused, so nothing older than ``now - window`` is ever
        served.  The maximum deque keeps its head (the head decides the
        rising-max bumps and :meth:`revalidate`'s change test) and drops
        only the expired entries behind it, so what every query reports
        is unchanged while memory stays bounded by the window.
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
        all_series = state.series
        cutoff = now - self.window_seconds
        seq = self._seq
        version = self.content_version
        try:
            for nodename, pod_name, value in rows:
                if value == 0.0:
                    # Listing 1 filters ``value <> 0``: never a max.
                    continue
                key = (nodename, pod_name)
                series = all_series.get(key)
                if series is None:
                    series = all_series[key] = _SeriesState()
                    version += 1
                times = series.times
                if times and now < times[-1][0]:
                    raise MonitoringError(
                        f"{measurement!r} sample for {key} at t={now} is "
                        f"older than the series' newest at "
                        f"t={times[-1][0]}"
                    )
                maxdeque = series.maxdeque
                if maxdeque and value > maxdeque[0][1]:
                    version += 1
                times.append((now, seq))
                seq += 1
                while maxdeque and maxdeque[-1][1] <= value:
                    maxdeque.pop()
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
            state = _MeasurementState()
            self._measurements[measurement] = state
        if point.value == 0.0:
            # Listing 1 filters ``value <> 0``; zero samples can never
            # contribute to a window max, so they are not retained.
            return
        if point.time > state.max_time:
            state.max_time = point.time
        if point.time < state.vacuum_floor:
            # The store keeps this point (vacuums only drop what was
            # present at vacuum time) but the lazy floor would expire
            # it; rebuild from the store rather than serve a mismatch.
            state.dirty = True
            self.content_version += 1
            return
        tags = point.tags
        if (
            len(tags) == 2
            and tags[0][0] == "nodename"
            and tags[1][0] == "pod_name"
        ):
            # The collectors' exact tag shape, pre-sorted: skip the
            # two linear tag() scans on the per-write path.
            key = (tags[0][1], tags[1][1])
        else:
            key = (point.tag("nodename"), point.tag("pod_name"))
        series = state.series.get(key)
        if series is None:
            series = _SeriesState()
            state.series[key] = series
            self.content_version += 1
        if series.times and point.time < series.times[-1][0]:
            # Out-of-order arrival: the monotonic deque cannot absorb
            # it incrementally; rebuild lazily from the store.
            state.dirty = True
            self.content_version += 1
            return
        if series.maxdeque and point.value > series.maxdeque[0][1]:
            # The window maximum rises: reported rows change.  A write
            # at or below the current max only refreshes the deque.
            self.content_version += 1
        self._push(series, point)

    def on_vacuum(self, cutoff: float) -> None:
        """Mirror a retention vacuum — lazily.

        Auto-vacuums fire every 256 writes; walking every series each
        time would swamp the O(1)-per-write absorption.  Instead the
        cutoff is recorded and folded into the next snapshot's expiry,
        which already walks exactly the live series once.
        """
        for state in self._measurements.values():
            if cutoff > state.vacuum_floor:
                state.vacuum_floor = cutoff
                if cutoff > state.hwm - self.window_seconds:
                    # The cut reaches into windows at or after the last
                    # observed snapshot: reported rows may change.
                    self.content_version += 1

    def on_drop(self, measurement: str) -> None:
        """Mirror a dropped measurement."""
        if self._measurements.pop(measurement, None) is not None:
            self.content_version += 1

    # -- queries ---------------------------------------------------------

    def _live_series(
        self, measurement: str, now: float, ordered: bool
    ) -> Optional[List[Tuple[SeriesKey, _SeriesState]]]:
        """Expire and return the series alive in ``[now - window, now]``.

        ``None`` means the cache cannot guarantee equivalence with a
        full scan — *now* earlier than absorbed data or than a previous
        snapshot's expiry — and the caller must fall back.  With
        ``ordered`` the result follows full-scan group-discovery order
        (by each series' oldest in-window point).
        """
        if self._detached:
            return self._decline(measurement, "the store is detached")
        state = self._measurements.get(measurement)
        if state is None:
            if self.db is None or self.db.count(measurement) == 0:
                self.hits += 1
                return []
            # Data exists the cache never saw (defensive; construction
            # marks pre-existing measurements dirty).
            self.fallbacks += 1
            return None
        if state.dirty:
            self._rebuild(measurement, state)
        if now < state.max_time or now < state.hwm:
            state.stable_until = float("-inf")
            if now < state.max_time:
                reason = f"data was absorbed up to t={state.max_time}"
            else:
                reason = f"a query at t={state.hwm} already expired it"
            return self._decline(
                measurement, f"query at t={now} is too early: {reason}"
            )
        cutoff = now - self.window_seconds
        if state.vacuum_floor > cutoff:
            # Retention cut inside the window: the store no longer has
            # those points, so the cache must not serve them either.
            cutoff = state.vacuum_floor
        state.hwm = now
        live: List[Tuple[SeriesKey, _SeriesState]] = []
        dead: List[SeriesKey] = []
        # Reported rows stay byte-identical until the earliest window
        # maximum ages out: its expiry either surfaces a smaller masked
        # value or (single-entry deque) removes the series entirely.
        stable_until = float("inf")
        for key, series in state.series.items():
            series.expire(cutoff)
            if not series.times:
                dead.append(key)
                continue
            live.append((key, series))
            head_expiry = series.maxdeque[0][0] + self.window_seconds
            if head_expiry < stable_until:
                stable_until = head_expiry
        state.stable_until = stable_until
        for key in dead:
            del state.series[key]
        if ordered:
            live.sort(key=lambda entry: entry[1].times[0])
        self.hits += 1
        return live

    def snapshot(
        self, measurement: str, now: float
    ) -> Optional[List[SeriesAggregate]]:
        """Window aggregates of *measurement* at *now*, or ``None``.

        Returns one :class:`SeriesAggregate` per series with at least
        one non-zero point in ``[now - window, now]``, ordered exactly
        as a full InfluxQL scan discovers the groups.  ``None`` tells
        the caller to run the full scan instead (see
        :meth:`_live_series`).
        """
        live = self._live_series(measurement, now, ordered=True)
        if live is None:
            return None
        return [
            SeriesAggregate(
                nodename=key[0],
                pod_name=key[1],
                max_value=series.maxdeque[0][1],
                latest_time=series.times[-1][0],
            )
            for key, series in live
        ]

    def window_maxima(
        self, measurement: str, now: float
    ) -> Optional[List[Tuple[Optional[str], Optional[str], float]]]:
        """Lean ``(nodename, pod_name, max_value)`` rows at *now*.

        The scheduler's per-pass hot path: same liveness and values as
        :meth:`snapshot`, but plain tuples and no ordering guarantee —
        callers that reduce into a map (one entry per series, keys are
        unique) don't pay for discovery-order sorting or dataclasses.
        ``None`` means fall back to the full scan.
        """
        live = self._live_series(measurement, now, ordered=False)
        if live is None:
            return None
        return [
            (key[0], key[1], series.maxdeque[0][1]) for key, series in live
        ]

    def live_series(self, measurement: str) -> int:
        """Number of series currently tracked for *measurement*."""
        state = self._measurements.get(measurement)
        return len(state.series) if state else 0

    def revalidate(self, measurement: str, now: float) -> None:
        """Advance *measurement*'s stability horizon to *now* cheaply.

        The horizon computed by a snapshot goes stale as steady-state
        writes refresh unchanged maxima (they extend real stability but
        bump nothing).  This walk applies window expiry exactly as a
        snapshot would — O(live series), no row building — and either
        extends :attr:`_MeasurementState.stable_until` or, when expiry
        really changed a reported row (a masked smaller value surfaced,
        a series died), bumps :attr:`content_version` so fingerprint
        comparisons fail as they must.  No-op whenever the cache could
        not serve *now* incrementally.
        """
        if self._detached:
            return
        state = self._measurements.get(measurement)
        if state is None or state.dirty:
            return
        if now < state.max_time or now < state.hwm:
            return
        cutoff = now - self.window_seconds
        if state.vacuum_floor > cutoff:
            cutoff = state.vacuum_floor
        state.hwm = now
        stable = float("inf")
        changed = False
        dead: List[SeriesKey] = []
        for key, series in state.series.items():
            front = series.maxdeque[0][1]
            series.expire(cutoff)
            if not series.times:
                dead.append(key)
                changed = True
                continue
            if series.maxdeque[0][1] != front:
                changed = True
            head_expiry = series.maxdeque[0][0] + self.window_seconds
            if head_expiry < stable:
                stable = head_expiry
        for key in dead:
            del state.series[key]
        state.stable_until = stable
        if changed:
            self.content_version += 1

    def stable_until(self, measurement: str) -> float:
        """Until when *measurement*'s last-reported rows cannot change.

        Valid only between the last successful snapshot and the next
        write (writes that could alter rows bump
        :attr:`content_version`, which callers must check alongside).
        A measurement the cache has never served reports ``-inf``
        (unknown); one with no absorbed points reports ``+inf`` (no
        rows, and any appearing row bumps the version).
        """
        if self._detached:
            return float("-inf")
        state = self._measurements.get(measurement)
        if state is None:
            return float("inf")
        if state.dirty:
            return float("-inf")
        return state.stable_until

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

    def _push(self, series: _SeriesState, point: Point) -> None:
        seq = self._seq
        self._seq = seq + 1
        series.times.append((point.time, seq))
        maxdeque = series.maxdeque
        while maxdeque and maxdeque[-1][1] <= point.value:
            maxdeque.pop()
        maxdeque.append((point.time, point.value))

    def _rebuild(self, measurement: str, state: _MeasurementState) -> None:
        """Reconstruct a measurement's deques from one full scan.

        Replays the stored points through :meth:`on_write` so rebuilt
        state follows exactly the incremental absorption rules; the
        scan is time-sorted, so the out-of-order branch never fires.
        """
        state.series = {}
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
