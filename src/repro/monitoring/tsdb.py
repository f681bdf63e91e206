"""In-memory time-series database: the reference store for Listing 1.

A deliberately small InfluxDB stand-in: measurements hold *points*, each
with a timestamp, a float value and a tag set, kept per measurement in
append (time) order; range scans read them back and a retention policy
vacuums old ones.  Run through an InfluxQL engine, it answers the
paper's Listing 1 verbatim.

No module of the package imports it: the scheduler reads only the
window-max store (:class:`~repro.monitoring.aggregate.
WindowedAggregateCache`), which hears only the series that start,
change or end.  The tests feed a database every pod's sample at every
collection (:meth:`TimeSeriesDatabase.ingest`, one batch per node, as
their per-tick collectors read them) and compare every view build
with a full Listing 1 scan over it, and ``bench/run.py`` times
:meth:`TimeSeriesDatabase.write_tagged` as a layer of its own.

Timestamps are simulation-time ``float`` seconds — the database never
consults the wall clock; callers pass ``now`` explicitly, which keeps the
discrete-event simulation deterministic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import MonitoringError
from .aggregate import SampleRow


@dataclass(frozen=True, slots=True)
class Point:
    """One sample: a value at a time with identifying tags.

    ``tags`` is a sorted tuple of ``(key, value)`` pairs — the
    normalised form :meth:`make` produces.
    :meth:`TimeSeriesDatabase.write_tagged` takes such tuples directly,
    skipping the per-write dict-sort of :meth:`make`.
    """

    time: float
    value: float
    tags: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def make(
        cls,
        time: float,
        value: float,
        tags: Optional[Mapping[str, str]] = None,
    ) -> "Point":
        """Build a point from a tag mapping (normalised, hashable)."""
        items = tuple(sorted((tags or {}).items()))
        return cls(time=time, value=float(value), tags=items)

    def tag(self, key: str) -> Optional[str]:
        """Value of one tag, or ``None``."""
        for k, v in self.tags:
            if k == key:
                return v
        return None

    @property
    def tag_dict(self) -> Dict[str, str]:
        """Tags as a plain dict."""
        return dict(self.tags)


@dataclass(slots=True)
class _Series:
    """Points of one measurement, sorted by time."""

    times: List[float] = field(default_factory=list)
    points: List[Point] = field(default_factory=list)

    def insert(self, point: Point) -> None:
        # Writes arrive in time order in practice; appending matches
        # bisect_right exactly for ``time >= times[-1]`` (insertion
        # index == len) without the O(n) list shuffle.
        times = self.times
        if not times or point.time >= times[-1]:
            times.append(point.time)
            self.points.append(point)
            return
        idx = bisect.bisect_right(times, point.time)
        times.insert(idx, point.time)
        self.points.insert(idx, point)

    def scan(
        self, start: Optional[float], end: Optional[float]
    ) -> List[Point]:
        lo = 0 if start is None else bisect.bisect_left(self.times, start)
        hi = (
            len(self.times)
            if end is None
            else bisect.bisect_right(self.times, end)
        )
        return self.points[lo:hi]

    def vacuum_before(self, cutoff: float) -> int:
        idx = bisect.bisect_left(self.times, cutoff)
        removed = idx
        del self.times[:idx]
        del self.points[:idx]
        return removed


class TimeSeriesDatabase:
    """Tagged time-series store with range scans and retention.

    Parameters
    ----------
    retention_seconds:
        When set, :meth:`vacuum` (called opportunistically on writes)
        drops points older than ``now - retention_seconds``.
    """

    __slots__ = ("retention_seconds", "_series", "_writes")

    def __init__(self, retention_seconds: Optional[float] = None):
        if retention_seconds is not None and retention_seconds <= 0:
            raise MonitoringError(
                f"retention must be positive, got {retention_seconds}"
            )
        self.retention_seconds = retention_seconds
        self._series: Dict[str, _Series] = {}
        self._writes = 0

    # -- writes -------------------------------------------------------------

    def write(
        self,
        measurement: str,
        value: float,
        time: float,
        tags: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Append one sample to *measurement*."""
        if not measurement:
            raise MonitoringError("empty measurement name")
        self._append(
            measurement,
            Point(time=time, value=float(value),
                  tags=tuple(sorted((tags or {}).items()))),
        )

    def write_tagged(
        self,
        measurement: str,
        value: float,
        time: float,
        tags: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        """Append one sample with pre-normalised tags.

        *tags* must be a sorted tuple of ``(key, value)`` pairs — the
        form :meth:`Point.make` normalises to; the stored point is
        bit-identical to what :meth:`write` would produce from the
        equivalent mapping.
        """
        if not measurement:
            raise MonitoringError("empty measurement name")
        self._append(
            measurement, Point(time=time, value=float(value), tags=tags)
        )

    def ingest(
        self, measurement: str, now: float, rows: Sequence[SampleRow]
    ) -> None:
        """Append one per-tick batch: every sample of one node.

        Each ``(nodename, pod_name, value)`` row becomes one point at
        *now*, tagged as Listing 1 expects, through :meth:`write_tagged`.
        """
        write_tagged = self.write_tagged
        for nodename, pod_name, value in rows:
            # Already in sorted order: "nodename" < "pod_name".
            write_tagged(
                measurement, value, now,
                (("nodename", nodename), ("pod_name", pod_name)),
            )

    def _append(self, measurement: str, point: Point) -> None:
        series = self._series.get(measurement)
        if series is None:
            series = self._series.setdefault(measurement, _Series())
        series.insert(point)
        self._writes += 1
        if self.retention_seconds is not None and self._writes % 256 == 0:
            self.vacuum(now=point.time)

    def write_points(
        self, measurement: str, points: Iterable[Point]
    ) -> None:
        """Bulk-append pre-built points."""
        series = self._series.setdefault(measurement, _Series())
        for point in points:
            series.insert(point)
            self._writes += 1

    # -- reads --------------------------------------------------------------

    def measurements(self) -> List[str]:
        """Names of all measurements with at least one point."""
        return sorted(m for m, s in self._series.items() if s.points)

    def scan(
        self,
        measurement: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Point]:
        """Points of *measurement* with ``start <= time <= end``.

        Unknown measurements scan as empty, mirroring InfluxDB.
        """
        series = self._series.get(measurement)
        if series is None:
            return []
        return series.scan(start, end)

    def count(self, measurement: str) -> int:
        """Number of stored points in *measurement*."""
        series = self._series.get(measurement)
        return len(series.points) if series else 0

    def latest(
        self, measurement: str, tags: Optional[Mapping[str, str]] = None
    ) -> Optional[Point]:
        """Most recent point, optionally restricted to matching tags."""
        series = self._series.get(measurement)
        if series is None:
            return None
        wanted = dict(tags or {})
        for point in reversed(series.points):
            if all(point.tag(k) == v for k, v in wanted.items()):
                return point
        return None

    # -- maintenance ----------------------------------------------------------

    def vacuum(self, now: float) -> int:
        """Apply the retention policy; returns points removed."""
        if self.retention_seconds is None:
            return 0
        cutoff = now - self.retention_seconds
        return sum(
            series.vacuum_before(cutoff)
            for series in self._series.values()
        )

    def drop_measurement(self, measurement: str) -> None:
        """Remove a measurement entirely."""
        self._series.pop(measurement, None)

    def __len__(self) -> int:
        return sum(len(s.points) for s in self._series.values())
