"""Monitoring substrate: time-series database, InfluxQL subset and probes.

Replaces the paper's Heapster + InfluxDB pipeline (Section V-C) with an
in-memory equivalent.  By default the collectors feed the window-max
store directly; the time-series database and InfluxQL engine form the
opt-in raw-series path that reproduces Listing 1 verbatim:

* :mod:`repro.monitoring.tsdb` — a time-series store with tags, retention
  and range scans;
* :mod:`repro.monitoring.influxql` — a lexer/parser/executor for the
  InfluxQL subset the paper's scheduler uses, sufficient to run Listing 1
  verbatim (nested sub-query, ``MAX``/``SUM``, ``now() - 25s`` windows,
  ``GROUP BY``);
* :mod:`repro.monitoring.heapster` — the standard-memory collector;
* :mod:`repro.monitoring.probe` — the SGX EPC probe deployed per node as a
  DaemonSet payload, reading the patched driver's counters;
* :mod:`repro.monitoring.aggregate` — the sliding-window MAX store that
  answers Listing 1's inner query incrementally, standalone (the default
  sink) or write-through over a database.
"""

from .aggregate import SeriesAggregate, WindowedAggregateCache
from .heapster import MEASUREMENT_MEMORY, Heapster
from .influxql import InfluxQLError, execute_query, parse_query
from .probe import MEASUREMENT_EPC, SgxMetricsProbe
from .tsdb import Point, TimeSeriesDatabase

__all__ = [
    "Heapster",
    "InfluxQLError",
    "MEASUREMENT_EPC",
    "MEASUREMENT_MEMORY",
    "Point",
    "SeriesAggregate",
    "SgxMetricsProbe",
    "TimeSeriesDatabase",
    "WindowedAggregateCache",
    "execute_query",
    "parse_query",
]
