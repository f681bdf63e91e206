"""Monitoring substrate: collectors and the window-max store.

Replaces the paper's Heapster + InfluxDB pipeline (Section V-C) with an
in-memory equivalent.  The scheduler reads one thing from it, Listing
1's per-pod 25 s window maximum, so the collectors feed a store that
keeps exactly that.  Collection is by change: each kubelet names the
pods it touched since the last collection, and the collectors report
a series only when it starts, changes value or ends:

* :mod:`repro.monitoring.heapster` — the standard-memory collector,
  reading the touched pods' cgroup memory;
* :mod:`repro.monitoring.probe` — the SGX EPC probe, one per node that
  advertises EPC (the paper's DaemonSet,
  :attr:`repro.orchestrator.controller.Orchestrator.probes`), reading
  the patched driver's per-process ioctl for the touched pods;
* :mod:`repro.monitoring.aggregate` — the sliding-window MAX store, the
  collectors' only sink, which counts a live series as sampled at
  every collection and answers Listing 1's inner query incrementally;
  and the collectors' per-node :class:`~repro.monitoring.aggregate.
  SeriesLog`.

:mod:`repro.monitoring.tsdb` keeps a raw-series database that, with the
tests' InfluxQL engine and their per-tick collectors, runs Listing 1
verbatim as the store's reference; nothing in the package imports it.
"""

from .aggregate import SeriesLog, WindowedAggregateCache
from .heapster import MEASUREMENT_MEMORY, Heapster
from .probe import MEASUREMENT_EPC, SgxMetricsProbe

__all__ = [
    "MEASUREMENT_EPC",
    "MEASUREMENT_MEMORY",
    "Heapster",
    "SeriesLog",
    "SgxMetricsProbe",
    "WindowedAggregateCache",
]
