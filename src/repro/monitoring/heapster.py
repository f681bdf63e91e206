"""Heapster-like collector for standard-memory metrics.

The paper configures Heapster to gather per-pod memory usage on every
node and push it into InfluxDB (Section V-C).  Our collector reads its
*sources* (the orchestrator's kubelets, in practice) by change:
at each collection it reads the cgroup memory of the pods each kubelet
touched since the previous one, and hands a
:class:`~repro.monitoring.aggregate.MetricsSink` (the scheduler's
sliding-window MAX store) one batch of ``(nodename, pod_name, value)``
rows for the series that started, changed or ended (value 0): the
``pod_name`` and ``nodename`` tags the paper's Listing 1 groups by.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Protocol

from .aggregate import MetricsSink, SeriesLog

if TYPE_CHECKING:
    from ..cluster.node import Node

#: Measurement name for standard memory, Heapster-style.
MEASUREMENT_MEMORY = "memory/usage"


class MemorySource(Protocol):
    """What Heapster reads of one node (Kubelets implement this)."""

    #: The machine whose cgroups Heapster reads.
    node: Node
    #: The node's memory series and the pods touched since the last
    #: collection; a touched record has a ``cgroup_path``.
    memory_log: SeriesLog


class Heapster:
    """Reads Kubelet-like sources and sends per-pod memory changes.

    *sources* is the cluster's fixed node set, read in order at every
    collection.
    """

    __slots__ = ("sink", "sources")

    def __init__(self, sink: MetricsSink, sources: Collection[MemorySource]):
        self.sink = sink
        self.sources = sources

    def collect(self, now: float) -> int:
        """One collection over every source; returns the number of rows
        reported (the store hears of the collection even with none)."""
        rows = []
        for source in self.sources:
            log = source.memory_log
            if log.touched:
                cgroup_memory_bytes = source.node.cgroup_memory_bytes
                rows += log.drain(
                    lambda record: cgroup_memory_bytes(record.cgroup_path)
                )
        self.sink.report(MEASUREMENT_MEMORY, now, rows)
        return len(rows)
