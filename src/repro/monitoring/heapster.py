"""Heapster-like collector for standard-memory metrics.

The paper configures Heapster to gather per-pod memory usage on every
node and push it into InfluxDB (Section V-C).  Our collector polls
registered *sources* (the Kubelets, in practice) and hands each node's
samples to a :class:`~repro.monitoring.aggregate.MetricsSink` (the
scheduler's sliding-window MAX store) as one batch of ``(nodename,
pod_name, value)`` rows per collection pass: the ``pod_name`` and
``nodename`` tags the paper's Listing 1 groups by.
"""

from __future__ import annotations

from typing import Iterable, List, Protocol

from .aggregate import MetricsSink, SampleRow

#: Measurement name for standard memory, Heapster-style.
MEASUREMENT_MEMORY = "memory/usage"


class MemorySource(Protocol):
    """Anything able to report per-pod memory (Kubelets implement this)."""

    def memory_rows(self) -> List[SampleRow]:
        """Measured standard-memory bytes per pod on this source's node."""
        ...  # pragma: no cover - protocol


class Heapster:
    """Polls Kubelet-like sources and sends per-pod memory samples."""

    __slots__ = ("sink", "_sources")

    def __init__(self, sink: MetricsSink):
        self.sink = sink
        self._sources: List[MemorySource] = []

    def register(self, source: MemorySource) -> None:
        """Add a node-level usage source."""
        self._sources.append(source)

    def register_all(self, sources: Iterable[MemorySource]) -> None:
        """Add several sources at once."""
        for source in sources:
            self.register(source)

    def unregister(self, source: MemorySource) -> bool:
        """Stop polling a source (node removed); returns whether found."""
        if source in self._sources:
            self._sources.remove(source)
            return True
        return False

    def collect(self, now: float) -> int:
        """Poll every source once; returns the number of samples taken."""
        taken = 0
        ingest = self.sink.ingest
        for source in self._sources:
            rows = source.memory_rows()
            ingest(MEASUREMENT_MEMORY, now, rows)
            taken += len(rows)
        return taken
