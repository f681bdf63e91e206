"""Per-tick monitoring: the reference for monitoring by change.

The package's collectors report a series only when it starts, changes
value or ends, and the window-max store counts a live series as
sampled at every collection with its last value.  This module keeps
what they replaced, every pod sampled at every collection:

* :func:`memory_rows` and :func:`epc_rows` read every admitted pod's
  cgroup memory and the driver's allocations by owner, resolved to pod
  names, as Heapster and the SGX probe did;
* :func:`collect` is one such collection over an orchestrator's
  kubelets and probes, one batch per node;
* :class:`TickStore` is the window-max store that absorbed those
  batches, one sample per row (its ``ingest``), with the change log
  that sampling every pod files;
* :class:`ByChange` turns per-tick collections into the rows a
  change-reporting collector hands :meth:`WindowedAggregateCache.report`,
  by diffing each collection against the previous one.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import METRICS_WINDOW_SECONDS
from repro.errors import MonitoringError
from repro.monitoring.heapster import MEASUREMENT_MEMORY
from repro.monitoring.probe import MEASUREMENT_EPC

Row = Tuple[str, str, float]

_INF = float("inf")


# -- the per-tick collectors ----------------------------------------------


def memory_rows(kubelet) -> List[Row]:
    """Every admitted pod's ``(nodename, pod_name, bytes)`` row; a pod
    whose cgroup reads 0 bytes (an SGX pod) has none."""
    node = kubelet.node
    rows = []
    for pod in kubelet.admitted_pods():
        value = node.cgroup_memory_bytes(pod.cgroup_path)
        if value:
            rows.append((node.name, pod.name, float(value)))
    return rows


def epc_rows(kubelet) -> List[Row]:
    """The driver's EPC pages by owner cgroup, one row per cgroup an
    admitted pod owns (enclaves of other processes are skipped)."""
    node = kubelet.node
    pod_names = {pod.cgroup_path: pod.name for pod in kubelet.admitted_pods()}
    usage: Dict[str, int] = {}
    for allocation in node.epc.allocations():
        usage[allocation.owner] = (
            usage.get(allocation.owner, 0) + allocation.pages
        )
    return [
        (node.name, pod_names[owner], float(pages))
        for owner, pages in usage.items()
        if owner in pod_names
    ]


def collect(orchestrator) -> List[Tuple[str, List[Row]]]:
    """One per-tick collection: ``(measurement, rows)`` per node, memory
    for every kubelet, then EPC for every node with a probe."""
    batches = [
        (MEASUREMENT_MEMORY, memory_rows(kubelet))
        for kubelet in orchestrator.kubelets.values()
    ]
    batches += [
        (MEASUREMENT_EPC, epc_rows(orchestrator.kubelets[name]))
        for name in orchestrator.probes
    ]
    return batches


# -- the per-tick store ----------------------------------------------------


def _file(changed: Dict, nodename, pod_name) -> None:
    changed.setdefault(nodename, {})[pod_name] = None


class _TickNode:
    """One node's series, with a stability horizon."""

    __slots__ = ("series", "horizon")

    def __init__(self) -> None:
        self.series: Dict[Optional[str], deque] = {}
        self.horizon = _INF

    def expire(self, cutoff: float) -> List[Optional[str]]:
        """Expire up to *cutoff*; the series whose maximum moved."""
        moved = []
        horizon = _INF
        dead = []
        for pod_name, maxdeque in self.series.items():
            if maxdeque[0][0] < cutoff:
                moved.append(pod_name)
                maxdeque.popleft()
                while maxdeque and maxdeque[0][0] < cutoff:
                    maxdeque.popleft()
                if not maxdeque:
                    dead.append(pod_name)
                    continue
            horizon = min(horizon, maxdeque[0][0])
        for pod_name in dead:
            del self.series[pod_name]
        self.horizon = horizon
        return moved

    def maxima(self) -> Dict[Optional[str], float]:
        return {
            pod_name: maxdeque[0][1]
            for pod_name, maxdeque in self.series.items()
        }


class _TickMeasurement:
    __slots__ = ("nodes", "changed", "horizon", "max_time", "hwm")

    def __init__(self) -> None:
        self.nodes: Dict[Optional[str], _TickNode] = {}
        self.changed: Dict[Optional[str], Dict[Optional[str], None]] = {}
        self.horizon = _INF
        self.max_time = -_INF
        self.hwm = -_INF


class TickStore:
    """The window-max store fed every pod's sample at every collection.

    Same queries as :class:`~repro.monitoring.aggregate.
    WindowedAggregateCache`; each ``ingest`` row is one sample at
    *now*.  A new series or a rising maximum files the series in the
    change log, and so does an expiry that surfaces a smaller maximum
    or kills a series.
    """

    def __init__(self) -> None:
        self._measurements: Dict[str, _TickMeasurement] = {}

    def ingest(self, measurement: str, now: float, rows: Sequence[Row]):
        if not rows:
            return
        state = self._measurements.setdefault(
            measurement, _TickMeasurement()
        )
        cutoff = now - METRICS_WINDOW_SECONDS
        for nodename, pod_name, value in rows:
            if value == 0.0:
                continue
            node = state.nodes.setdefault(nodename, _TickNode())
            maxdeque = node.series.get(pod_name)
            if maxdeque is None:
                maxdeque = node.series[pod_name] = deque()
                _file(state.changed, nodename, pod_name)
            elif now < maxdeque[-1][0]:
                raise MonitoringError("sample older than its series")
            elif value > maxdeque[0][1]:
                _file(state.changed, nodename, pod_name)
            while maxdeque and maxdeque[-1][1] <= value:
                maxdeque.pop()
            if not maxdeque:
                node.horizon = min(node.horizon, now)
                state.horizon = min(state.horizon, now)
            maxdeque.append((now, value))
            if len(maxdeque) > 2 and maxdeque[1][0] < cutoff:
                head = maxdeque.popleft()
                while maxdeque[0][0] < cutoff:
                    maxdeque.popleft()
                maxdeque.appendleft(head)
            state.max_time = max(state.max_time, now)

    def node_states(self, measurement: str, now: float):
        state = self._measurements.get(measurement)
        if state is None:
            return {}
        if now < state.max_time or now < state.hwm:
            raise MonitoringError(f"query at t={now} is too early")
        state.hwm = now
        cutoff = now - METRICS_WINDOW_SECONDS
        if state.horizon < cutoff:
            horizon = _INF
            for nodename in list(state.nodes):
                node = state.nodes[nodename]
                if node.horizon < cutoff:
                    for pod_name in node.expire(cutoff):
                        _file(state.changed, nodename, pod_name)
                    if not node.series:
                        del state.nodes[nodename]
                        continue
                horizon = min(horizon, node.horizon)
            state.horizon = horizon
        return state.nodes

    def drain_changes(self, measurement: str) -> Dict:
        state = self._measurements.get(measurement)
        if state is None:
            return {}
        changed, state.changed = state.changed, {}
        return changed

    def live_series(self, measurement: str) -> int:
        state = self._measurements.get(measurement)
        if state is None:
            return 0
        return sum(len(node.series) for node in state.nodes.values())


# -- per-tick collections as reported changes -------------------------------


class ByChange:
    """Feeds a store's ``report`` from per-tick collections.

    :meth:`collect` takes every sample of one collection (rows of value
    0 count as no sample, a series sampled twice counts its larger
    value) and reports the series that started, changed or ended
    since the previous collection of that measurement.  Batches at the
    time of the previous collection belong to it: they add samples.
    """

    def __init__(self, store) -> None:
        self.store = store
        #: measurement -> (time, {(nodename, pod_name): value}) of the
        #: latest collection.
        self.collections: Dict[str, Tuple[float, Dict]] = {}

    def collect(self, measurement: str, now: float, rows: Sequence[Row]):
        time, previous = self.collections.get(measurement, (None, {}))
        current = dict(previous) if now == time else {}
        for nodename, pod_name, value in rows:
            if value != 0.0:
                key = (nodename, pod_name)
                current[key] = max(value, current.get(key, value))
        changes = [
            (nodename, pod_name, value)
            for (nodename, pod_name), value in current.items()
            if previous.get((nodename, pod_name)) != value
        ]
        changes += [
            (nodename, pod_name, 0.0)
            for (nodename, pod_name) in previous
            if (nodename, pod_name) not in current
        ]
        self.store.report(measurement, now, changes)
        self.collections[measurement] = (now, current)
        return changes

    def live(self, measurement: str) -> Dict:
        """The latest collection's samples, by ``(nodename, pod_name)``."""
        return self.collections.get(measurement, (None, {}))[1]
