"""The whole-cluster view build: the reference for per-node rebuilds.

:meth:`repro.scheduler.base.ClusterStateService.build_views` keeps one
view per kubelet and rebuilds only the views whose inputs moved.  The
reference builds every view from scratch, as the service did before:
it runs Listing 1's inner query as a full InfluxQL scan over a
database holding the samples, then folds each kubelet's admitted pods
into one :class:`~repro.scheduler.base.NodeView`.  It reads nothing
from the window-max store, so it cannot share the store's mistakes:
:func:`checking` feeds a shadow database every pod's sample at every
``Orchestrator.collect_metrics``, read by the per-tick collectors of
``tests/monitoring_reference.py``, while the store hears only the
series that started, changed or ended.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Tuple
from unittest import mock

import monitoring_reference
from influxql import execute_query, parse_query
from repro.cluster.resources import ResourceVector
from repro.constants import METRICS_WINDOW_SECONDS
from repro.monitoring.heapster import MEASUREMENT_MEMORY
from repro.monitoring.probe import MEASUREMENT_EPC
from repro.monitoring.tsdb import TimeSeriesDatabase
from repro.orchestrator.controller import Orchestrator
from repro.scheduler.base import ClusterStateService, NodeView

_PER_POD_QUERY = (
    'SELECT MAX(value) AS usage FROM "{measurement}" '
    "WHERE value <> 0 AND time >= now() - {window}s "
    "GROUP BY pod_name, nodename"
)


def measured_usage(
    db: TimeSeriesDatabase, now: float
) -> Dict[str, Dict[str, Tuple[int, int]]]:
    """Measured ``(memory_bytes, epc_pages)`` nested by node, pod.

    A pod with a window maximum in one measurement only counts 0 in
    the other; rows missing a tag are skipped.
    """
    measured: Dict[str, Dict[str, Tuple[int, int]]] = {}
    for measurement in (MEASUREMENT_MEMORY, MEASUREMENT_EPC):
        query = parse_query(
            _PER_POD_QUERY.format(
                measurement=measurement, window=METRICS_WINDOW_SECONDS
            )
        )
        for row in execute_query(query, db, now):
            node, pod = row.get("nodename"), row.get("pod_name")
            if node is None or pod is None:
                continue
            usage = int(row.get("usage", 0.0))
            pods = measured.setdefault(node, {})
            if measurement == MEASUREMENT_MEMORY:
                pods[pod] = (usage, 0)
            else:
                pods[pod] = (pods.get(pod, (0, 0))[0], usage)
    return measured


def window_rows(db: TimeSeriesDatabase, now: float) -> Dict:
    """Listing 1's inner rows, ``(measurement, nodename, pod_name) ->
    window maximum``, for every node the database has samples of."""
    rows = {}
    for measurement in (MEASUREMENT_MEMORY, MEASUREMENT_EPC):
        query = parse_query(
            _PER_POD_QUERY.format(
                measurement=measurement, window=METRICS_WINDOW_SECONDS
            )
        )
        for row in execute_query(query, db, now):
            key = (measurement, row["nodename"], row["pod_name"])
            rows[key] = row["usage"]
    return rows


def store_rows(store, now: float) -> Dict:
    """The same rows from the window-max store."""
    return {
        (measurement, nodename, pod_name): value
        for measurement in (MEASUREMENT_MEMORY, MEASUREMENT_EPC)
        for nodename, node in store.node_states(measurement, now).items()
        for pod_name, value in node.maxima().items()
    }


def reference_views(
    kubelets, db: TimeSeriesDatabase, now: float
) -> List[NodeView]:
    """One view per kubelet, in order, built from scratch.

    Each admitted pod counts its measured usage when the window holds
    a sample for it and its declared requests otherwise (CPU is never
    measured); committed is the sum of the declared requests.
    """
    measured = measured_usage(db, now)
    views = []
    for kubelet in kubelets:
        node = kubelet.node
        samples = measured.get(node.name, {})
        used = committed = ResourceVector.zero()
        for pod in kubelet.admitted_pods():
            requests = pod.spec.resources.requests
            committed = committed + requests
            sample = samples.get(pod.name)
            if sample is None:
                used = used + requests
            else:
                used = used + ResourceVector(
                    cpu_millicores=requests.cpu_millicores,
                    memory_bytes=sample[0],
                    epc_pages=sample[1],
                )
        views.append(
            NodeView(
                name=node.name,
                sgx_capable=kubelet.advertised_epc_pages() > 0,
                capacity=node.capacity,
                used=used,
                committed=committed,
            )
        )
    return views


@contextlib.contextmanager
def checking() -> Iterator[List[int]]:
    """Inside the block, every ``build_views`` result must equal
    :func:`reference_views`, field for field and in kubelet order, and
    the store must hold Listing 1's rows for every node.

    The full scan reads a shadow database that receives, at every
    ``Orchestrator.collect_metrics``, every admitted pod's sample
    (:func:`monitoring_reference.collect`).  Yields a one-item list
    counting the builds checked.
    """
    shadows: Dict[object, TimeSeriesDatabase] = {}
    collect_metrics = Orchestrator.collect_metrics
    build_views = ClusterStateService.build_views
    checked = [0]

    def shadowed_collect_metrics(orchestrator, now):
        reported = collect_metrics(orchestrator, now)
        shadow = shadows.get(orchestrator.aggregate_cache)
        if shadow is None:
            shadow = shadows[orchestrator.aggregate_cache] = (
                TimeSeriesDatabase(retention_seconds=3600.0)
            )
        for measurement, rows in monitoring_reference.collect(orchestrator):
            shadow.ingest(measurement, now, rows)
        return reported

    def checked_build_views(service, now):
        views = build_views(service, now)
        db = shadows.get(service.store)
        if db is None:  # nothing collected yet
            db = TimeSeriesDatabase()
        expected = reference_views(service.kubelets, db, now)
        assert views == expected, f"views differ at t={now}"
        assert store_rows(service.store, now) == window_rows(db, now), (
            f"window rows differ at t={now}"
        )
        checked[0] += 1
        return views

    with mock.patch.object(
        Orchestrator, "collect_metrics", shadowed_collect_metrics
    ), mock.patch.object(
        ClusterStateService, "build_views", checked_build_views
    ):
        yield checked
