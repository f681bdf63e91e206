"""Heapster collector and the SGX metrics probe, reporting by change."""

import itertools
from types import SimpleNamespace

import pytest

from repro.cluster.node import Node, NodeSpec
from repro.monitoring.aggregate import SeriesLog, WindowedAggregateCache
from repro.monitoring.heapster import MEASUREMENT_MEMORY, Heapster
from repro.monitoring.probe import MEASUREMENT_EPC, SgxMetricsProbe
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.kubelet import Kubelet
from repro.orchestrator.pod import Pod
from repro.sgx.driver import SgxDriver
from repro.sgx.epc import EnclavePageCache
from repro.units import gib, mib, pages

_uids = itertools.count(1)


def window_maxima(store, measurement, now):
    """``(nodename, pod_name, max)`` per live series, sorted."""
    return sorted(
        (nodename, pod_name, value)
        for nodename, node in store.node_states(measurement, now).items()
        for pod_name, value in node.maxima().items()
    )


class RecordingSink:
    """A sink keeping every ``report`` call."""

    def __init__(self):
        self.reports = []

    def report(self, measurement, now, rows):
        self.reports.append((measurement, now, list(rows)))


def standard_kubelet(name):
    return Kubelet(Node(NodeSpec.standard(name)))


def admit(kubelet, name, memory_gib=None, epc_mib=None):
    """Admit a pod using *memory_gib* of memory or *epc_mib* of EPC."""
    if epc_mib is None:
        spec = make_pod_spec(
            name,
            duration_seconds=60.0,
            declared_memory_bytes=gib(memory_gib),
        )
    else:
        spec = make_pod_spec(
            name,
            duration_seconds=60.0,
            declared_epc_bytes=mib(epc_mib),
            actual_epc_bytes=mib(epc_mib / 2),
        )
    pod = Pod(spec, submitted_at=0.0, uid=f"{next(_uids):08d}")
    pod.mark_bound(kubelet.node.name, 0.0)
    assert kubelet.admit(pod).success
    return pod


class TestHeapster:
    def test_collect_writes_tagged_points(self):
        sink = RecordingSink()
        kubelet = standard_kubelet("node-1")
        heapster = Heapster(sink, [kubelet])
        pod = admit(kubelet, "pod-a", memory_gib=1)
        assert heapster.collect(now=5.0) == 1
        assert sink.reports == [
            (MEASUREMENT_MEMORY, 5.0, [("node-1", pod.name, float(gib(1)))])
        ]

    def test_collect_polls_all_sources(self):
        sink = RecordingSink()
        kubelets = [standard_kubelet("n1"), standard_kubelet("n2")]
        admit(kubelets[0], "a", memory_gib=1)
        admit(kubelets[1], "b", memory_gib=2)
        assert Heapster(sink, kubelets).collect(now=1.0) == 2
        # One batch per collection, grouped by node.
        ((_, _, rows),) = sink.reports
        assert [row[:2] for row in rows] == [("n1", "a"), ("n2", "b")]

    def test_empty_sources_write_nothing(self):
        sink = RecordingSink()
        heapster = Heapster(sink, [standard_kubelet("n1")])
        assert heapster.collect(now=1.0) == 0
        # The store still hears of the collection.
        assert sink.reports == [(MEASUREMENT_MEMORY, 1.0, [])]

    def test_sources_are_read_on_every_collection(self):
        # The orchestrator hands over its live kubelets.values(): a
        # node that joins or leaves is read, or not, from the next
        # collection on.
        sink = RecordingSink()
        sources = {"n1": standard_kubelet("n1")}
        heapster = Heapster(sink, sources.values())
        admit(sources["n1"], "a", memory_gib=1)
        assert heapster.collect(now=1.0) == 1
        sources["n2"] = standard_kubelet("n2")
        admit(sources["n2"], "b", memory_gib=2)
        admit(sources["n2"], "c", memory_gib=3)
        assert heapster.collect(now=2.0) == 2
        leaving = sources.pop("n1")
        admit(leaving, "d", memory_gib=1)
        assert heapster.collect(now=3.0) == 0

    def test_window_store_sink_keeps_only_maxima(self):
        store = WindowedAggregateCache()
        kubelet = standard_kubelet("n1")
        heapster = Heapster(store, [kubelet])
        kept = admit(kubelet, "a", memory_gib=5)
        gone = admit(kubelet, "b", memory_gib=7)
        assert heapster.collect(now=1.0) == 2
        kubelet.terminate(gone)
        assert heapster.collect(now=11.0) == 1  # b ends
        assert window_maxima(store, MEASUREMENT_MEMORY, now=12.0) == [
            ("n1", "a", float(gib(5))), ("n1", "b", float(gib(7))),
        ]
        # b was last sampled at t=1.
        assert window_maxima(store, MEASUREMENT_MEMORY, now=26.5) == [
            ("n1", kept.name, float(gib(5)))
        ]

    def test_a_collection_without_changes_reports_no_row(self):
        sink = RecordingSink()
        kubelet = standard_kubelet("n1")
        heapster = Heapster(sink, [kubelet])
        admit(kubelet, "a", memory_gib=1)
        assert heapster.collect(now=0.0) == 1
        for now in (10.0, 20.0):
            assert heapster.collect(now=now) == 0
        assert [rows for _, _, rows in sink.reports[1:]] == [[], []]

    def test_a_pod_gone_between_collections_is_never_reported(self):
        sink = RecordingSink()
        kubelet = standard_kubelet("n1")
        heapster = Heapster(sink, [kubelet])
        heapster.collect(now=0.0)
        kubelet.terminate(admit(kubelet, "brief", memory_gib=1))
        assert heapster.collect(now=10.0) == 0

    def test_an_ended_pod_reports_zero(self):
        sink = RecordingSink()
        kubelet = standard_kubelet("n1")
        heapster = Heapster(sink, [kubelet])
        pod = admit(kubelet, "a", memory_gib=1)
        heapster.collect(now=0.0)
        kubelet.terminate(pod)
        assert heapster.collect(now=10.0) == 1
        assert sink.reports[-1] == (
            MEASUREMENT_MEMORY, 10.0, [("n1", "a", 0.0)]
        )


class TestSgxProbe:
    @pytest.fixture
    def driver(self):
        return SgxDriver(EnclavePageCache())

    def pod_record(self, driver, pid, cgroup, name, size):
        """A pod's process owning one enclave, as a kubelet files it."""
        driver.register_process(pid, cgroup)
        driver.create_enclave(pid, size_bytes=size)
        return SimpleNamespace(pid=pid, pod_name=name)

    def test_probe_reports_per_pod_pages(self, driver):
        log = SeriesLog("sgx-0")
        record = self.pod_record(
            driver, 1, "/kubepods/burstable/podx", "pod-x", mib(4)
        )
        log.touched["x"] = record
        probe = SgxMetricsProbe(node_name="sgx-0", driver=driver, log=log)
        assert probe.collect() == [
            ("sgx-0", "pod-x", float(pages(mib(4))))
        ]
        # The touched pod was drained: nothing moved since.
        assert probe.collect() == []

    def test_probe_skips_unresolvable_cgroups(self, driver):
        # A system daemon's enclave belongs to no pod: no kubelet
        # touches it, so the probe never reads it.
        driver.register_process(1, "/system/daemon")
        driver.create_enclave(1, size_bytes=mib(1))
        probe = SgxMetricsProbe(
            node_name="sgx-0", driver=driver, log=SeriesLog("sgx-0")
        )
        assert probe.collect() == []

    def test_window_store_sink_gets_pods_but_no_gauges(self, driver):
        store, log = WindowedAggregateCache(), SeriesLog("sgx-0")
        log.touched["x"] = self.pod_record(
            driver, 1, "/kubepods/burstable/podx", "pod-x", mib(4)
        )
        probe = SgxMetricsProbe(node_name="sgx-0", driver=driver, log=log)
        # Rows: the one pod.  The driver's two node gauges are stored
        # nowhere, so they are not rows.
        rows = probe.collect()
        assert len(rows) == 1
        store.report(MEASUREMENT_EPC, 3.0, rows)
        assert window_maxima(store, MEASUREMENT_EPC, now=3.0) == [
            ("sgx-0", "pod-x", float(pages(mib(4))))
        ]
        assert list(store._measurements) == [MEASUREMENT_EPC]

    def test_sgx2_resizes_through_the_kubelet_report_changes(self):
        kubelet = Kubelet(Node(NodeSpec.sgx("sgx-0", sgx_version=2)))
        store = WindowedAggregateCache()
        probe = SgxMetricsProbe("sgx-0", kubelet.node.driver, kubelet.epc_log)

        def collect(now):
            rows = probe.collect()
            store.report(MEASUREMENT_EPC, now, rows)
            return len(rows)

        pod = admit(kubelet, "burst", epc_mib=8)
        assert collect(now=0.0) == 1
        kubelet.grow_pod_epc(pod, 512)
        kubelet.shrink_pod_epc(pod, 256)
        assert collect(now=10.0) == 1
        assert collect(now=20.0) == 0
        kubelet.shrink_pod_epc(pod, 256)
        assert collect(now=30.0) == 1
        # The burst was last sampled at t=20: served until t=45.
        base = float(pages(mib(4)))
        assert window_maxima(store, MEASUREMENT_EPC, now=45.0) == [
            ("sgx-0", "burst", base + 256)
        ]
        assert window_maxima(store, MEASUREMENT_EPC, now=45.5) == [
            ("sgx-0", "burst", base)
        ]
