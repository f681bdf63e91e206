"""Heapster collector and the SGX metrics probe."""

import pytest

from repro.monitoring.aggregate import WindowedAggregateCache
from repro.monitoring.heapster import MEASUREMENT_MEMORY, Heapster
from repro.monitoring.probe import MEASUREMENT_EPC, SgxMetricsProbe
from repro.sgx.driver import SgxDriver
from repro.sgx.epc import EnclavePageCache
from repro.units import mib, pages


def window_maxima(store, measurement, now):
    """``(nodename, pod_name, max)`` per live series, sorted."""
    return sorted(
        (nodename, pod_name, value)
        for nodename, node in store.node_states(measurement, now).items()
        for pod_name, value in node.maxima().items()
    )


class StubSource:
    """A fixed-usage Kubelet stand-in."""

    def __init__(self, rows):
        self._rows = rows

    def memory_rows(self):
        return self._rows


class TestHeapster:
    def test_collect_writes_tagged_points(self, db):
        heapster = Heapster(db, [StubSource([("node-1", "pod-a", 1000.0)])])
        written = heapster.collect(now=5.0)
        assert written == 1
        (point,) = db.scan(MEASUREMENT_MEMORY)
        assert point.value == 1000.0
        assert point.tag("pod_name") == "pod-a"
        assert point.tag("nodename") == "node-1"

    def test_collect_polls_all_sources(self, db):
        heapster = Heapster(
            db,
            [
                StubSource([("n1", "a", 1.0)]),
                StubSource([("n2", "b", 2.0)]),
            ],
        )
        assert heapster.collect(now=1.0) == 2

    def test_empty_sources_write_nothing(self, db):
        heapster = Heapster(db, [StubSource([])])
        assert heapster.collect(now=1.0) == 0

    def test_sources_are_read_on_every_collection(self, db):
        # The orchestrator hands over its live kubelets.values(): a
        # node that joins or leaves is polled, or not, from the next
        # collection on.
        sources = {"n1": StubSource([("n1", "a", 1.0)])}
        heapster = Heapster(db, sources.values())
        assert heapster.collect(now=1.0) == 1
        sources["n2"] = StubSource([("n2", "b", 2.0), ("n2", "c", 3.0)])
        assert heapster.collect(now=2.0) == 3
        del sources["n1"]
        assert heapster.collect(now=3.0) == 2

    def test_window_store_sink_keeps_only_maxima(self):
        store = WindowedAggregateCache()
        source = StubSource([("n1", "a", 5.0), ("n1", "b", 0.0)])
        heapster = Heapster(store, [source])
        assert heapster.collect(now=1.0) == 2  # zero samples count
        source._rows = [("n1", "a", 3.0)]
        heapster.collect(now=11.0)
        assert window_maxima(store, MEASUREMENT_MEMORY, now=12.0) == [
            ("n1", "a", 5.0)
        ]


class TestSgxProbe:
    @pytest.fixture
    def driver(self):
        return SgxDriver(EnclavePageCache())

    def test_probe_reports_per_pod_pages(self, db, driver):
        driver.register_process(1, "/kubepods/burstable/podx")
        driver.create_enclave(1, size_bytes=mib(4))
        probe = SgxMetricsProbe(
            node_name="sgx-0",
            driver=driver,
            sink=db,
            pod_name_resolver=lambda path: "pod-x",
        )
        probe.collect(now=3.0)
        (point,) = db.scan(MEASUREMENT_EPC)
        assert point.value == pages(mib(4))
        assert point.tag("pod_name") == "pod-x"
        assert point.tag("nodename") == "sgx-0"

    def test_probe_skips_unresolvable_cgroups(self, db, driver):
        driver.register_process(1, "/system/daemon")
        driver.create_enclave(1, size_bytes=mib(1))
        probe = SgxMetricsProbe(
            node_name="sgx-0",
            driver=driver,
            sink=db,
            pod_name_resolver=lambda path: None,
        )
        probe.collect(now=1.0)
        assert db.scan(MEASUREMENT_EPC) == []

    def test_window_store_sink_gets_pods_but_no_gauges(self, driver):
        driver.register_process(1, "/kubepods/burstable/podx")
        driver.create_enclave(1, size_bytes=mib(4))
        store = WindowedAggregateCache()
        probe = SgxMetricsProbe(
            node_name="sgx-0",
            driver=driver,
            sink=store,
            pod_name_resolver=lambda path: "pod-x",
        )
        # Samples taken: the one pod.  The probe reads the driver's two
        # node gauges too, but no sink stores them, so they are not
        # samples.
        assert probe.collect(now=3.0) == 1
        assert window_maxima(store, MEASUREMENT_EPC, now=3.0) == [
            ("sgx-0", "pod-x", float(pages(mib(4))))
        ]
        assert list(store._measurements) == [MEASUREMENT_EPC]
