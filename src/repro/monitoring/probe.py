"""SGX metrics probe: the per-node agent measuring EPC usage.

One probe runs on every node that advertises EPC pages (the paper
deploys it as a DaemonSet, Section V-C; here the orchestrator files it
in :attr:`~repro.orchestrator.controller.Orchestrator.probes` when it
is built).  At each collection it
reads the patched driver's per-process occupancy ioctl
(``IOCTL_GET_EPC_USAGE``, Section V-E) for the pods its kubelet
touched since the previous one, and hands the same sink Heapster uses
one batch of ``(nodename, pod_name, pages)`` rows under the
``sgx/epc`` measurement for the series that started, changed or ended
(value 0), so the scheduler's Listing 1 query covers both resource
kinds with one shape.  The driver's node-level gauges (the
``sgx_nr_total_epc_pages`` / ``sgx_nr_free_pages`` module parameters)
stay readable through :meth:`~repro.sgx.driver.SgxDriver.read_parameter`
but are stored nowhere: the scheduler never reads them.

Values are written in **EPC pages**, the unit the whole accounting chain
(advertised capacity, driver, scheduler) shares.
"""

from __future__ import annotations

from ..sgx.driver import IOCTL_GET_EPC_USAGE, SgxDriver
from .aggregate import MetricsSink, SeriesLog

#: Measurement name for EPC usage, as in the paper's Listing 1.
MEASUREMENT_EPC = "sgx/epc"


class SgxMetricsProbe:
    """Per-node probe translating driver counters into change rows.

    Parameters
    ----------
    node_name:
        Tag value for ``nodename``.
    driver:
        The node's :class:`~repro.sgx.driver.SgxDriver`.
    sink:
        Where rows go: the window-max store.
    log:
        The node's EPC series and the pods touched since the last
        collection (the kubelet's
        :attr:`~repro.orchestrator.kubelet.Kubelet.epc_log`); a
        touched record has a ``pid``.  Enclaves of processes outside
        any pod (system daemons) are never touched, so never reported.
    """

    __slots__ = ("node_name", "driver", "sink", "log")

    def __init__(
        self,
        node_name: str,
        driver: SgxDriver,
        sink: MetricsSink,
        log: SeriesLog,
    ):
        self.node_name = node_name
        self.driver = driver
        self.sink = sink
        self.log = log

    def collect(self, now: float) -> int:
        """Take one measurement pass; returns the number of rows
        reported (the store hears of the collection even with none)."""
        ioctl = self.driver.ioctl
        rows = self.log.drain(
            lambda record: ioctl(IOCTL_GET_EPC_USAGE, pid=record.pid)
        )
        self.sink.report(MEASUREMENT_EPC, now, rows)
        return len(rows)
