"""SGX metrics probe: the DaemonSet payload measuring EPC usage.

One probe runs on every SGX-enabled node (deployed by the DaemonSet
controller, Section V-C).  It reads the patched driver's counters — the
``sgx_nr_total_epc_pages`` / ``sgx_nr_free_pages`` module parameters plus
the per-process occupancy ioctl rolled up by cgroup — and hands per-pod
EPC usage to the same sink Heapster uses, as one batch of ``(nodename,
pod_name, pages)`` rows under the ``sgx/epc`` measurement, so the
scheduler's Listing 1 query covers both resource kinds with one shape.
The driver's node-level gauges (total and free pages) are read with
the counters but stored nowhere: the scheduler never reads them.

Values are written in **EPC pages**, the unit the whole accounting chain
(device plugin, driver, scheduler) shares.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sgx.driver import SgxDriver
from .aggregate import MetricsSink

#: Measurement name for EPC usage, as in the paper's Listing 1.
MEASUREMENT_EPC = "sgx/epc"


class SgxMetricsProbe:
    """Per-node probe translating driver counters into samples.

    Parameters
    ----------
    node_name:
        Tag value for ``nodename``.
    driver:
        The node's :class:`~repro.sgx.driver.SgxDriver`.
    sink:
        Where samples go: the window-max store.
    pod_name_resolver:
        Maps a cgroup path to the owning pod's name.  Supplied by the
        Kubelet, which owns the cgroup-to-pod mapping.  Unresolvable
        cgroups are skipped (e.g. enclaves of system daemons).
    """

    __slots__ = ("node_name", "driver", "sink", "pod_name_resolver")

    def __init__(
        self,
        node_name: str,
        driver: SgxDriver,
        sink: MetricsSink,
        pod_name_resolver: Callable[[str], Optional[str]],
    ):
        self.node_name = node_name
        self.driver = driver
        self.sink = sink
        self.pod_name_resolver = pod_name_resolver

    def collect(self, now: float) -> int:
        """Take one measurement pass; returns the samples taken, one
        per resolved pod."""
        snapshot = self.driver.snapshot()
        node_name = self.node_name
        resolve = self.pod_name_resolver
        rows = []
        for cgroup_path, pages in snapshot.usage_by_owner.items():
            pod_name = resolve(cgroup_path)
            if pod_name is not None:
                rows.append((node_name, pod_name, float(pages)))
        self.sink.ingest(MEASUREMENT_EPC, now, rows)
        return len(rows)
