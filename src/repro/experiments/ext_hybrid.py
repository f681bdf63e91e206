"""Extension experiment — hybrid trusted/untrusted jobs.

The paper's conclusion plans support for "hybrid processes running
trusted and untrusted code"; its evaluation machines make the trade
interesting: the SGX workers carry 93.5 MiB of usable EPC but only
8 GiB of RAM.  This experiment sweeps the *untrusted memory share* of a
hybrid job population and measures which resource binds: as the
untrusted working set grows, RAM on the SGX nodes saturates first and
EPC capacity strands — quantifying why the paper assumes jobs run
"entirely in enclaves" and what changes once they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..api import Scenario
from ..orchestrator.pod import Pod
from ..simulation.runner import _Replay
from ..units import gib
from .common import format_table

#: Untrusted-memory sizes swept (bytes per job), as RAM/EPC ratios.
MEMORY_SHARES_GIB = (0.0625, 0.5, 1.0, 2.0, 4.0)


@dataclass
class HybridRun:
    """One memory share's outcome."""

    memory_gib: float
    makespan_seconds: float
    mean_wait_seconds: float
    #: Peak EPC utilisation achieved across SGX nodes (0..1).
    peak_epc_utilization: float
    #: Peak RAM utilisation achieved across SGX nodes (0..1).
    peak_memory_utilization: float

    @property
    def binding_resource(self) -> str:
        """Which dimension limited packing at the peak."""
        return (
            "memory"
            if self.peak_memory_utilization > self.peak_epc_utilization
            else "epc"
        )


@dataclass
class ExtHybridResult:
    """The sweep over untrusted-memory shares."""

    runs: Dict[float, HybridRun]


class _HybridReplay(_Replay):
    """A replay that also records the SGX nodes' peak EPC and RAM use,
    sampled after every metrics tick and every pod start."""

    __slots__ = ("peak_epc", "peak_mem")

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self.peak_epc = 0.0
        self.peak_mem = 0.0

    def _observe_peaks(self) -> None:
        for node in self.cluster.sgx_nodes:
            assert node.epc is not None
            epc_util = node.used_epc_pages() / node.epc.total_pages
            mem_util = node.used_memory_bytes() / node.spec.memory_bytes
            self.peak_epc = max(self.peak_epc, epc_util)
            self.peak_mem = max(self.peak_mem, mem_util)

    def _metrics_tick(self) -> None:
        super()._metrics_tick()
        self._observe_peaks()

    def _start(self, pod: Pod) -> None:
        super()._start(pod)
        self._observe_peaks()


def run_ext_hybrid(
    n_jobs: int = 60, seed: int = 0, shares_gib=MEMORY_SHARES_GIB
) -> ExtHybridResult:
    """Sweep the untrusted-memory share of a hybrid job population.

    Each share replays the registered ``hybrid`` workload on the
    paper's testbed with its driver defaults: limits enforced, no EPC
    over-commit.
    """
    runs: Dict[float, HybridRun] = {}
    for share in shares_gib:
        replay = _HybridReplay(
            Scenario(
                workload="hybrid",
                workload_options={
                    "n_jobs": n_jobs, "memory_bytes": int(gib(share)),
                },
                seed=seed,
                enforce_epc_limits=True,
                epc_allow_overcommit=False,
            )
        )
        metrics = replay.run().metrics
        waits = metrics.waiting_times(metrics.pods)
        runs[share] = HybridRun(
            memory_gib=share,
            makespan_seconds=metrics.makespan_seconds,
            mean_wait_seconds=sum(waits) / len(waits) if waits else 0.0,
            peak_epc_utilization=replay.peak_epc,
            peak_memory_utilization=replay.peak_mem,
        )
    return ExtHybridResult(runs=runs)


def format_ext_hybrid(result: ExtHybridResult) -> str:
    """The table the bench prints: binding resource per memory share."""
    rows: List = []
    for share, run in sorted(result.runs.items()):
        rows.append(
            (
                f"{share:g} GiB",
                run.makespan_seconds,
                run.mean_wait_seconds,
                run.peak_epc_utilization * 100.0,
                run.peak_memory_utilization * 100.0,
                run.binding_resource,
            )
        )
    return format_table(
        [
            "untrusted mem/job",
            "makespan [s]",
            "mean wait [s]",
            "peak EPC [%]",
            "peak RAM [%]",
            "binds",
        ],
        rows,
    )
