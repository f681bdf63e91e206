"""Extension experiment — SGX 2 dynamic memory (Section VI-G).

The paper predicts that SGX 2's dynamic EPC allocation "can really
improve resource utilization on shared infrastructures" and that its
measured-usage scheduler exploits it out of the box.  This experiment
quantifies that prediction on the paper's own cluster inventory.

Workload: bursty enclave jobs that hold a small *baseline* working set
for most of their runtime and a large *peak* only during a short burst.

* On **SGX 1** hardware, all enclave memory is committed at build time,
  so every job occupies its peak for its entire life.
* On **SGX 2** hardware, jobs commit the baseline, grow to the peak at
  burst time (EAUG, gated by the ported per-pod limit check) and shrink
  back afterwards.  The scheduler — unchanged — sees the lower measured
  usage through the same probes and packs more jobs per node.  A job
  whose growth does not fit retries until enough pages free up,
  stalling its burst (the EDMM analogue of waiting for memory).

Reported: makespan, mean waiting time and growth-stall totals for both
modes.  The SGX 2 run finishes the batch strictly earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..cluster.resources import ResourceVector
from ..cluster.topology import paper_cluster
from ..constants import METRICS_PUSH_PERIOD_SECONDS, SCHEDULER_PERIOD_SECONDS
from ..errors import EpcExhaustedError
from ..orchestrator.api import (
    PodSpec,
    ResourceRequirements,
    WorkloadProfile,
)
from ..orchestrator.controller import Orchestrator
from ..orchestrator.pod import Pod
from ..registry import SCHEDULERS
from ..simulation.engine import SimulationEngine
from .common import format_table

#: Growth-retry period when the EPC cannot satisfy an EAUG (seconds).
GROW_RETRY_SECONDS = 2.0


@dataclass(frozen=True)
class BurstyJob:
    """One bursty enclave job."""

    name: str
    submit_time: float
    duration: float
    baseline_pages: int
    peak_pages: int
    #: Fraction of the runtime at which the burst begins.
    burst_start_fraction: float
    #: Burst length as a fraction of the runtime.
    burst_length_fraction: float

    @property
    def burst_pages(self) -> int:
        """Pages added at burst time."""
        return self.peak_pages - self.baseline_pages


def generate_bursty_jobs(
    n_jobs: int = 80,
    seed: int = 0,
    window_seconds: float = 1800.0,
) -> List[BurstyJob]:
    """A seeded batch of bursty jobs sized for the paper's SGX nodes."""
    rng = np.random.default_rng(seed)
    submit_times = np.sort(rng.uniform(0.0, window_seconds, size=n_jobs))
    jobs = []
    for index in range(n_jobs):
        baseline = int(rng.integers(400, 1500))
        peak = int(rng.integers(8000, 14_000))
        jobs.append(
            BurstyJob(
                name=f"bursty-{index}",
                submit_time=float(submit_times[index]),
                duration=float(rng.uniform(90.0, 240.0)),
                baseline_pages=baseline,
                peak_pages=peak,
                burst_start_fraction=float(rng.uniform(0.2, 0.5)),
                burst_length_fraction=float(rng.uniform(0.15, 0.3)),
            )
        )
    return jobs


@dataclass
class ModeResult:
    """Outcome of one hardware mode's run."""

    sgx_version: int
    makespan_seconds: float
    mean_wait_seconds: float
    total_stall_seconds: float
    completed: int


@dataclass
class ExtSgx2Result:
    """Both modes, same workload."""

    sgx1: ModeResult
    sgx2: ModeResult

    @property
    def makespan_speedup(self) -> float:
        """How much earlier SGX 2 finishes the batch."""
        return self.sgx1.makespan_seconds / self.sgx2.makespan_seconds


class _BurstyRun:
    """Mini event-driven run of the bursty workload on one mode."""

    def __init__(self, jobs: List[BurstyJob], sgx_version: int):
        self.jobs = jobs
        self.sgx_version = sgx_version
        self.cluster = paper_cluster(sgx_version=sgx_version)
        self.orchestrator = Orchestrator(self.cluster)
        self.scheduler = SCHEDULERS.get("binpack")()
        self.engine = SimulationEngine()
        self.by_pod_name: Dict[str, BurstyJob] = {j.name: j for j in jobs}
        self.stall_seconds: Dict[str, float] = {}
        self.unsubmitted = len(jobs)
        self.running = 0

    def _spec(self, job: BurstyJob) -> PodSpec:
        committed = (
            job.peak_pages if self.sgx_version == 1 else job.baseline_pages
        )
        return PodSpec(
            name=job.name,
            resources=ResourceRequirements(
                # Declared request/limit is the peak in both modes: the
                # user must still advertise the most they will own.
                requests=ResourceVector(epc_pages=job.peak_pages)
            ),
            workload=WorkloadProfile(
                duration_seconds=job.duration, epc_pages=committed
            ),
        )

    # -- event handlers ------------------------------------------------

    def _active(self) -> bool:
        return (
            self.unsubmitted > 0
            or self.running > 0
            or len(self.orchestrator.queue) > 0
        )

    def _submit(self, job: BurstyJob) -> None:
        self.unsubmitted -= 1
        self.orchestrator.submit(self._spec(job), self.engine.now)

    def _metrics_tick(self) -> None:
        self.orchestrator.collect_metrics(self.engine.now)
        if self._active():
            self.engine.schedule_in(
                METRICS_PUSH_PERIOD_SECONDS, self._metrics_tick
            )

    def _scheduler_tick(self) -> None:
        result = self.orchestrator.scheduling_pass(
            self.scheduler, self.engine.now
        )
        for pod, startup in result.launched:
            self.running += 1
            self.engine.schedule_in(startup, lambda p=pod: self._start(p))
        if self._active():
            self.engine.schedule_in(
                SCHEDULER_PERIOD_SECONDS, self._scheduler_tick
            )

    def _start(self, pod: Pod) -> None:
        self.orchestrator.start_pod(pod, self.engine.now)
        job = self.by_pod_name[pod.name]
        if self.sgx_version >= 2:
            self.engine.schedule_in(
                job.burst_start_fraction * job.duration,
                lambda: self._try_grow(pod),
            )
        else:
            self.engine.schedule_in(
                job.duration, lambda: self._finish(pod)
            )

    def _try_grow(self, pod: Pod) -> None:
        """EAUG at burst time; retry while the EPC is full (stall)."""
        job = self.by_pod_name[pod.name]
        kubelet = self.orchestrator.kubelets[pod.node_name]
        try:
            kubelet.grow_pod_epc(pod, job.burst_pages)
        except EpcExhaustedError:
            self.stall_seconds[pod.name] = (
                self.stall_seconds.get(pod.name, 0.0) + GROW_RETRY_SECONDS
            )
            self.engine.schedule_in(
                GROW_RETRY_SECONDS, lambda: self._try_grow(pod)
            )
            return
        burst_len = job.burst_length_fraction * job.duration
        self.engine.schedule_in(burst_len, lambda: self._shrink(pod))

    def _shrink(self, pod: Pod) -> None:
        job = self.by_pod_name[pod.name]
        kubelet = self.orchestrator.kubelets[pod.node_name]
        kubelet.shrink_pod_epc(pod, job.burst_pages)
        tail = (
            1.0
            - job.burst_start_fraction
            - job.burst_length_fraction
        ) * job.duration
        self.engine.schedule_in(max(0.0, tail), lambda: self._finish(pod))

    def _finish(self, pod: Pod) -> None:
        self.running -= 1
        self.orchestrator.complete_pod(pod, self.engine.now)

    # -- main ------------------------------------------------------------

    def run(self) -> ModeResult:
        for job in self.jobs:
            self.engine.schedule_at(
                job.submit_time, lambda j=job: self._submit(j)
            )
        self.engine.schedule_at(0.0, self._metrics_tick)
        self.engine.schedule_at(
            SCHEDULER_PERIOD_SECONDS / 2.0, self._scheduler_tick
        )
        self.engine.run(until=24 * 3600.0)
        pods = self.orchestrator.all_pods
        waits = [
            p.waiting_seconds for p in pods if p.waiting_seconds is not None
        ]
        return ModeResult(
            sgx_version=self.sgx_version,
            makespan_seconds=max(
                p.finished_at for p in pods if p.finished_at is not None
            ),
            mean_wait_seconds=sum(waits) / len(waits) if waits else 0.0,
            total_stall_seconds=sum(self.stall_seconds.values()),
            completed=sum(
                1 for p in pods if p.phase.value == "Succeeded"
            ),
        )


def run_ext_sgx2(
    n_jobs: int = 80, seed: int = 0
) -> ExtSgx2Result:
    """Run the bursty workload on SGX 1 and SGX 2 hardware."""
    jobs = generate_bursty_jobs(n_jobs=n_jobs, seed=seed)
    return ExtSgx2Result(
        sgx1=_BurstyRun(jobs, sgx_version=1).run(),
        sgx2=_BurstyRun(jobs, sgx_version=2).run(),
    )


def format_ext_sgx2(result: ExtSgx2Result) -> str:
    """The table the bench prints: SGX 1 vs SGX 2 on the same workload."""
    rows = []
    for mode in (result.sgx1, result.sgx2):
        rows.append(
            (
                f"SGX {mode.sgx_version}",
                mode.makespan_seconds,
                mode.mean_wait_seconds,
                mode.total_stall_seconds,
                mode.completed,
            )
        )
    return format_table(
        [
            "hardware",
            "makespan [s]",
            "mean wait [s]",
            "growth stalls [s]",
            "completed",
        ],
        rows,
    )
