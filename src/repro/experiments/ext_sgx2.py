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

Each mode replays the batch through the replay driver every figure
uses (:class:`~repro.simulation.runner._Replay`) on the paper's testbed.
Reported: makespan, mean waiting time and growth-stall totals for both
modes.  The SGX 2 run finishes the batch strictly earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..api import Scenario
from ..cluster.resources import ResourceVector
from ..errors import EpcExhaustedError
from ..orchestrator.api import (
    PodSpec,
    ResourceRequirements,
    WorkloadProfile,
)
from ..orchestrator.pod import Pod
from ..simulation.runner import _Replay, _RunningJob
from ..trace.schema import Trace
from ..workload.stress import SubmissionPlan
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


class _BurstyReplay(_Replay):
    """The bursty batch replayed on one hardware mode.

    A started job's finish is armed at its duration, as in any replay.
    On SGX 2 the job grows its enclave to the peak after
    ``burst_start_fraction`` of its runtime, retrying every
    :data:`GROW_RETRY_SECONDS` while the EPC cannot satisfy the EAUG
    (each retry is work added to the job: the stall), and shrinks back
    after ``burst_length_fraction``; the rest of its runtime is the
    tail.  Without EPC over-commit no node pages, so every job runs at
    full speed.
    """

    __slots__ = ("sgx_version", "bursts", "stall_seconds")

    def __init__(self, jobs: List[BurstyJob], sgx_version: int):
        self.sgx_version = sgx_version
        # The paper's testbed with its driver defaults: limits
        # enforced, no EPC over-commit; the plans replace the trace's.
        super().__init__(
            Scenario(
                trace=Trace(),
                enforce_epc_limits=True,
                epc_allow_overcommit=False,
            )
        )
        self.bursts: Dict[str, BurstyJob] = {job.name: job for job in jobs}
        self.stall_seconds: Dict[str, float] = {}
        self.plans = [
            SubmissionPlan(job.submit_time, self._spec(job), index, True)
            for index, job in enumerate(jobs)
        ]

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

    def _start(self, pod: Pod) -> None:
        super()._start(pod)
        if self.sgx_version >= 2:
            job = self.running[pod.uid]
            burst = self.bursts[pod.name]
            self.engine.schedule_in(
                burst.burst_start_fraction * burst.duration,
                lambda: self._grow(job, burst),
            )

    def _grow(self, job: _RunningJob, burst: BurstyJob) -> None:
        """EAUG at burst time; retry while the EPC is full (stall)."""
        kubelet = self.orchestrator.kubelets[job.node_name]
        try:
            kubelet.grow_pod_epc(job.pod, burst.burst_pages)
        except EpcExhaustedError:
            name = job.pod.name
            self.stall_seconds[name] = (
                self.stall_seconds.get(name, 0.0) + GROW_RETRY_SECONDS
            )
            job.bank(self.engine.now)
            job.remaining_work += GROW_RETRY_SECONDS
            self._arm(job, job.remaining_work * job.slowdown)
            self.engine.schedule_in(
                GROW_RETRY_SECONDS, lambda: self._grow(job, burst)
            )
            return
        self.engine.schedule_in(
            burst.burst_length_fraction * burst.duration,
            lambda: self._shrink(job, burst),
        )

    def _shrink(self, job: _RunningJob, burst: BurstyJob) -> None:
        """Shrink back to the baseline; the tail is what is left, so
        the finish lands on start + burst start + stalls + burst +
        tail, summed in that order."""
        kubelet = self.orchestrator.kubelets[job.node_name]
        kubelet.shrink_pod_epc(job.pod, burst.burst_pages)
        job.bank(self.engine.now)
        tail = (
            1.0
            - burst.burst_start_fraction
            - burst.burst_length_fraction
        ) * burst.duration
        job.remaining_work = max(0.0, tail)
        self._arm(job, job.remaining_work * job.slowdown)


def _run_mode(jobs: List[BurstyJob], sgx_version: int) -> ModeResult:
    """Replay *jobs* on one hardware mode."""
    replay = _BurstyReplay(jobs, sgx_version)
    metrics = replay.run().metrics
    waits = metrics.waiting_times(metrics.pods)
    return ModeResult(
        sgx_version=sgx_version,
        makespan_seconds=metrics.makespan_seconds,
        mean_wait_seconds=sum(waits) / len(waits) if waits else 0.0,
        total_stall_seconds=sum(replay.stall_seconds.values()),
        completed=len(metrics.succeeded),
    )


def run_ext_sgx2(
    n_jobs: int = 80, seed: int = 0
) -> ExtSgx2Result:
    """Run the bursty workload on SGX 1 and SGX 2 hardware."""
    jobs = generate_bursty_jobs(n_jobs=n_jobs, seed=seed)
    return ExtSgx2Result(
        sgx1=_run_mode(jobs, sgx_version=1),
        sgx2=_run_mode(jobs, sgx_version=2),
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
