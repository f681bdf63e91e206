"""STRESS-SGX / stress-ng job models and trace materialisation.

Section VI-B/VI-C: each trace job becomes a container around STRESS-SGX.
The *assigned memory* fraction is what the job declares to Kubernetes;
the *maximal memory usage* fraction is what the stressor actually
allocates.  Fractions map to bytes with the paper's multipliers — 32 GiB
for standard jobs, the usable EPC size (93.5 MiB) for SGX jobs — chosen
so both populations exercise their respective memory in comparable
relative terms.

SGX designation is arbitrary in the paper ("we arbitrarily designate a
subset of trace jobs as SGX-enabled"); :func:`materialize_trace` draws
that subset with a seeded RNG so runs are reproducible, taking the SGX
percentage 0..100 % that Fig. 8 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..cluster.resources import ResourceVector
from ..constants import (
    SGX_MEMORY_MULTIPLIER_BYTES,
    STANDARD_MEMORY_MULTIPLIER_BYTES,
)
from ..errors import TraceError
from ..orchestrator.api import PodSpec, ResourceRequirements, WorkloadProfile
from ..registry import register_workload
from ..trace.schema import Trace
from ..units import pages as bytes_to_pages


@dataclass(frozen=True)
class VmStressor:
    """stress-ng's virtual-memory stressor: pins standard RAM."""

    target_bytes: int

    def profile(self, duration_seconds: float) -> WorkloadProfile:
        """The workload this stressor produces when run for *duration*."""
        return WorkloadProfile(
            duration_seconds=duration_seconds,
            memory_bytes=self.target_bytes,
            epc_pages=0,
        )


@dataclass(frozen=True)
class EpcStressor:
    """STRESS-SGX's EPC stressor: pins enclave memory."""

    target_bytes: int

    def profile(self, duration_seconds: float) -> WorkloadProfile:
        """The workload this stressor produces when run for *duration*."""
        return WorkloadProfile(
            duration_seconds=duration_seconds,
            memory_bytes=0,
            epc_pages=bytes_to_pages(self.target_bytes),
        )


@dataclass(frozen=True)
class SubmissionPlan:
    """One pod submission: when, and what."""

    submit_time: float
    spec: PodSpec
    job_id: int
    is_sgx: bool


@register_workload("stress")
def stress_plans(
    cluster,
    trace: Trace,
    *,
    sgx_fraction: float = 0.0,
    seed: int = 0,
    **options,
) -> List[SubmissionPlan]:
    """Registry entry: the paper's STRESS-SGX trace materialisation.

    The default workload of every scenario.  ``cluster`` is part of
    the uniform workload-factory signature but unused — trace jobs are
    sized by the paper's multipliers, not by the inventory (pass
    ``standard_multiplier_bytes``/``sgx_multiplier_bytes`` via
    ``workload_options`` to change that).
    """
    if trace is None:
        raise TraceError("the 'stress' workload replays a trace")
    return materialize_trace(
        trace,
        sgx_fraction=sgx_fraction,
        seed=seed,
        **options,
    )


def materialize_trace(
    trace: Trace,
    sgx_fraction: float = 0.0,
    seed: int = 0,
    standard_multiplier_bytes: int = STANDARD_MEMORY_MULTIPLIER_BYTES,
    sgx_multiplier_bytes: int = SGX_MEMORY_MULTIPLIER_BYTES,
    priority: int = 0,
) -> List[SubmissionPlan]:
    """Turn a scaled trace into timed pod submissions.

    ``sgx_fraction`` of the jobs (chosen with the seeded RNG, exact
    count) become EPC-stressor pods; the rest are VM-stressor pods.
    Declared requests come from the job's *assigned* fraction, the
    stressor's actual allocation from its *max usage* fraction.
    ``priority`` stamps every pod with one scheduling tier (scenarios
    may pass a class name; the engine resolves it to the integer
    before it reaches here).
    """
    if not 0.0 <= sgx_fraction <= 1.0:
        raise TraceError(f"sgx fraction outside [0, 1]: {sgx_fraction}")
    jobs = trace.jobs
    n_sgx = int(round(sgx_fraction * len(jobs)))
    rng = np.random.default_rng(seed)
    sgx_indices = set(
        rng.choice(len(jobs), size=n_sgx, replace=False).tolist()
        if n_sgx
        else []
    )
    plans: List[SubmissionPlan] = []
    for index, job in enumerate(jobs):
        is_sgx = index in sgx_indices
        if is_sgx:
            declared = ResourceVector(
                epc_pages=bytes_to_pages(
                    int(job.assigned_memory * sgx_multiplier_bytes)
                )
            )
            stressor_profile = EpcStressor(
                target_bytes=int(job.max_memory * sgx_multiplier_bytes)
            ).profile(job.duration)
            name = f"sgx-job-{job.job_id}"
        else:
            declared = ResourceVector(
                memory_bytes=int(
                    job.assigned_memory * standard_multiplier_bytes
                )
            )
            stressor_profile = VmStressor(
                target_bytes=int(job.max_memory * standard_multiplier_bytes)
            ).profile(job.duration)
            name = f"std-job-{job.job_id}"
        spec = PodSpec(
            name=name,
            resources=ResourceRequirements(requests=declared),
            workload=stressor_profile,
            labels={"origin": "borg-trace", "job_id": str(job.job_id)},
            priority=priority,
        )
        plans.append(
            SubmissionPlan(
                submit_time=job.submit_time,
                spec=spec,
                job_id=job.job_id,
                is_sgx=is_sgx,
            )
        )
    return plans
