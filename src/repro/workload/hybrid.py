"""Hybrid trusted/untrusted workloads (the paper's future work).

The conclusion plans support for "hybrid processes running trusted and
untrusted code".  Where the paper's evaluation assumes jobs execute
"entirely in enclaves, minus a part responsible for bootstrapping"
(Section IV), a hybrid job keeps a substantial *untrusted* working set
in standard memory next to its enclave — think of a database whose
query engine is enclave-protected while its page cache is not.

Scheduling-wise this is a genuinely two-dimensional bin-packing
problem on the SGX nodes only: the enclave part pins the job to SGX
hardware, while the untrusted part competes for those nodes' small RAM
(8 GiB on the paper's i7 machines, versus 64 GiB on the standard
workers).  Past a certain untrusted share, RAM — not the EPC — becomes
the binding constraint and EPC capacity strands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..cluster.resources import ResourceVector
from ..errors import TraceError
from ..orchestrator.api import PodSpec, ResourceRequirements, WorkloadProfile
from ..registry import register_workload
from ..units import gib, mib
from ..units import pages as bytes_to_pages
from .stress import SubmissionPlan


@dataclass(frozen=True)
class HybridStressor:
    """A process pinning both enclave pages and untrusted RAM."""

    epc_bytes: int
    memory_bytes: int

    def __post_init__(self):
        if self.epc_bytes <= 0:
            raise TraceError(
                "hybrid jobs need a trusted part; use VmStressor instead"
            )
        if self.memory_bytes < 0:
            raise TraceError(f"negative memory: {self.memory_bytes}")

    def profile(self, duration_seconds: float) -> WorkloadProfile:
        """The workload this stressor produces when run for *duration*."""
        return WorkloadProfile(
            duration_seconds=duration_seconds,
            memory_bytes=self.memory_bytes,
            epc_pages=bytes_to_pages(self.epc_bytes),
        )


def hybrid_pod_spec(
    name: str,
    duration_seconds: float,
    declared_epc_bytes: int,
    declared_memory_bytes: int,
) -> PodSpec:
    """A pod requesting both EPC pages and standard memory.

    Declared values double as the actual working set (honest hybrid
    jobs); the scheduler must satisfy *both* dimensions on one SGX
    node.
    """
    stressor = HybridStressor(
        epc_bytes=declared_epc_bytes, memory_bytes=declared_memory_bytes
    )
    return PodSpec(
        name=name,
        resources=ResourceRequirements(
            requests=ResourceVector(
                memory_bytes=declared_memory_bytes,
                epc_pages=bytes_to_pages(declared_epc_bytes),
            )
        ),
        workload=stressor.profile(duration_seconds),
        labels={"origin": "hybrid"},
    )


@register_workload("hybrid")
def hybrid_plans(
    cluster,
    trace=None,
    *,
    sgx_fraction: float = 1.0,
    seed: int = 0,
    n_jobs: int = 60,
    window_seconds: float = 900.0,
    min_duration_seconds: float = 60.0,
    max_duration_seconds: float = 180.0,
    min_epc_bytes: int = mib(6),
    max_epc_bytes: int = mib(20),
    memory_bytes: int = int(gib(1)),
) -> List[SubmissionPlan]:
    """Registry entry: a seeded hybrid trusted/untrusted population.

    The ``ext-hybrid`` experiment's workload as a reusable scenario
    ingredient: *n_jobs* jobs arrive uniformly over *window_seconds*,
    each pinning a small enclave plus ``memory_bytes`` of untrusted
    RAM on the same SGX node.  ``trace`` and ``sgx_fraction`` are part
    of the uniform factory signature but unused — every hybrid job
    requires SGX by construction.
    """
    if n_jobs <= 0:
        raise TraceError(f"n_jobs must be positive: {n_jobs}")
    rng = np.random.default_rng(seed)
    submit_times = np.sort(rng.uniform(0.0, window_seconds, size=n_jobs))
    plans: List[SubmissionPlan] = []
    for index in range(n_jobs):
        duration = float(
            rng.uniform(min_duration_seconds, max_duration_seconds)
        )
        spec = hybrid_pod_spec(
            f"hybrid-{index}",
            duration_seconds=duration,
            declared_epc_bytes=int(
                rng.uniform(min_epc_bytes, max_epc_bytes)
            ),
            declared_memory_bytes=memory_bytes,
        )
        plans.append(
            SubmissionPlan(
                submit_time=float(submit_times[index]),
                spec=spec,
                job_id=index,
                is_sgx=True,
            )
        )
    return plans


#: The population is synthesised from the seed; Scenario.run skips the
#: trace synthesis entirely for this workload.
hybrid_plans.consumes_trace = False
