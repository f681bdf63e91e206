"""Malicious containers: the adversarial workload of Section VI-F.

"The modus operandi of these containers is to declare 1 page of EPC as
limit and request in their pod specification, but actually use way more:
up to 50 % of the total EPC available on the machine they execute on.
We deploy as many of them as there are SGX-enabled nodes in the
cluster."

With limit enforcement on, the driver denies their enclave at EINIT and
they die immediately; with enforcement off, they squat EPC that honest
pods then contend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..cluster.resources import ResourceVector
from ..cluster.topology import Cluster
from ..errors import TraceError
from ..orchestrator.api import PodSpec, ResourceRequirements, WorkloadProfile
from ..registry import register_workload
from .stress import SubmissionPlan


@dataclass(frozen=True)
class MaliciousConfig:
    """Parameters of the malicious deployment.

    ``epc_occupancy`` is the fraction of a node's usable EPC each
    malicious container actually allocates (Fig. 11 uses 25 % and 50 %).
    ``duration_seconds`` defaults to effectively the whole experiment:
    the squatters never leave on their own.
    """

    epc_occupancy: float = 0.5
    declared_pages: int = 1
    duration_seconds: float = 6 * 3600.0
    submit_time: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epc_occupancy <= 1.0:
            raise TraceError(
                f"occupancy outside (0, 1]: {self.epc_occupancy}"
            )
        if self.declared_pages < 1:
            raise TraceError("malicious pods must declare at least 1 page")


@register_workload("malicious")
def malicious_plans(
    cluster: Cluster,
    trace=None,
    *,
    sgx_fraction: float = 0.0,
    seed: int = 0,
    config: MaliciousConfig = None,
    **options,
) -> List[SubmissionPlan]:
    """Registry entry: the Section VI-F squatter deployment alone.

    As a scenario's primary workload this deploys *only* the malicious
    containers (one per SGX node); a trace replay with squatters on
    the side keeps using ``Scenario(malicious=MaliciousConfig(...))``,
    which composes this entry with the trace workload.  ``trace``,
    ``sgx_fraction`` and ``seed`` are part of the uniform factory
    signature but unused — the deployment is derived from the cluster
    inventory.  Options (``epc_occupancy``, ``declared_pages``, ...)
    feed :class:`MaliciousConfig` unless a ``config`` is given.
    """
    if config is None:
        config = MaliciousConfig(**options)
    elif options:
        raise TraceError(
            "pass either a MaliciousConfig or its fields, not both"
        )
    return malicious_submissions(cluster, config)


#: The deployment is derived from the cluster inventory; Scenario.run
#: skips the trace synthesis entirely for this workload.
malicious_plans.consumes_trace = False


def malicious_submissions(
    cluster: Cluster, config: MaliciousConfig
) -> List[SubmissionPlan]:
    """One malicious pod per SGX node, per the paper's deployment."""
    plans: List[SubmissionPlan] = []
    for index, node in enumerate(cluster.sgx_nodes):
        assert node.epc is not None
        actual_pages = max(
            config.declared_pages,
            int(node.epc.total_pages * config.epc_occupancy),
        )
        spec = PodSpec(
            name=f"malicious-{index}",
            resources=ResourceRequirements(
                requests=ResourceVector(epc_pages=config.declared_pages)
            ),
            workload=WorkloadProfile(
                duration_seconds=config.duration_seconds,
                memory_bytes=0,
                epc_pages=actual_pages,
            ),
            labels={"origin": "malicious"},
        )
        plans.append(
            SubmissionPlan(
                submit_time=config.submit_time,
                spec=spec,
                job_id=-(index + 1),
                is_sgx=True,
            )
        )
    return plans
