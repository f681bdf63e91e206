"""API objects: pod specifications, resource requirements, phases.

Follows the Kubernetes resource model the paper plugs into (Section V-A):
users declare **requests** (what the scheduler reserves) and **limits**
(what enforcement caps) per resource.  EPC is a resource counted in
pages, each usable page one schedulable item (the paper's device
plugin; a node's count is ``node.capacity.epc_pages``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..cluster.resources import ResourceVector
from ..errors import PodSpecError
from ..units import pages as bytes_to_pages


class PodPhase(enum.Enum):
    """Lifecycle phases of a pod, Kubernetes-flavoured."""

    PENDING = "Pending"        # submitted, waiting in the queue
    BOUND = "Bound"            # assigned to a node, starting up
    RUNNING = "Running"        # processes started
    SUCCEEDED = "Succeeded"    # finished normally
    FAILED = "Failed"          # killed (limit violation, unschedulable...)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_terminal(self) -> bool:
        """Whether the pod will never transition again."""
        return self in (PodPhase.SUCCEEDED, PodPhase.FAILED)


@dataclass(frozen=True, slots=True)
class ResourceRequirements:
    """Declared requests and limits, as in a pod manifest.

    ``requests`` drive scheduling; ``limits`` drive enforcement.  When a
    limit is omitted (zero vector), it defaults to the request, matching
    the common Kubernetes idiom.
    """

    requests: ResourceVector = field(default_factory=ResourceVector.zero)
    limits: Optional[ResourceVector] = None

    def __post_init__(self):
        if not self.requests.is_nonnegative:
            raise PodSpecError(f"negative requests: {self.requests}")
        if self.limits is not None and not self.limits.is_nonnegative:
            raise PodSpecError(f"negative limits: {self.limits}")

    @property
    def effective_limits(self) -> ResourceVector:
        """Limits, defaulted to requests when unset."""
        return self.limits if self.limits is not None else self.requests

    @property
    def requires_sgx(self) -> bool:
        """Whether any EPC is requested (pod must land on an SGX node)."""
        return self.requests.epc_pages > 0


@dataclass(frozen=True, slots=True)
class WorkloadProfile:
    """Ground truth of what the container actually does when it runs.

    The trace supplies *assigned memory* (what the job declares) and
    *maximal memory usage* (what it really consumes); this profile carries
    the latter plus the job's useful runtime.  The gap between declaration
    and usage is precisely what the paper's measured-usage scheduler and
    limit enforcement are about.
    """

    duration_seconds: float
    memory_bytes: int = 0
    epc_pages: int = 0

    def __post_init__(self):
        if self.duration_seconds < 0:
            raise PodSpecError(
                f"negative duration: {self.duration_seconds}"
            )
        if self.memory_bytes < 0 or self.epc_pages < 0:
            raise PodSpecError("negative actual usage")

    @property
    def uses_sgx(self) -> bool:
        """Whether the workload allocates enclave memory at all."""
        return self.epc_pages > 0


@dataclass(frozen=True, slots=True)
class PodSpec:
    """A pod manifest: resources, labels, workload and priority.

    ``priority`` is an integer tier (a built-in tier's value from
    :data:`repro.policy.classes.PRIORITY_CLASSES`, or any int): the
    pending queue orders tiers by it (higher first, FCFS within a
    tier) and the preemption planners only evict strictly lower
    tiers.  The default of 0 (``best-effort``) reproduces the paper's
    priority-free orchestrator exactly.
    """

    name: str
    resources: ResourceRequirements = field(
        default_factory=ResourceRequirements
    )
    labels: Dict[str, str] = field(default_factory=dict)
    workload: Optional[WorkloadProfile] = None
    priority: int = 0

    def __post_init__(self):
        if not self.name:
            raise PodSpecError("pod name must be non-empty")
        if not isinstance(self.priority, int) or isinstance(
            self.priority, bool
        ):
            raise PodSpecError(
                f"pod priority must be an int, got {self.priority!r}"
            )

    @property
    def requires_sgx(self) -> bool:
        """Whether this pod must be placed on an SGX-capable node."""
        return self.resources.requires_sgx


def make_pod_spec(
    name: str,
    duration_seconds: float,
    declared_memory_bytes: int = 0,
    declared_epc_bytes: int = 0,
    actual_memory_bytes: Optional[int] = None,
    actual_epc_bytes: Optional[int] = None,
    priority: int = 0,
) -> PodSpec:
    """Convenience constructor used by the trace materialiser.

    Declared values populate requests *and* limits (the paper's users
    specify one number per resource); actual values populate the workload
    profile and default to the declared ones.
    """
    requests = ResourceVector(
        cpu_millicores=0,
        memory_bytes=declared_memory_bytes,
        epc_pages=bytes_to_pages(declared_epc_bytes),
    )
    if actual_memory_bytes is None:
        actual_memory_bytes = declared_memory_bytes
    if actual_epc_bytes is None:
        actual_epc_bytes = declared_epc_bytes
    workload = WorkloadProfile(
        duration_seconds=duration_seconds,
        memory_bytes=actual_memory_bytes,
        epc_pages=bytes_to_pages(actual_epc_bytes),
    )
    return PodSpec(
        name=name,
        resources=ResourceRequirements(requests=requests),
        workload=workload,
        priority=priority,
    )
