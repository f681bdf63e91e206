"""Kubernetes-like control plane.

Models the slice of Kubernetes the paper builds on: pod specifications
with resource requests/limits (:mod:`repro.orchestrator.api`), a
persistent FCFS pending queue (:mod:`repro.orchestrator.queue`), node
agents that admit pods, set up cgroups, relay EPC limits to the driver
and advertise each usable EPC page as a resource item
(:mod:`repro.orchestrator.kubelet`), and the orchestrator facade tying
everything together (:mod:`repro.orchestrator.controller`), whose
``probes`` keep one SGX probe per node that advertises EPC (the
paper's DaemonSet).
"""

from .api import (
    PodPhase,
    PodSpec,
    ResourceRequirements,
    WorkloadProfile,
)
from .controller import Orchestrator
from .kubelet import Kubelet
from .pod import Pod
from .queue import PendingQueue

__all__ = [
    "Kubelet",
    "Orchestrator",
    "PendingQueue",
    "Pod",
    "PodPhase",
    "PodSpec",
    "ResourceRequirements",
    "WorkloadProfile",
]
