"""Kubernetes-like control plane.

Models the slice of Kubernetes the paper builds on: pod specifications
with resource requests/limits (:mod:`repro.orchestrator.api`), a
persistent FCFS pending queue (:mod:`repro.orchestrator.queue`), node
agents that admit pods, set up cgroups and relay EPC limits to the driver
(:mod:`repro.orchestrator.kubelet`), the SGX device plugin advertising
each EPC page as a resource item (:mod:`repro.orchestrator.device_plugin`)
over a gRPC-like channel (:mod:`repro.orchestrator.rpc`), DaemonSets that
keep one probe per SGX node (:mod:`repro.orchestrator.daemonset`), the
hub that counts and records cluster transitions
(:mod:`repro.orchestrator.triggers`) and the orchestrator facade tying
everything together (:mod:`repro.orchestrator.controller`).
"""

from .api import (
    SGX_EPC_RESOURCE,
    PodPhase,
    PodSpec,
    ResourceRequirements,
    WorkloadProfile,
)
from .controller import Orchestrator
from .daemonset import DaemonSet, DaemonSetController
from .device_plugin import DevicePluginRegistry, SgxDevicePlugin
from .kubelet import Kubelet
from .pod import Pod
from .queue import PendingQueue
from .rpc import RpcChannel, RpcServer
from .triggers import ClusterEvent, SchedulingTrigger

__all__ = [
    "ClusterEvent",
    "DaemonSet",
    "DaemonSetController",
    "DevicePluginRegistry",
    "Kubelet",
    "Orchestrator",
    "PendingQueue",
    "Pod",
    "PodPhase",
    "PodSpec",
    "ResourceRequirements",
    "RpcChannel",
    "RpcServer",
    "SGX_EPC_RESOURCE",
    "SchedulingTrigger",
    "SgxDevicePlugin",
    "WorkloadProfile",
]
