"""Machine model: one physical node of the heterogeneous cluster.

A node bundles the hardware the orchestrator cares about — CPUs, RAM and,
on SGX machines, the EPC with its patched driver — plus the kernel-side
structures (cgroup hierarchy, pid namespace) that the paper's
limit-enforcement channel runs through.

Nodes know nothing about pods; the Kubelet (:mod:`repro.orchestrator.
kubelet`) layers pod admission on top.  The node only tracks *processes*
and their memory, which is what the probes measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from ..constants import (
    EPC_TOTAL_BYTES,
    SGX_NODE_CPUS,
    SGX_NODE_MEMORY_BYTES,
    STANDARD_NODE_CPUS,
    STANDARD_NODE_MEMORY_BYTES,
)
from ..errors import NodeError
from ..sgx.driver import SgxDriver
from ..sgx.epc import EnclavePageCache
from .cgroups import CgroupHierarchy
from .resources import ResourceVector


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a machine's hardware."""

    name: str
    cpus: int
    memory_bytes: int
    sgx_capable: bool = False
    #: PRM size; only meaningful on SGX machines.  Fig. 7 sweeps this.
    epc_total_bytes: int = EPC_TOTAL_BYTES
    #: Whether the node's driver allows EPC over-commitment (paging).
    epc_allow_overcommit: bool = False
    #: Whether the driver enforces per-pod EPC limits (Fig. 11 toggle).
    enforce_epc_limits: bool = True
    #: SGX architecture revision: 1 (current) or 2 (EDMM, Sec. VI-G).
    sgx_version: int = 1

    @classmethod
    def standard(cls, name: str) -> "NodeSpec":
        """A Dell R330-class worker: Xeon E3-1270 v6, 64 GiB, no SGX."""
        return cls(
            name=name,
            cpus=STANDARD_NODE_CPUS,
            memory_bytes=STANDARD_NODE_MEMORY_BYTES,
            sgx_capable=False,
        )

    @classmethod
    def sgx(
        cls,
        name: str,
        epc_total_bytes: int = EPC_TOTAL_BYTES,
        enforce_epc_limits: bool = True,
        epc_allow_overcommit: bool = False,
        sgx_version: int = 1,
    ) -> "NodeSpec":
        """An i7-6700-class SGX worker: 8 GiB RAM, 128 MiB PRM."""
        return cls(
            name=name,
            cpus=SGX_NODE_CPUS,
            memory_bytes=SGX_NODE_MEMORY_BYTES,
            sgx_capable=True,
            epc_total_bytes=epc_total_bytes,
            enforce_epc_limits=enforce_epc_limits,
            epc_allow_overcommit=epc_allow_overcommit,
            sgx_version=sgx_version,
        )


class Node:
    """A live machine: hardware spec plus kernel state."""

    def __init__(self, spec: NodeSpec):
        self.spec = spec
        self.cgroups = CgroupHierarchy()
        self._pids = itertools.count(1000)
        self._process_memory: Dict[int, int] = {}
        if spec.sgx_capable:
            self.epc: Optional[EnclavePageCache] = EnclavePageCache(
                total_bytes=spec.epc_total_bytes,
                allow_overcommit=spec.epc_allow_overcommit,
            )
            self.driver: Optional[SgxDriver] = SgxDriver(
                self.epc,
                enforce_limits=spec.enforce_epc_limits,
                sgx_version=spec.sgx_version,
            )
        else:
            self.epc = None
            self.driver = None
        # Hardware never changes after construction, so the capacity
        # vector is built once; the scheduler reads it on every view
        # build of every pass (it is immutable, sharing is safe).
        self._capacity = ResourceVector(
            cpu_millicores=spec.cpus * 1000,
            memory_bytes=spec.memory_bytes,
            epc_pages=self.epc.total_pages if self.epc is not None else 0,
        )

    @property
    def name(self) -> str:
        """The node's cluster-unique name."""
        return self.spec.name

    @property
    def sgx_capable(self) -> bool:
        """Whether the node has a functioning SGX driver."""
        return self.driver is not None

    # -- capacity -------------------------------------------------------------

    @property
    def capacity(self) -> ResourceVector:
        """Allocatable resources, as advertised to the control plane.

        EPC capacity is the *usable* page count the paper's device
        plugin exposes as individual resource items (Section V-A); the
        node's kubelet advertises exactly this count.
        """
        return self._capacity

    # -- process lifecycle ---------------------------------------------------

    def spawn_process(
        self, cgroup_path: str, memory_bytes: int = 0
    ) -> int:
        """Start a process inside *cgroup_path*; returns its pid.

        ``memory_bytes`` is the process's standard (non-EPC) resident
        memory, visible to the Heapster-like collector.
        """
        if memory_bytes < 0:
            raise NodeError(f"negative memory: {memory_bytes}")
        if not self.cgroups.exists(cgroup_path):
            raise NodeError(f"no such cgroup on {self.name}: {cgroup_path!r}")
        pid = next(self._pids)
        self.cgroups.attach(pid, cgroup_path)
        self._process_memory[pid] = memory_bytes
        if self.driver is not None:
            self.driver.register_process(pid, cgroup_path)
        return pid

    def kill_process(self, pid: int) -> None:
        """Terminate a process, tearing down its enclaves. Idempotent."""
        if pid not in self._process_memory:
            return
        if self.driver is not None:
            self.driver.unregister_process(pid)
        self.cgroups.detach(pid)
        del self._process_memory[pid]

    # -- measured usage (what probes report) ------------------------------

    def used_memory_bytes(self) -> int:
        """Total resident standard memory across all processes."""
        return sum(self._process_memory.values())

    def cgroup_memory_bytes(self, cgroup_path: str) -> int:
        """Resident standard memory of one cgroup subtree."""
        group = self.cgroups.get(cgroup_path)
        memory = self._process_memory
        if not group.children:
            # Pod cgroups are leaves: their subtree pid set is their
            # own, so the walk/union of ``all_pids`` is skipped on the
            # per-pod-per-probe-tick path.
            total = 0
            for pid in group.pids:
                total += memory.get(pid, 0)
            return total
        return sum(memory.get(pid, 0) for pid in group.all_pids())

    def used_epc_pages(self) -> int:
        """EPC pages currently allocated on this node (0 if non-SGX)."""
        return self.epc.allocated_pages if self.epc is not None else 0

    def __repr__(self) -> str:
        kind = "sgx" if self.sgx_capable else "standard"
        return f"Node({self.name!r}, {kind}, capacity={self.capacity})"
