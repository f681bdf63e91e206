"""Kubelet: the per-node agent.

On pod admission the Kubelet reproduces the paper's node-side pipeline
(Sections V-A, V-D):

1. create the pod's cgroup *before* any container starts — the cgroup
   path doubles as the pod identifier for the driver;
2. communicate the pod's advertised EPC page limit to the SGX driver via
   the new ioctl (the 16 lines of Go + 22 of C in the paper's Kubelet
   patch);
3. mount ``/dev/isgx`` into pods that requested EPC items and start the
   container: boot the per-container PSW, create the enclave — committing
   the workload's *actual* EPC pages, which is where under-declared
   malicious pods get caught — and EINIT it through the driver, which
   applies the limit check;
4. report per-pod measured usage to the monitoring layer by change: at
   every write that can move a pod's reading (admission, teardown, an
   SGX 2 resize) it files the pod in its series logs
   (:class:`~repro.monitoring.aggregate.SeriesLog`), and Heapster
   (memory) and the node's SGX probe (EPC) read only those pods at the
   next collection.

The Kubelet deals only in *actual* usage; declared requests matter to the
scheduler, not to the node.  It files the name of every pod that comes
or goes in a change log (:data:`~repro.monitoring.aggregate.ChangeLog`),
and keeps the admitted pods by name, so the scheduler's state service
updates only those pods' share of the node's view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster.node import Node
from ..cluster.resources import ResourceVector
from ..errors import (
    EnclaveLimitExceededError,
    EpcExhaustedError,
    NodeError,
)
from ..monitoring.aggregate import ChangeLog, SeriesLog, file_change
from ..sgx.aesm import PlatformSoftware
from ..sgx.enclave import Enclave
from ..sgx.perf import SgxPerfModel
from ..units import pages_to_bytes
from .pod import Pod


@dataclass(slots=True)
class AdmissionResult:
    """Outcome of launching a pod on a node."""

    success: bool
    startup_seconds: float = 0.0
    failure_reason: Optional[str] = None
    #: Whether the failure is transient (requeue) rather than a policy
    #: kill (limit enforcement) or a permanent misfit.
    retryable: bool = False


@dataclass(slots=True)
class _PodRecord:
    """Node-local state of one admitted pod.

    ``pod_name`` denormalises the pod's immutable name at admission: the
    collectors read it for every pod they report.
    """

    pod: Pod
    cgroup_path: str
    pid: Optional[int] = None
    enclave: Optional[Enclave] = None
    psw: Optional[PlatformSoftware] = None
    pod_name: str = ""


class Kubelet:
    """Node agent: admission, container launch, usage reporting.

    Records enter and leave the node at two points,
    :meth:`_insert_record` and :meth:`_remove_record`; both keep the
    committed requests, the name index (:attr:`by_name`) and the change
    log (:attr:`changes`) and have the collectors read the pod at the
    next collection.  The log holds names only, never a pod or a
    kubelet, so a kubelet filing into a log its owner also holds makes
    no reference cycle.
    """

    __slots__ = (
        "node", "perf_model", "_records", "by_name", "changes",
        "_committed", "memory_log", "epc_log",
    )

    def __init__(
        self,
        node: Node,
        perf_model: Optional[SgxPerfModel] = None,
        changes: Optional[ChangeLog] = None,
    ):
        self.node = node
        self.perf_model = perf_model or SgxPerfModel()
        self._records: Dict[str, _PodRecord] = {}
        #: Pod name -> the admitted pod of that name.  The orchestrator
        #: refuses a second live pod of one name, so a name names one
        #: admitted pod.
        self.by_name: Dict[str, Pod] = {}
        #: Where the name of every pod admitted or torn down is filed,
        #: under this node's name.  A pod admitted and torn down before
        #: the reader empties the log still names its node.  Shared
        #: when given (the orchestrator passes the one log its
        #: window-max store and its state service share), else this
        #: kubelet's own.
        self.changes: ChangeLog = {} if changes is None else changes
        # Running total of admitted requests, maintained at the two
        # points records enter/leave ``_records``.  Requests are
        # integer vectors, so the increments are exact — this is the
        # same number committed_requests() used to re-sum per call.
        self._committed = ResourceVector.zero()
        #: The pods Heapster reads at the next collection, and what it
        #: last reported of this node.
        self.memory_log = SeriesLog(node.name)
        #: The same for the node's SGX probe; ``None`` on a node that
        #: advertises no EPC, which has no probe to drain it.
        self.epc_log: Optional[SeriesLog] = (
            SeriesLog(node.name) if node.capacity.epc_pages > 0 else None
        )

    # -- control-plane queries --------------------------------------------

    @property
    def pod_count(self) -> int:
        """Pods currently admitted on this node."""
        return len(self._records)

    def admitted_pods(self) -> List[Pod]:
        """Pods currently admitted on this node, oldest first."""
        return [record.pod for record in self._records.values()]

    def committed_requests(self):
        """Sum of declared requests of admitted pods (scheduler's ledger)."""
        return self._committed

    def _insert_record(self, record: _PodRecord) -> None:
        """Register an admitted pod in the ledger and indexes."""
        pod = record.pod
        record.pod_name = pod.name
        self._records[pod.uid] = record
        self._committed = self._committed + pod.spec.resources.requests
        self.by_name[pod.name] = pod
        file_change(self.changes, self.node.name, pod.name)
        self._touch(record)

    def _remove_record(self, record: _PodRecord) -> None:
        """Unregister an admitted pod from the ledger and indexes."""
        pod = record.pod
        del self._records[pod.uid]
        self._committed = self._committed - pod.spec.resources.requests
        name = record.pod_name
        if self.by_name.get(name) is pod:
            del self.by_name[name]
        file_change(self.changes, self.node.name, name)
        self._touch(record)

    def _touch(self, record: _PodRecord) -> None:
        """Have both collectors read *record*'s pod at the next
        collection (a torn-down record reads 0)."""
        self.memory_log.touched[record.pod.uid] = record
        self._touch_epc(record)

    def advertised_epc_pages(self) -> int:
        """EPC page items the node advertises, one per usable page
        (Section V-A's device plugin; 0 on a node without SGX)."""
        return self.node.capacity.epc_pages

    def measured_epc_pages(self, pod: Pod) -> int:
        """Driver-measured EPC occupancy of one admitted pod (0 if none).

        The per-process ioctl of Section V-E — the paper's stated
        mechanism for identifying preemption and migration victims.
        The preemption planners price candidates by this number: an
        SGX2-grown enclave occupies its *measured* pages, not its
        declared request.
        """
        record = self._records.get(pod.uid)
        if (
            record is None
            or record.pid is None
            or self.node.driver is None
        ):
            return 0
        return self.node.driver.process_epc_pages(record.pid)

    # -- pod lifecycle ----------------------------------------------------

    def admit(self, pod: Pod) -> AdmissionResult:
        """Launch *pod* on this node; returns the startup outcome.

        The caller (orchestrator) has already bound the pod; admission
        failures here surface as immediate pod kills, exactly like the
        paper's "immediately killed after launch" over-allocators.
        """
        if pod.uid in self._records:
            raise NodeError(
                f"pod {pod.name} already admitted on {self.node.name}"
            )
        workload = pod.spec.workload
        if workload is None:
            raise NodeError(f"pod {pod.name} has no workload profile")

        cgroup_path = self.node.cgroups.create_pod_cgroup(pod.uid)
        pod.cgroup_path = cgroup_path
        record = _PodRecord(pod=pod, cgroup_path=cgroup_path)
        self._insert_record(record)

        # Relay the EPC limit to the driver before containers start.
        limits = pod.spec.resources.effective_limits
        if self.node.driver is not None and limits.epc_pages > 0:
            self.node.driver.ioctl(
                0xA1,  # IOCTL_SET_POD_LIMIT; numeric like real user space
                cgroup_path=cgroup_path,
                limit_pages=limits.epc_pages,
            )

        record.pid = self.node.spawn_process(
            cgroup_path, memory_bytes=workload.memory_bytes
        )

        if not workload.uses_sgx:
            startup = self.perf_model.standard_startup()
            return AdmissionResult(
                success=True, startup_seconds=startup.total_seconds
            )
        return self._launch_sgx(record)

    def _launch_sgx(self, record: _PodRecord) -> AdmissionResult:
        """SGX container launch: PSW boot, then ECREATE and a
        limit-checked EINIT."""
        pod = record.pod
        workload = pod.spec.workload
        assert workload is not None and record.pid is not None
        driver = self.node.driver
        if driver is None:
            return self._abort(
                record, "SGX workload on a node without /dev/isgx"
            )
        psw = PlatformSoftware(container_id=pod.uid)
        psw_seconds = psw.boot()
        record.psw = psw
        epc_bytes = pages_to_bytes(workload.epc_pages)
        try:
            enclave = driver.create_enclave(
                record.pid,
                size_bytes=epc_bytes,
                dynamic=driver.sgx_version >= 2,
            )
        except EpcExhaustedError as exc:
            return self._abort(
                record,
                f"enclave creation failed: {exc}",
                retryable=True,
            )
        try:
            driver.initialize_enclave(record.pid, enclave, psw.aesm)
        except EnclaveLimitExceededError as exc:
            return self._abort(record, f"EPC limit enforcement: {exc}")
        record.enclave = enclave
        alloc_seconds = self.perf_model.allocation_seconds(epc_bytes)
        return AdmissionResult(
            success=True, startup_seconds=psw_seconds + alloc_seconds
        )

    def _abort(
        self, record: _PodRecord, reason: str, retryable: bool = False
    ) -> AdmissionResult:
        """Undo a launch that failed part-way and report why; a
        retryable failure is transient (the orchestrator requeues)."""
        self._teardown(record)
        return AdmissionResult(
            success=False, failure_reason=reason, retryable=retryable
        )

    def grow_pod_epc(self, pod: Pod, extra_pages: int) -> int:
        """Grow a running SGX 2 pod's enclave by *extra_pages* (EAUG).

        Routes through the driver so the ported per-pod limit check of
        Section VI-G applies.  Returns pages added; raises
        :class:`~repro.errors.DriverError` on SGX 1 nodes and
        :class:`~repro.errors.EnclaveLimitExceededError` past the limit.
        """
        record = self._require_record(pod)
        if self.node.driver is None or record.enclave is None:
            raise NodeError(f"pod {pod.name} has no enclave to grow")
        self._touch_epc(record)
        return self.node.driver.grow_enclave(
            record.pid, record.enclave, pages_to_bytes(extra_pages)
        )

    def shrink_pod_epc(self, pod: Pod, fewer_pages: int) -> int:
        """Shrink a running SGX 2 pod's enclave (EREMOVE); returns pages."""
        record = self._require_record(pod)
        if self.node.driver is None or record.enclave is None:
            raise NodeError(f"pod {pod.name} has no enclave to shrink")
        self._touch_epc(record)
        return self.node.driver.shrink_enclave(
            record.pid, record.enclave, pages_to_bytes(fewer_pages)
        )

    def _touch_epc(self, record: _PodRecord) -> None:
        """Have the probe re-read *record*'s enclave pages at the next
        collection (whether or not the resize succeeds)."""
        if self.epc_log is not None:
            self.epc_log.touched[record.pod.uid] = record

    def _require_record(self, pod: Pod) -> "_PodRecord":
        record = self._records.get(pod.uid)
        if record is None:
            raise NodeError(
                f"pod {pod.name} is not admitted on {self.node.name}"
            )
        return record

    def terminate(self, pod: Pod) -> None:
        """Tear a pod down (normal completion or kill). Idempotent."""
        record = self._records.get(pod.uid)
        if record is not None:
            self._teardown(record)

    def _teardown(self, record: _PodRecord) -> None:
        if record.pid is not None:
            self.node.kill_process(record.pid)  # destroys enclaves too
            record.pid = None
        if record.psw is not None:
            record.psw.shutdown()
            record.psw = None
        if self.node.driver is not None:
            self.node.driver.clear_pod(record.cgroup_path)
        if self.node.cgroups.exists(record.cgroup_path):
            self.node.cgroups.remove(record.cgroup_path)
        self._remove_record(record)

    # -- monitoring interfaces --------------------------------------------

    def epc_overcommit_ratio(self) -> float:
        """The node's current EPC over-commit ratio (1.0 when healthy)."""
        if self.node.epc is None:
            return 1.0
        return self.node.epc.overcommit_ratio()
