"""Pod runtime object: spec plus mutable status and timestamps.

The timestamps record the exact quantities the evaluation reports:

* **waiting time** (Figs. 8, 9, 11) — submission to actual start;
* **turnaround time** (Fig. 10) — submission to completion.
"""

from __future__ import annotations

from typing import Optional

from ..errors import OrchestrationError
from .api import PodPhase, PodSpec


class Pod:
    """One submitted pod and its lifecycle bookkeeping.

    Slotted: replays hold thousands of these alive at once, and the
    default identity equality/hash is exactly what the orchestrator's
    bookkeeping relies on (slots change neither).

    ``uid`` must be unique among the pods one orchestrator handles: the
    queue and the kubelets key pods by it, it breaks FCFS ties, and the
    pod's cgroup (named in ``launch_killed`` ledger records) carries it.
    :meth:`repro.orchestrator.controller.Orchestrator.submit` numbers
    its pods from 1, so a replay's uids do not depend on what else ran
    in the process.
    """

    __slots__ = (
        "spec",
        "requires_sgx",
        "fit_shape",
        "uid",
        "phase",
        "submitted_at",
        "bound_at",
        "started_at",
        "finished_at",
        "node_name",
        "cgroup_path",
        "failure_reason",
    )

    def __init__(self, spec: PodSpec, submitted_at: float, uid: str):
        self.spec = spec
        #: Whether this pod can only run on SGX nodes; read per pod per
        #: scheduling pass, so kept here rather than derived from the
        #: frozen spec each time.
        self.requires_sgx: bool = spec.requires_sgx
        #: The cluster shape under which this pod last passed
        #: ``can_ever_fit``, so a pass over the same shape skips the
        #: check (see ``Scheduler.schedule``); ``None`` until then.
        self.fit_shape: Optional[tuple] = None
        self.uid = uid
        self.phase = PodPhase.PENDING
        self.submitted_at = submitted_at
        self.bound_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.node_name: Optional[str] = None
        self.cgroup_path: Optional[str] = None
        self.failure_reason: Optional[str] = None

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        """The pod's name; no two live pods of one orchestrator share
        it (see :meth:`repro.orchestrator.controller.Orchestrator.submit`)."""
        return self.spec.name

    @property
    def qos_class(self):
        """The pod's QoS tier (requests vs limits; governs eviction)."""
        # Imported lazily: the policy package sits above the
        # orchestrator in the layering and must stay importable alone.
        from ..policy.qos import qos_of

        return qos_of(self.spec.resources)

    # -- transitions ----------------------------------------------------------

    def mark_bound(self, node_name: str, now: float) -> None:
        """Scheduler decision applied: pod assigned to *node_name*."""
        self._require_phase(PodPhase.PENDING, "bind")
        self.phase = PodPhase.BOUND
        self.node_name = node_name
        self.bound_at = now

    def mark_unbound(self) -> None:
        """Undo a binding after a retryable launch failure.

        The pod returns to the pending phase (and, at the orchestrator,
        to the queue) — the Kubernetes crash-loop analogue for races
        such as an enclave creation finding the EPC momentarily full.
        """
        self._require_phase(PodPhase.BOUND, "unbind")
        self.phase = PodPhase.PENDING
        self.node_name = None
        self.bound_at = None
        self.cgroup_path = None

    def mark_running(self, now: float) -> None:
        """Container processes started (startup latency elapsed)."""
        self._require_phase(PodPhase.BOUND, "start")
        self.phase = PodPhase.RUNNING
        self.started_at = now

    def mark_succeeded(self, now: float) -> None:
        """Workload ran to completion."""
        self._require_phase(PodPhase.RUNNING, "complete")
        self.phase = PodPhase.SUCCEEDED
        self.finished_at = now

    def mark_failed(self, now: float, reason: str) -> None:
        """Pod killed or rejected; allowed from any non-terminal phase."""
        if self.phase.is_terminal:
            raise OrchestrationError(
                f"pod {self.name} already terminal ({self.phase})"
            )
        self.phase = PodPhase.FAILED
        self.finished_at = now
        self.failure_reason = reason

    def _require_phase(self, expected: PodPhase, action: str) -> None:
        if self.phase is not expected:
            raise OrchestrationError(
                f"cannot {action} pod {self.name} in phase {self.phase}"
            )

    # -- reported metrics ---------------------------------------------------

    @property
    def waiting_seconds(self) -> Optional[float]:
        """Submission to actual start (the paper's waiting time)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def turnaround_seconds(self) -> Optional[float]:
        """Submission to termination (the paper's turnaround time)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def __repr__(self) -> str:
        return (
            f"Pod({self.name!r}, uid={self.uid}, phase={self.phase}, "
            f"node={self.node_name!r})"
        )
