"""EPC contention rebalancer: migration put to scheduling use.

Section V-E motivates the per-process EPC ioctl with exactly this:
"This metric is helpful to identify processes that should be preempted
and possibly migrated, a feature especially useful in scenarios of high
contention."  The conclusion then lists enclave migration as planned
future work.  This module closes the loop: it watches for over-
committed EPCs (which the paging model punishes with up to 1000x
slowdowns), picks victim pods off the contended node using the driver's
per-process occupancy metric, and live-migrates them to the SGX node
with the most free pages.

The rebalancer is deliberately conservative: it only acts on over-
committed nodes, only moves a pod when the whole enclave fits in the
target's *free* pages, and moves the smallest enclaves first (cheapest
transfer, highest chance of fitting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import OrchestrationError
from ..orchestrator.controller import Orchestrator
from ..orchestrator.pod import Pod


@dataclass(frozen=True)
class MigrationAction:
    """One executed rebalancing migration."""

    pod_name: str
    source_node: str
    target_node: str
    pages_moved: int
    downtime_seconds: float


@dataclass(frozen=True)
class FailedMigration:
    """A migration whose target-side restore failed.

    The source enclave is destroyed by the checkpoint protocol before
    the target admits, so the original pod is gone (marked failed); the
    rebalancer resubmits its spec as *replacement* so no work is lost.
    Drivers holding per-pod runtime state (the replay runner's running-
    job table, its finish events) must purge the old pod's entries.
    """

    pod_name: str
    #: Uid of the destroyed pod — spec names need not be unique (the
    #: replacement reuses this one), so per-pod state must key on it.
    pod_uid: str
    source_node: str
    target_node: str
    replacement: Pod


@dataclass
class RebalanceReport:
    """What one rebalancing pass did."""

    actions: List[MigrationAction] = field(default_factory=list)
    #: Migrations that failed at restore; their pods were resubmitted.
    failed: List[FailedMigration] = field(default_factory=list)
    #: Nodes that were over-committed but could not be relieved.
    unrelieved_nodes: List[str] = field(default_factory=list)


class EpcRebalancer:
    """Relieves over-committed EPCs by migrating the smallest enclaves.

    Parameters
    ----------
    orchestrator:
        The control plane to act on.
    max_migrations_per_pass:
        Safety valve against migration storms.
    """

    def __init__(
        self,
        orchestrator: Orchestrator,
        max_migrations_per_pass: int = 4,
    ):
        self.orchestrator = orchestrator
        self.max_migrations_per_pass = max_migrations_per_pass

    # -- observation -------------------------------------------------------

    def overcommitted_nodes(self) -> List[str]:
        """SGX nodes whose EPC allocations exceed the usable pages."""
        names = []
        for node in self.orchestrator.cluster.sgx_nodes:
            assert node.epc is not None
            if node.epc.overcommitted:
                names.append(node.name)
        return names

    def _victims(self, node_name: str) -> List[Tuple[int, Pod]]:
        """``(pages, pod)`` running on *node_name*, smallest first.

        Uses the driver's per-process occupancy ioctl
        (:meth:`Kubelet.measured_epc_pages`, as the preemption step
        does) — the paper's stated mechanism for identifying migration
        candidates.  The
        measured page count is what the move must fit into the target:
        an enclave grown past its declared size (SGX2 EAUG) occupies
        its *measured* pages, not ``spec.workload.epc_pages``.
        """
        kubelet = self.orchestrator.kubelets[node_name]
        candidates = []
        for pod in kubelet.admitted_pods():
            if not pod.requires_sgx and not (
                pod.spec.workload and pod.spec.workload.uses_sgx
            ):
                continue
            if pod.phase.value != "Running":
                continue
            pages = kubelet.measured_epc_pages(pod)
            if pages > 0:
                candidates.append((pages, pod))
        candidates.sort(key=lambda item: (item[0], item[1].uid))
        return candidates

    def _best_target(self, pages_needed: int, exclude: str) -> Optional[str]:
        """The SGX node with the most free pages that can host the move."""
        best_name = None
        best_free = -1
        for node in self.orchestrator.cluster.sgx_nodes:
            if node.name == exclude:
                continue
            free = node.free_epc_pages()
            if free >= pages_needed and free > best_free:
                best_free = free
                best_name = node.name
        return best_name

    # -- action ------------------------------------------------------------

    def rebalance(self, now: float) -> RebalanceReport:
        """One pass: relieve every over-committed node if possible."""
        report = RebalanceReport()
        budget = self.max_migrations_per_pass
        for node_name in self.overcommitted_nodes():
            if budget <= 0:
                # Budget spent on earlier nodes: stop scanning victims
                # entirely — a pass must never exceed its safety valve.
                report.unrelieved_nodes.append(node_name)
                continue
            node = self.orchestrator.cluster.node(node_name)
            assert node.epc is not None
            relieved = False
            for pages, pod in self._victims(node_name):
                if budget <= 0 or not node.epc.overcommitted:
                    break
                target = self._best_target(pages, exclude=node_name)
                if target is None:
                    continue
                budget -= 1
                try:
                    downtime = self.orchestrator.migrate_pod(
                        pod, target, now
                    )
                except OrchestrationError:
                    if not pod.phase.is_terminal:
                        # Failed before the checkpoint (precondition
                        # raise): the pod still runs on the source,
                        # untouched.  Nothing to repair.
                        continue
                    # The checkpoint already destroyed the source-side
                    # enclave, so the pod is failed-and-gone; resubmit
                    # its spec so the work is retried rather than
                    # silently lost.  The source's pages did free, so
                    # residency still needs rebalancing.
                    replacement = self.orchestrator.submit(pod.spec, now)
                    report.failed.append(
                        FailedMigration(
                            pod_name=pod.name,
                            pod_uid=pod.uid,
                            source_node=node_name,
                            target_node=target,
                            replacement=replacement,
                        )
                    )
                    ledger = self.orchestrator.ledger
                    if ledger.enabled:
                        ledger.emit(
                            now, "migration_failed",
                            pod=pod.name, source=node_name,
                            target=target,
                            replacement=replacement.name,
                        )
                    continue
                relieved = True
                report.actions.append(
                    MigrationAction(
                        pod_name=pod.name,
                        source_node=node_name,
                        target_node=target,
                        pages_moved=pages,
                        downtime_seconds=downtime,
                    )
                )
                ledger = self.orchestrator.ledger
                if ledger.enabled:
                    ledger.emit(
                        now, "migration",
                        pod=pod.name, source=node_name, target=target,
                        pages=pages, downtime_s=downtime,
                    )
            if node.epc.overcommitted and not relieved:
                report.unrelieved_nodes.append(node_name)
        return report
