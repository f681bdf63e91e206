"""Orchestrator facade: the control plane wired together.

Owns the cluster's Kubelets, the device plugins, the monitoring pipeline
(Heapster + SGX probes via a DaemonSet) and the persistent pending
queue, and exposes the operations the event loop drives:

* :meth:`Orchestrator.submit` — user submits a pod (Fig. 2, step 1-2);
* :meth:`Orchestrator.collect_metrics` — probes push usage samples,
  one batch per node, into the monitoring sink;
* :meth:`Orchestrator.scheduling_pass` — fetch pending jobs + metrics,
  filter, place, bind (Fig. 2, steps 3-5);
* :meth:`Orchestrator.start_pod` / :meth:`complete_pod` / meth:`kill_pod`
  — lifecycle transitions driven by the simulation clock.

The monitoring sink is a
:class:`~repro.monitoring.aggregate.WindowedAggregateCache`
(:attr:`Orchestrator.aggregate_cache`) holding only Listing 1's window
maxima; every scheduling pass reads its node views from it.

The orchestrator itself is clock-free: every method takes ``now``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..cluster.resources import ResourceVector
from ..cluster.topology import Cluster
from ..errors import OrchestrationError, SchedulingError
from ..monitoring.aggregate import WindowedAggregateCache
from ..monitoring.heapster import Heapster
from ..monitoring.probe import SgxMetricsProbe
from ..obs.observer import NULL_OBSERVER
from ..policy.classes import DEFAULT_PREEMPTION_THRESHOLD
from ..policy.preemption import EvictionCandidate, PreemptionPolicy
from ..policy.qos import is_evictable_by
from ..scheduler.base import (
    ClusterStateService,
    NodeView,
    Scheduler,
    SchedulingOutcome,
)
from ..sgx.migration import MigrationManager
from ..sgx.perf import SgxPerfModel
from .api import PodSpec
from .daemonset import DaemonSetController, sgx_node_selector
from .device_plugin import SgxDevicePlugin
from .kubelet import Kubelet
from .pod import Pod
from .queue import PendingQueue
from .rpc import RpcChannel

#: Name of the DaemonSet that keeps one SGX probe per SGX node.
PROBE_DAEMONSET = "sgx-metrics-probe"


@dataclass
class PassResult:
    """What one scheduling pass did."""

    #: Pods successfully launched, with their startup latency.
    launched: List[Tuple[Pod, float]] = field(default_factory=list)
    #: Pods killed at launch (limit enforcement, EPC exhaustion...).
    killed: List[Pod] = field(default_factory=list)
    #: Pods rejected as permanently unschedulable.
    rejected: List[Pod] = field(default_factory=list)
    #: Pods whose launch failed transiently and were requeued.
    requeued: List[Pod] = field(default_factory=list)
    #: Pods left pending.
    deferred: List[Pod] = field(default_factory=list)
    #: ``(victim, replacement)`` pairs of pods evicted by the
    #: preemption step; the replacement keeps the victim's original
    #: ``submitted_at`` so it re-enters its tier's FCFS order.  Drivers
    #: holding per-pod runtime state (the replay runner's running-job
    #: table) must purge the victim's entries.
    evicted: List[Tuple[Pod, Pod]] = field(default_factory=list)
    #: Pods placed by evicting victims (their launches are also listed
    #: in :attr:`launched`/:attr:`requeued`/:attr:`killed`).
    preemptions: int = 0
    #: Why deferred pods waited, keyed by
    #: :data:`repro.scheduler.base.WAIT_REASONS`.  Pods later placed
    #: by preemption still count: they did fail regular placement.
    wait_reasons: Dict[str, int] = field(default_factory=dict)


def _make_probe(
    sink: WindowedAggregateCache, kubelet: Kubelet
) -> SgxMetricsProbe:
    """The probe DaemonSet's payload: an SGX probe pushing into *sink*.

    A module-level function bound to the sink alone: a bound method of
    the orchestrator would close the cycle orchestrator -> DaemonSet ->
    factory -> orchestrator and keep a finished replay's pods and
    kubelets alive until a full garbage collection.
    """
    driver = kubelet.node.driver
    if driver is None:
        raise OrchestrationError(
            f"probe requested for non-SGX node {kubelet.node.name}"
        )
    return SgxMetricsProbe(
        node_name=kubelet.node.name,
        driver=driver,
        sink=sink,
        pod_name_resolver=kubelet.resolve_pod_name,
    )


class _KeptPass(NamedTuple):
    """An all-deferred outcome and the inputs it was computed from."""

    scheduler: Scheduler
    knobs: Tuple[bool, ...]
    snapshot: Optional[List[NodeView]]
    pending: List[Pod]
    outcome: SchedulingOutcome


class Orchestrator:
    """The control plane of one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        perf_model: Optional[SgxPerfModel] = None,
        requeue_backoff_seconds: float = 0.0,
        preemption_policy: Optional[PreemptionPolicy] = None,
        preemption_priority_threshold: int = DEFAULT_PREEMPTION_THRESHOLD,
        observer=None,
    ):
        self.cluster = cluster
        #: The run's observer bundle (null when the replay is
        #: unobserved); the ledger and span recorder are threaded into
        #: the state service, schedulers and preemption policy from
        #: here.  Every cluster transition that could make a scheduling
        #: pass useful (pod submitted, requeued, completed or killed,
        #: node added or removed, capacity freed by a migration) is a
        #: ``trigger`` ledger record; ``repro explain`` reads a pod's
        #: submission and end from them.
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.ledger = self.observer.ledger
        self.spans = self.observer.spans
        #: The planner consulted for deferred pods at or above the
        #: threshold; ``None`` (or a policy that never preempts) keeps
        #: the paper's strictly non-preemptive scheduling.
        self.preemption_policy = preemption_policy
        self.preemption_priority_threshold = preemption_priority_threshold
        #: The monitoring sink: the sliding-window maxima the scheduling
        #: pass reads, kept current on every metrics sample.
        self.aggregate_cache = WindowedAggregateCache()
        #: Shared by every kubelet, bootstrap and late-joined alike.
        self.perf_model = perf_model or SgxPerfModel()
        self.kubelets: Dict[str, Kubelet] = {}
        for node in cluster:
            kubelet = Kubelet(node, self.perf_model)
            self.kubelets[node.name] = kubelet
            # Device plugin discovers /dev/isgx and registers over RPC.
            SgxDevicePlugin(node).register(RpcChannel(kubelet.rpc_server))

        self.heapster = Heapster(self.aggregate_cache)
        self.heapster.register_all(self.kubelets.values())

        self.daemonsets = DaemonSetController()
        self.daemonsets.create(
            PROBE_DAEMONSET,
            selector=sgx_node_selector,
            factory=functools.partial(_make_probe, self.aggregate_cache),
        )
        self.daemonsets.reconcile(self.kubelets.values())

        self.state_service = ClusterStateService(
            list(self.kubelets.values()),
            self.aggregate_cache,
            observer=self.observer,
        )
        if preemption_policy is not None:
            preemption_policy.ledger = self.ledger
        self.queue = PendingQueue(
            requeue_backoff_seconds=requeue_backoff_seconds
        )
        self.all_pods: List[Pod] = []
        #: Numbers this orchestrator's pods (see :attr:`Pod.uid`).
        self._pod_numbers = itertools.count(1)
        self.migrations = MigrationManager()
        #: The last pass's all-deferred outcome and what it was computed
        #: from (see :meth:`_schedule`); ``None`` when that pass placed
        #: or rejected a pod.
        self._kept: Optional[_KeptPass] = None
        #: Passes answered from the kept outcome instead of
        #: :meth:`Scheduler.schedule` (observability; they still count
        #: as executed).
        self.passes_reused = 0

    # -- node lifecycle (Sec. V-C: probes follow nodes automatically) ----

    def add_node(self, node, now: float) -> Kubelet:
        """Join a new physical node to the cluster.

        Registers its Kubelet and device plugin, hooks it into Heapster
        and lets the DaemonSet controller deploy a probe if the node
        advertises SGX — the paper's "automatically handle the
        deployment of new probes when adding physical nodes".  The
        Kubelet shares the bootstrap inventory's performance model.
        """
        self.cluster.add_node(node)
        kubelet = Kubelet(node, self.perf_model)
        self.kubelets[node.name] = kubelet
        SgxDevicePlugin(node).register(RpcChannel(kubelet.rpc_server))
        self.heapster.register(kubelet)
        self.daemonsets.reconcile(self.kubelets.values())
        self.state_service.kubelets.append(kubelet)
        ledger = self.ledger
        if ledger.enabled:
            ledger.emit(
                now, "trigger", event="node-added", pod=None, node=node.name
            )
        return kubelet

    def remove_node(self, node_name: str, now: float) -> List[Pod]:
        """Handle a node crash or drain.

        Pods running there are re-submitted to the queue (their specs
        survive; their progress does not — a crash analogue of the
        Kubernetes controller recreating lost pods), the node's probe is
        reaped by the DaemonSet reconciliation and its metrics stop.
        Returns the requeued pods.
        """
        kubelet = self.kubelets.pop(node_name, None)
        if kubelet is None:
            raise OrchestrationError(f"no such node {node_name!r}")
        orphans = list(kubelet.admitted_pods())
        requeued: List[Pod] = []
        for pod in orphans:
            kubelet.terminate(pod)
            pod.mark_failed(now, f"node {node_name} lost")
            replacement = self.submit(pod.spec, now)
            requeued.append(replacement)
        self.cluster.remove_node(node_name)
        self.heapster.unregister(kubelet)
        self.state_service.kubelets = [
            k for k in self.state_service.kubelets if k is not kubelet
        ]
        self.daemonsets.reconcile(self.kubelets.values())
        ledger = self.ledger
        if ledger.enabled:
            ledger.emit(
                now, "trigger", event="node-removed", pod=None, node=node_name
            )
        return requeued

    # -- submission --------------------------------------------------------

    def submit(
        self,
        spec: PodSpec,
        now: float,
        submitted_at: Optional[float] = None,
    ) -> Pod:
        """Accept a pod into the pending queue (Fig. 2, steps 1-2).

        ``submitted_at`` backdates the pod's FCFS key without touching
        the event time: the eviction path resubmits a victim's spec
        with its original submission instant, so the replacement
        re-enters exactly where its priority tier's FCFS order had the
        victim instead of being demoted to the tier's tail.
        """
        pod = Pod(
            spec,
            submitted_at=now if submitted_at is None else submitted_at,
            uid=f"{next(self._pod_numbers):08d}",
        )
        self.queue.push(pod)
        self.all_pods.append(pod)
        ledger = self.ledger
        if ledger.enabled:
            ledger.emit(
                now, "trigger", event="pod-submitted", pod=pod.name, node=None
            )
        return pod

    # -- monitoring --------------------------------------------------------

    def collect_metrics(self, now: float) -> int:
        """One metrics push from Heapster and every SGX probe; returns
        the number of samples taken."""
        taken = self.heapster.collect(now)
        for probe in self.daemonsets.payloads(PROBE_DAEMONSET):
            taken += probe.collect(now)
        return taken

    # -- scheduling ----------------------------------------------------------

    def scheduling_pass(
        self,
        scheduler: Scheduler,
        now: float,
        only_matching: bool = False,
    ) -> PassResult:
        """Run one pass of *scheduler* over the pending queue.

        With ``only_matching=True``, the pass considers only pods whose
        spec names this scheduler — the paper's Sec. V-B deployment
        where "multiple schedulers concurrently operate over the same
        cluster" and "each pod deployed to the cluster can specify
        which scheduler it requires" (how the authors ran comparative
        benchmarks).  The default considers the whole queue, as in a
        single-scheduler production deployment.

        A pass over the same queue and cluster state as the previous
        all-deferred one returns that pass's outcome instead of
        recomputing it (see :meth:`_schedule`); nothing else about the
        pass changes.
        """
        result = PassResult()
        pending = self.queue.snapshot(now)
        if only_matching:
            pending = [
                pod
                for pod in pending
                if pod.spec.scheduler_name == scheduler.name
            ]
        if not pending:
            return result
        ledger = self.ledger
        views = self.state_service.build_views(now)
        # pass_begin lands *after* the view build, so a pass's records
        # read cache_rebuild, then pass_begin; committed ledgers (and
        # ``repro diff`` against them) depend on that order.
        if ledger.enabled:
            ledger.emit(now, "pass_begin", pending=len(pending))
        # The scheduler arrives with the pass, so bind it to this
        # orchestrator's ledger here.
        scheduler.ledger = ledger
        outcome = self._schedule(scheduler, pending, views, now)

        for pod in outcome.unschedulable:
            self.queue.remove(pod)
            pod.mark_failed(now, "Unschedulable: fits no node's capacity")
            result.rejected.append(pod)
            if ledger.enabled:
                ledger.emit(
                    now, "rejection",
                    pod=pod.name, reason="unschedulable",
                )

        for assignment in outcome.assignments:
            pod = assignment.pod
            self.queue.remove(pod)
            pod.mark_bound(assignment.node_name, now)
            self._launch(pod, assignment.node_name, result, now)

        result.wait_reasons = dict(outcome.wait_reasons)
        deferred = list(outcome.deferred)
        if (
            deferred
            and self.preemption_policy is not None
            and not self.preemption_policy.never_preempts
        ):
            deferred = self._preempt_and_place(
                scheduler, views, deferred, result, now
            )
        result.deferred.extend(deferred)
        if ledger.enabled:
            ledger.emit(
                now, "pass_end",
                placed=len(result.launched),
                deferred=len(result.deferred),
                rejected=len(result.rejected),
                requeued=len(result.requeued),
                killed=len(result.killed),
                evicted=len(result.evicted),
                preemptions=result.preemptions,
                feasibility_checks=-1,
                bound_skips=-1,
                score_cutoffs=-1,
                statics_reused=-1,
            )
        return result

    def _schedule(
        self,
        scheduler: Scheduler,
        pending: List[Pod],
        views: List[NodeView],
        now: float,
    ) -> SchedulingOutcome:
        """``scheduler.schedule(pending, views, now)``, or the previous
        pass's outcome when recomputing it provably gives the same.

        In a backlog most passes see the same queue against the same
        measured state and defer all of it again; this is Borg's score
        cache applied to a whole pass.  The kept outcome is returned
        when the previous pass that built views

        * ran this scheduler object with the same ``use_measured``,
          ``strict_fcfs`` and ``preserve_sgx_nodes``;
        * deferred every pod it considered (a placement or rejection
          keeps nothing);
        * considered the same ``Pod`` objects in the same order;
        * saw the snapshot :meth:`ClusterStateService.build_views` has
          just served again: every node's token (its window-max store
          versions and its kubelet's commitment version) is the one
          its retained view was built from, and no build replaced the
          snapshot since.

        A pass is a function of exactly those inputs because strategies
        are pure (see :meth:`Scheduler._select`).  A reused pass leaves
        the views and the ledger as :meth:`Scheduler.schedule` would:
        ``used = committed`` without measured usage, and every
        ``deferral`` record again, in order, at *now*.  The preemption
        step and ``pass_end`` run as on any pass.
        """
        # The retained snapshot: a build replaces the list, serving it
        # again hands out clones and leaves it in place.
        snapshot = self.state_service._last_views
        knobs = (
            scheduler.use_measured,
            scheduler.strict_fcfs,
            scheduler.preserve_sgx_nodes,
        )
        kept = self._kept
        if (
            kept is not None
            and kept.scheduler is scheduler
            and kept.knobs == knobs
            and kept.snapshot is snapshot
            and kept.pending == pending
        ):
            self.passes_reused += 1
            outcome = kept.outcome
            if not scheduler.use_measured:
                for view in views:
                    view.used = view.committed
            ledger = self.ledger
            if ledger.enabled:
                for pod, reason in zip(
                    outcome.deferred, outcome.deferred_reasons, strict=True
                ):
                    ledger.emit(
                        now, "deferral", pod=pod.name, reason=reason
                    )
            return outcome
        outcome = scheduler.schedule(pending, views, now)
        self._kept = (
            _KeptPass(scheduler, knobs, snapshot, pending, outcome)
            if not (outcome.assignments or outcome.unschedulable)
            else None
        )
        return outcome

    def _launch(
        self, pod: Pod, node_name: str, result: PassResult, now: float
    ) -> None:
        """Admit *pod*, just bound to *node_name*, and file the outcome.

        Shared by regular placements and the preemption step.  A
        transient failure (e.g. the EPC filled between the metrics
        snapshot and launch) sends the pod back to the queue, like a
        Kubernetes crash-looping pod; the requeue keeps the pod's
        original submission order, so FCFS priority survives the retry
        instead of demoting the pod to the tail, where the oldest pod
        could starve forever.  Any other failure kills the pod.
        """
        admission = self.kubelets[node_name].admit(pod)
        if admission.success:
            result.launched.append((pod, admission.startup_seconds))
            return
        ledger = self.ledger
        if admission.retryable:
            pod.mark_unbound()
            ready_at = self.queue.requeue(pod, now)
            result.requeued.append(pod)
            if ledger.enabled:
                ledger.emit(now, "requeue", pod=pod.name, ready_at=ready_at)
                ledger.emit(
                    now, "trigger",
                    event="pod-requeued", pod=pod.name, node=None,
                )
            return
        reason = admission.failure_reason or "killed"
        pod.mark_failed(now, reason)
        result.killed.append(pod)
        if ledger.enabled:
            ledger.emit(
                now, "launch_killed",
                pod=pod.name, node=node_name, reason=reason,
            )

    # -- preemption (the policy layer's in-pass hook) ----------------------

    def _collect_eviction_facts(
        self, now: float
    ) -> Dict[str, List[EvictionCandidate]]:
        """Per node, the priced eviction candidates of this pass.

        The expensive facts — the admitted-pod walk and the
        driver-measured occupancy ioctl behind each candidate's
        ``freed``/``cost`` inputs — are preemptor-independent, so they
        are collected once per pass and filtered per preemptor (the
        priority/QoS gate) by :meth:`_preempt_and_place`, which also
        removes executed victims from these lists.  Pods bound at
        *now* — placed by this very pass — are excluded outright so a
        pass never thrashes its own placements.
        """
        facts: Dict[str, List[EvictionCandidate]] = {}
        for node_name, kubelet in self.kubelets.items():
            candidates: List[EvictionCandidate] = []
            for victim in kubelet.admitted_pods():
                if victim.phase.value not in ("Bound", "Running"):
                    continue
                if victim.bound_at == now:
                    continue
                pages = kubelet.measured_epc_pages(victim)
                victim_requests = victim.spec.resources.requests
                freed = ResourceVector(
                    cpu_millicores=victim_requests.cpu_millicores,
                    memory_bytes=victim_requests.memory_bytes,
                    epc_pages=(
                        pages if pages > 0 else victim_requests.epc_pages
                    ),
                )
                lost = (
                    now - victim.started_at
                    if victim.started_at is not None
                    else 0.0
                )
                candidates.append(
                    EvictionCandidate(
                        pod=victim,
                        node_name=node_name,
                        freed=freed,
                        measured_epc_pages=pages,
                        lost_work_seconds=lost,
                    )
                )
            facts[node_name] = candidates
        return facts

    def _eviction_candidates(
        self,
        preemptor: Pod,
        views: Sequence[NodeView],
        facts: Dict[str, List[EvictionCandidate]],
    ) -> Dict[str, List[EvictionCandidate]]:
        """Per eligible node, the pods *preemptor* may evict.

        Eligibility mirrors ``can_ever_fit``: hardware-compatible
        nodes whose total capacity could host the pod.  A node with no
        evictable pods still appears (with an empty list) because a
        zero-victim plan is valid once earlier evictions freed room.
        Evictability is the QoS layer's call
        (:func:`repro.policy.qos.is_evictable_by`), applied per
        preemptor over the pass's shared *facts*.
        """
        requests = preemptor.spec.resources.requests
        by_node: Dict[str, List[EvictionCandidate]] = {}
        for view in views:
            if preemptor.requires_sgx and not view.sgx_capable:
                continue
            if not requests.fits_within(view.capacity):
                continue
            node_facts = facts.get(view.name)
            if node_facts is None:
                continue
            by_node[view.name] = [
                candidate
                for candidate in node_facts
                if is_evictable_by(candidate.pod, preemptor)
            ]
        return by_node

    def _preempt_and_place(
        self,
        scheduler: Scheduler,
        views: Sequence[NodeView],
        deferred: List[Pod],
        result: PassResult,
        now: float,
    ) -> List[Pod]:
        """Serve deferred pods above the threshold by evicting victims.

        For each deferred pod at or above the priority threshold (in
        queue order — highest tier first, FCFS within), the configured
        planner picks the cheapest feasible eviction set; victims are
        killed through the normal kill path, their specs resubmitted
        with the original ``submitted_at``, and the pod is bound and
        launched *in this same pass*.  The pass's views track every
        release and reservation, so later preemptors plan against the
        pass's true in-flight state.  Returns the pods still deferred.
        """
        policy = self.preemption_policy
        assert policy is not None
        ledger = self.ledger
        spans = self.spans
        span_start = spans.begin()
        views_by_name = {view.name: view for view in views}
        facts = self._collect_eviction_facts(now)
        still_deferred: List[Pod] = []
        for position, pod in enumerate(deferred):
            if scheduler.strict_fcfs and position > 0:
                # Strict FCFS: an unplaceable queue head blocks every
                # younger pod — including from preempting its way past
                # it.  The tail (deferred as ``head_of_line``, never
                # examined) stays deferred; the next pass re-attempts
                # in order.
                still_deferred.append(pod)
                continue
            if pod.spec.priority < self.preemption_priority_threshold:
                still_deferred.append(pod)
                continue
            plan = policy.plan(
                pod,
                views_by_name,
                self._eviction_candidates(pod, views, facts),
                now,
            )
            if plan is None:
                still_deferred.append(pod)
                continue
            view = views_by_name[plan.node_name]
            if ledger.enabled:
                ledger.emit(
                    now, "preemption",
                    pod=pod.name, node=plan.node_name,
                    victims=len(plan.victims), cost=plan.cost,
                )
            for candidate in plan.victims:
                victim = candidate.pod
                if ledger.enabled:
                    ledger.emit(
                        now, "eviction",
                        victim=victim.name, node=plan.node_name,
                        preemptor=pod.name,
                        lost_work_s=candidate.lost_work_seconds,
                    )
                self.kill_pod(
                    victim, now, f"Evicted: preempted by {pod.name}"
                )
                replacement = self.submit(
                    victim.spec, now, submitted_at=victim.submitted_at
                )
                view.release(
                    candidate.freed, victim.spec.resources.requests
                )
                facts[plan.node_name].remove(candidate)
                result.evicted.append((victim, replacement))
            if not pod.spec.resources.requests.fits_within(view.available):
                raise SchedulingError(
                    f"{policy.name} planned an infeasible eviction set "
                    f"on {plan.node_name} for pod {pod.name}"
                )
            self.queue.remove(pod)
            pod.mark_bound(plan.node_name, now)
            view.reserve(pod.spec.resources.requests)
            result.preemptions += 1
            # The freed EPC can still race a concurrent allocation in
            # principle; a failed launch is filed like a regular one.
            self._launch(pod, plan.node_name, result, now)
        spans.end(span_start, "preempt", now)
        return still_deferred

    # -- lifecycle driven by the event loop ----------------------------------

    def start_pod(self, pod: Pod, now: float) -> None:
        """Startup latency elapsed; the workload begins useful work."""
        pod.mark_running(now)

    def complete_pod(self, pod: Pod, now: float) -> None:
        """Workload finished; free the node's resources."""
        kubelet = self._kubelet_of(pod)
        kubelet.terminate(pod)
        pod.mark_succeeded(now)
        ledger = self.ledger
        if ledger.enabled:
            ledger.emit(
                now, "trigger",
                event="pod-completed", pod=pod.name, node=pod.node_name,
            )

    def migrate_pod(
        self, pod: Pod, target_node_name: str, now: float
    ) -> float:
        """Live-migrate a running SGX pod to another node.

        The paper's future-work extension, wired through the secure
        migration protocol (:mod:`repro.sgx.migration`): quiescent
        checkpoint on the source, self-destroy, attested one-time
        restore on the target.  Returns the migration downtime in
        seconds (checkpoint transfer over the 1 Gbit/s network plus the
        target-side restore allocation), which the caller's event loop
        should account before the pod resumes useful work.
        """
        if pod.node_name is None or pod.node_name == target_node_name:
            raise OrchestrationError(
                f"pod {pod.name} cannot migrate to {target_node_name!r}"
            )
        source = self.kubelets[pod.node_name]
        target = self.kubelets.get(target_node_name)
        if target is None:
            raise OrchestrationError(f"no such node {target_node_name!r}")
        if target.node.driver is None:
            raise OrchestrationError(
                f"target {target_node_name!r} has no SGX support"
            )
        pid, enclave, source_aesm = source.begin_migration(pod)
        # Target-side PSW does not exist yet; attest against a probe
        # AESM for the target platform (same platform identity).
        from ..sgx.aesm import AesmService

        target_probe = AesmService(platform_id=f"platform-{pod.uid}")
        target_probe.start()
        checkpoint, key = self.migrations.checkpoint(
            source.node.driver, pid, enclave, source_aesm, target_probe
        )
        source_node_name = pod.node_name
        source.terminate(pod)
        # The source's EPC pages are free from here on, whatever the
        # restore outcome: deferred pods may now fit there.
        ledger = self.ledger
        if ledger.enabled:
            ledger.emit(
                now, "trigger",
                event="capacity-freed", pod=pod.name, node=source_node_name,
            )

        def restore(new_pid, target_aesm):
            # The key binds to the probe's platform id; rebind the
            # restore-side AESM to it (one platform, one container).
            assert target.node.driver is not None
            return self.migrations.restore(
                target.node.driver, new_pid, checkpoint, key, target_probe
            )

        admission = target.admit(pod, restore)
        if not admission.success:
            pod.mark_failed(
                now, admission.failure_reason or "migration failed"
            )
            raise OrchestrationError(
                f"migration of {pod.name} to {target_node_name} failed: "
                f"{admission.failure_reason}"
            )
        pod.mark_migrated(target_node_name)
        # Downtime: state transfer (enclave bytes over 1 Gbit/s) plus
        # the target-side rebuild the admission already measured.
        transfer_seconds = checkpoint.size_bytes / 125_000_000
        return transfer_seconds + admission.startup_seconds

    def kill_pod(self, pod: Pod, now: float, reason: str) -> None:
        """Forcibly terminate a pod (any non-terminal phase)."""
        if pod in self.queue:
            self.queue.remove(pod)
        if pod.node_name is not None:
            self._kubelet_of(pod).terminate(pod)
        pod.mark_failed(now, reason)
        ledger = self.ledger
        if ledger.enabled:
            ledger.emit(
                now, "trigger",
                event="pod-killed", pod=pod.name, node=pod.node_name,
            )

    def _kubelet_of(self, pod: Pod) -> Kubelet:
        if pod.node_name is None:
            raise OrchestrationError(f"pod {pod.name} is not bound")
        return self.kubelets[pod.node_name]

    # -- reporting ------------------------------------------------------------

    def pending_epc_pages(self) -> int:
        """EPC pages requested by queued pods (Fig. 7's y-axis)."""
        return self.queue.total_requested_epc_pages()

