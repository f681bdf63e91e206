"""End-to-end trace replay: the paper's evaluation harness in simulation.

Drives the *real* control plane — orchestrator, schedulers, device
plugins, probes, driver — with a deterministic event loop:

* submissions fire at the trace's timestamps;
* probes push metrics every ``metrics_period`` seconds;
* the scheduler runs every ``scheduler_period`` seconds over the
  persistent FCFS queue;
* launched pods start after their measured startup latency (PSW boot +
  EPC allocation, Fig. 6's model) and run for their trace duration —
  stretched by the EPC paging slowdown while their node is over-
  committed (only possible when limit enforcement is off, Fig. 11).

The progress of a running enclave job is tracked as *remaining work*:
whenever a node's EPC occupancy changes, work done so far is banked at
the old rate and the finish event is rescheduled at the new rate.

**Event-driven scheduling** (``Scenario(event_driven=True)``): the
scheduler wakes on the same periodic grid — the grid doubles as the
min-interval guard and, crucially, keeps the progress-banking float
arithmetic on the identical cadence — but each wake-up consults the
orchestrator's :class:`~repro.orchestrator.triggers.SchedulingTrigger`
and the state-service fingerprint, and *skips* the pass when no cluster
event fired and the measured view is provably unchanged: the pass would
recompute the previous all-deferred outcome.  Because only provable
no-ops are skipped, event-driven replay is bit-for-bit identical to the
periodic oracle (same bindings, same timestamps, same makespan) while
executing a fraction of its scheduling passes.  The default,
``event_driven=False``, is the paper's Sec. IV behaviour unchanged.

**Indexed scheduling** (``Scenario(indexed_scheduling=True)``):
inside each executed pass, the scheduler consults the incremental
:class:`~repro.scheduler.index.NodeCandidateIndex` instead of scanning
every node for every pod — same outcomes bit for bit, O(pods × nodes)
work removed from the pass itself.  Composes freely with
``event_driven`` (fewer passes × cheaper passes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..cluster.topology import paper_cluster
from ..errors import PolicyError, RegistryError, SimulationError
from ..obs.observer import build_observer
from ..orchestrator.controller import Orchestrator
from ..orchestrator.pod import Pod
from ..orchestrator.queue import PendingQueue
from ..policy.classes import priority_class_map, resolve_priority
from ..policy.preemption import PreemptionPolicy
from ..registry import PREEMPTION_POLICIES, SCHEDULERS, WORKLOADS
from ..scheduler.base import Scheduler
from ..scheduler.rebalancer import EpcRebalancer
from ..sgx.perf import SgxPerfModel
from ..workload.stress import SubmissionPlan
from .engine import EventHandle, SimulationEngine
from .events import EventKind, EventLog
from .metrics import QueueSample, ReplayMetrics

if TYPE_CHECKING:  # the scenario layer imports this module
    from ..api.scenario import Scenario


@dataclass(slots=True)
class ReplayResult:
    """Outcome of one replay."""

    scenario: Scenario
    metrics: ReplayMetrics
    log: EventLog
    orchestrator: Orchestrator
    plans: List[SubmissionPlan] = field(default_factory=list)
    #: Live migrations executed by the rebalancer (0 when disabled).
    migration_count: int = 0
    #: Scheduling passes actually executed.
    passes_executed: int = 0
    #: Wake-ups proven clean and skipped (0 in periodic mode).
    passes_skipped: int = 0
    #: Pods placed by evicting victims (0 under the ``none`` policy).
    preemption_count: int = 0
    #: Victims killed (and resubmitted) by the preemption step.
    eviction_count: int = 0
    #: Aggregate deferral reasons over executed passes, keyed by
    #: :data:`repro.scheduler.base.WAIT_REASONS` — why pods waited
    #: (EPC vs memory vs CPU vs fragmentation), not just how long.
    wait_reasons: Dict[str, int] = field(default_factory=dict)
    #: Pods the dispatcher re-routed across cells (0 in the flat
    #: oracle and, by construction, in every ``cells=1`` replay).
    cell_spillovers: int = 0
    #: Where the observability exports landed (``None`` when the
    #: corresponding :class:`~repro.obs.ledger.ObserveConfig` output
    #: was not requested).  Diagnostic only — never part of
    #: result signatures.
    ledger_path: Optional[str] = None
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None


def make_scheduler(scenario: Scenario) -> Scheduler:
    """Instantiate the strategy named by *scenario* via the registry.

    The standard toggles are passed to every factory; registered
    strategies that do not honour one (the kube-default baseline)
    accept and drop it.  ``scheduler_options`` rides along for plugin
    strategies with extra knobs.
    """
    try:
        factory = SCHEDULERS.get(scenario.scheduler)
    except RegistryError as exc:
        # Unreachable through a validated scenario; kept so a plugin
        # unregistered mid-run fails with the same error type.
        raise SimulationError(str(exc)) from exc
    return factory(
        use_measured=scenario.use_measured,
        strict_fcfs=scenario.strict_fcfs,
        preserve_sgx_nodes=scenario.preserve_sgx_nodes,
        indexed=scenario.indexed_scheduling,
        **dict(scenario.scheduler_options),
    )


def make_preemption_policy(scenario: Scenario) -> PreemptionPolicy:
    """Instantiate the planner named by *scenario* via the registry."""
    try:
        factory = PREEMPTION_POLICIES.get(scenario.preemption_policy)
    except RegistryError as exc:
        # Unreachable through a validated scenario; see make_scheduler.
        raise SimulationError(str(exc)) from exc
    return factory()


#: Workload-option keys whose string values name a priority class.
_PRIORITY_OPTION_KEYS = ("priority", "high_priority", "low_priority")


def resolve_workload_priorities(
    options: Dict[str, object], classes: Dict[str, int]
) -> Dict[str, object]:
    """Resolve priority-class *names* in workload options to integers.

    Lets a scenario say ``workload_options={"priority":
    "latency-critical"}`` and have the catalogue (built-ins plus the
    scenario's ``priority_classes``) supply the value.  Unknown names
    die here, before any replay work happens.
    """
    resolved = dict(options)
    for key in _PRIORITY_OPTION_KEYS:
        value = resolved.get(key)
        if isinstance(value, str):
            try:
                resolved[key] = resolve_priority(value, classes)
            except PolicyError as exc:
                raise SimulationError(str(exc)) from None
    return resolved


class _RunningJob:
    """Progress tracking for one started pod.

    ``seq`` is the global start order; per-node registries keep their
    jobs sorted by it so iteration matches the historical flat-dict
    scan (reschedule order feeds event sequence numbers, which break
    simultaneous-event ties — order is behaviour here).  ``uses_epc``
    is resolved once at start: the spec never changes afterwards, and
    the paging-slowdown loop is too hot for two attribute hops per job
    per tick.
    """

    __slots__ = (
        "pod",
        "node_name",
        "remaining_work",
        "last_update",
        "rate",
        "finish_handle",
        "finish_action",
        "seq",
        "uses_epc",
    )

    def __init__(self, pod: Pod, node_name: str, work_seconds: float):
        self.pod = pod
        self.node_name = node_name
        self.remaining_work = work_seconds
        self.last_update = 0.0
        self.rate = 1.0
        self.finish_handle: Optional[EventHandle] = None
        #: The finish callback, built once at start — every occupancy
        #: change re-schedules it, and a fresh closure per reschedule
        #: was measurable on the replay hot path.
        self.finish_action: Optional[Callable[[], None]] = None
        self.seq = 0
        workload = pod.spec.workload
        self.uses_epc = workload is not None and workload.uses_sgx


class _Replay:
    """One replay in flight; see :func:`run_replay`."""

    __slots__ = (
        "scenario", "cluster", "perf", "orchestrator",
        "scheduler", "engine", "log", "running", "_node_jobs",
        "_job_seq", "_sgx_node_names", "unsubmitted", "plans",
        "rebalancer", "queue_series", "migration_count",
        "passes_executed", "passes_skipped", "preemption_count",
        "eviction_count", "wait_reasons", "spillover_count", "obs",
    )

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        build_plans = WORKLOADS.get(scenario.workload)
        # Workload factories that never read the trace (hybrid,
        # malicious) declare ``consumes_trace = False``; skip the
        # synthesis (and, in sweeps, the per-worker pickling) for them.
        trace = (
            scenario.build_trace()
            if getattr(build_plans, "consumes_trace", True)
            else None
        )
        cluster_kwargs = dict(
            epc_total_bytes=scenario.epc_total_bytes,
            enforce_epc_limits=scenario.enforce_epc_limits,
            epc_allow_overcommit=scenario.epc_allow_overcommit,
        )
        if scenario.standard_workers is not None:
            cluster_kwargs["standard_workers"] = scenario.standard_workers
        if scenario.sgx_workers is not None:
            cluster_kwargs["sgx_workers"] = scenario.sgx_workers
        self.cluster = paper_cluster(**cluster_kwargs)
        self.perf = SgxPerfModel()
        self.obs = build_observer(scenario)
        self.orchestrator = self._make_orchestrator()
        self.scheduler = make_scheduler(scenario)
        self.engine = self._make_engine()
        self.log = EventLog()
        self.running: Dict[str, _RunningJob] = {}  # pod uid -> job
        #: Per-node registries (node name -> pod uid -> job), each kept
        #: in global start order (``_RunningJob.seq``); lets the
        #: per-tick sync/reschedule loops touch only the node's own
        #: jobs instead of scanning every running job per node.
        self._node_jobs: Dict[str, Dict[str, _RunningJob]] = {}
        self._job_seq = 0
        #: SGX node names in cluster order; refreshed on node churn.
        self._sgx_node_names: List[str] = [
            n.name for n in self.cluster.sgx_nodes
        ]
        self.unsubmitted = 0

        self.plans = build_plans(
            self.cluster,
            trace,
            sgx_fraction=scenario.sgx_fraction,
            seed=scenario.seed,
            scheduler_name=self.scheduler.name,
            **resolve_workload_priorities(
                dict(scenario.workload_options),
                priority_class_map(scenario.priority_classes),
            ),
        )
        if scenario.malicious is not None:
            self.plans = (
                WORKLOADS.get("malicious")(
                    self.cluster,
                    trace,
                    scheduler_name=self.scheduler.name,
                    config=scenario.malicious,
                )
                + self.plans
            )
        self.rebalancer: Optional[EpcRebalancer] = None
        if scenario.rebalance_period is not None:
            self.rebalancer = EpcRebalancer(self.orchestrator)
        self.queue_series: List[QueueSample] = []
        self.migration_count = 0
        self.passes_executed = 0
        self.passes_skipped = 0
        self.preemption_count = 0
        self.eviction_count = 0
        self.spillover_count = 0
        #: Aggregate deferral reasons over every executed pass, keyed
        #: by :data:`repro.scheduler.base.WAIT_REASONS`.
        self.wait_reasons: Dict[str, int] = {}

    # -- construction hooks (the sharded runner overrides these) ----------

    def _make_orchestrator(
        self, queue: Optional[PendingQueue] = None
    ) -> Orchestrator:
        """Build the control plane; runs after the cluster exists.

        *queue* replaces the flat pending queue (the sharded runner
        passes its cell router).
        """
        scenario = self.scenario
        return Orchestrator(
            self.cluster,
            perf_model=self.perf,
            use_state_cache=scenario.use_state_cache,
            requeue_backoff_seconds=scenario.requeue_backoff_seconds,
            preemption_policy=make_preemption_policy(scenario),
            preemption_priority_threshold=(
                scenario.preemption_priority_threshold
            ),
            queue=queue,
            observer=self.obs,
        )

    def _make_engine(self) -> SimulationEngine:
        """Build the event loop; runs after the orchestrator exists."""
        return SimulationEngine()

    # -- activity tracking -------------------------------------------------

    def _active(self) -> bool:
        if self.unsubmitted > 0 or self.running:
            return True
        return any(
            not pod.phase.is_terminal for pod in self.orchestrator.all_pods
        )

    # -- event handlers ------------------------------------------------------

    def _submit(self, plan: SubmissionPlan) -> None:
        now = self.engine.now
        self.unsubmitted -= 1
        self.orchestrator.submit(plan.spec, now)
        self.log.record(now, EventKind.SUBMITTED, pod_name=plan.spec.name)

    def _metrics_tick(self) -> None:
        now = self.engine.now
        self.orchestrator.collect_metrics(now)
        self.log.record(now, EventKind.METRICS_COLLECTED)
        if self._active():
            self.engine.schedule_in(
                self.scenario.metrics_period, self._metrics_tick
            )

    def _sample_queue(self, now: float) -> None:
        """Record the pending-queue state (Fig. 7's series), per tick."""
        queue = self.orchestrator.queue
        self.queue_series.append(
            QueueSample(
                time=now,
                queued_pods=len(queue),
                pending_epc_pages=queue.total_requested_epc_pages(),
                pending_memory_bytes=queue.total_requested_memory_bytes(),
            )
        )

    def _pass_skippable(self, now: float) -> bool:
        """Whether a pass at *now* would provably repeat the last one.

        Three facts make a wake-up clean: (1) the visible queue is
        empty — nothing to place, events can only matter to future
        pods, which arrive with events of their own; (2) no cluster
        event is ready at *now*; (3) the measured cluster state is
        fingerprint-identical to the previous pass, so the same pending
        pods against the same views would defer the same way.
        """
        orchestrator = self.orchestrator
        if orchestrator.queue.ready_count(now) == 0:
            orchestrator.trigger.discard_ready(now)
            return True
        if orchestrator.trigger.has_work(now):
            return False
        return orchestrator.state_service.state_unchanged(now)

    def _scheduler_tick(self) -> None:
        now = self.engine.now
        # Bank progress at current rates before occupancy changes.
        self._sync_all_nodes(now)
        if self.scenario.event_driven and self._pass_skippable(now):
            # Skip the pass, not the wake-up: progress banking and
            # finish-event refresh stay on the periodic cadence so the
            # float arithmetic (and hence every timestamp) matches the
            # periodic oracle bit-for-bit.  The queue is sampled too —
            # a skipped pass leaves it untouched, so the sample equals
            # the one the oracle records and Fig. 7's series match.
            self.passes_skipped += 1
            self.log.record(now, EventKind.PASS_SKIPPED)
            ledger = self.obs.ledger
            if ledger.enabled:
                ledger.emit(now, "pass_skipped")
            self._reschedule_all_nodes(now)
            self._sample_queue(now)
            if self._active():
                self.engine.schedule_in(
                    self.scenario.scheduler_period, self._scheduler_tick
                )
            return
        self._execute_pass(now)
        # Admissions changed EPC occupancy; refresh running-job rates.
        self._reschedule_all_nodes(now)
        self._sample_queue(now)
        if self._active():
            self.engine.schedule_in(
                self.scenario.scheduler_period, self._scheduler_tick
            )

    def _execute_pass(self, now: float) -> None:
        """One scheduling pass over the whole queue (the flat oracle).

        The sharded runner overrides this with one pass per cell; both
        paths feed every pass outcome through
        :meth:`_consume_pass_result`, so the bookkeeping (logging,
        start events, counters) is shared code.
        """
        spans = self.obs.spans
        span_start = spans.begin()
        result = self.orchestrator.scheduling_pass(self.scheduler, now)
        spans.end(span_start, "pass", now)
        self._consume_pass_result(result, now)

    def _schedule_start(self, pod: Pod, startup_seconds: float) -> None:
        """Arm a launched pod's start event (cell-routed when sharded)."""
        self.engine.schedule_in(
            startup_seconds, lambda p=pod: self._start(p)
        )

    def _consume_pass_result(self, result, now: float) -> None:
        """Fold one pass outcome into the replay's log and counters."""
        self.passes_executed += 1
        self.log.record(now, EventKind.SCHEDULING_PASS)
        for pod, startup_seconds in result.launched:
            self.log.record(
                now, EventKind.BOUND, pod_name=pod.name,
                node_name=pod.node_name,
            )
            self._schedule_start(pod, startup_seconds)
        for pod in result.killed:
            self.log.record(
                now,
                EventKind.LAUNCH_KILLED,
                pod_name=pod.name,
                node_name=pod.node_name,
                detail=pod.failure_reason or "",
            )
        for pod in result.rejected:
            self.log.record(
                now,
                EventKind.REJECTED,
                pod_name=pod.name,
                detail=pod.failure_reason or "",
            )
        for pod in result.requeued:
            self.log.record(now, EventKind.REQUEUED, pod_name=pod.name)
        for victim, replacement in result.evicted:
            # The preemption step killed the victim mid-pass; purge its
            # running-job entry (and dangling finish event) exactly
            # like a failed migration, keyed by uid because the
            # replacement reuses the spec name.
            job = self.running.get(victim.uid)
            if job is not None:
                if job.finish_handle is not None:
                    job.finish_handle.cancel()
                self._drop_job(job)
            self.log.record(
                now,
                EventKind.EVICTED,
                pod_name=victim.name,
                node_name=victim.node_name,
                detail=victim.failure_reason or "",
            )
            self.log.record(
                now,
                EventKind.SUBMITTED,
                pod_name=replacement.name,
                detail="resubmitted after eviction",
            )
        self.eviction_count += len(result.evicted)
        self.preemption_count += result.preemptions
        for reason, count in result.wait_reasons.items():
            self.wait_reasons[reason] = (
                self.wait_reasons.get(reason, 0) + count
            )

    def _start(self, pod: Pod) -> None:
        now = self.engine.now
        if pod.phase.is_terminal:
            return  # killed between bind and start
        self.orchestrator.start_pod(pod, now)
        assert pod.spec.workload is not None and pod.node_name is not None
        # Bank progress of already-running jobs on this node before the
        # reschedule below recomputes their finish events.
        self._sync_node(pod.node_name, now)
        job = _RunningJob(
            pod, pod.node_name, pod.spec.workload.duration_seconds
        )
        job.last_update = now
        job.finish_action = lambda: self._finish(job)
        job.seq = self._job_seq
        self._job_seq += 1
        self.running[pod.uid] = job
        self._node_jobs.setdefault(pod.node_name, {})[pod.uid] = job
        self.log.record(
            now, EventKind.STARTED, pod_name=pod.name, node_name=pod.node_name
        )
        self._reschedule_node(pod.node_name, now)

    def _rebalance_tick(self) -> None:
        now = self.engine.now
        assert self.rebalancer is not None
        # Bank progress before occupancy moves between nodes.
        self._sync_all_nodes(now)
        spans = self.obs.spans
        span_start = spans.begin()
        report = self.rebalancer.rebalance(now)
        spans.end(span_start, "rebalance", now)
        for action in report.actions:
            self.migration_count += 1
            job = next(
                (
                    j
                    for j in self.running.values()
                    if j.pod.name == action.pod_name
                ),
                None,
            )
            if job is not None:
                self._move_job(job, action.target_node)
                # Downtime pauses the workload: account it as extra
                # work at the current rate.
                job.remaining_work += action.downtime_seconds * job.rate
            self.log.record(
                now,
                EventKind.SLOWDOWN_CHANGED,
                pod_name=action.pod_name,
                node_name=action.target_node,
                detail=f"migrated from {action.source_node}",
            )
        for failure in report.failed:
            # The source-side pod died at checkpoint and its spec was
            # resubmitted by the rebalancer; purge the dead pod's job
            # entry (and its dangling finish event) so the replay does
            # not try to complete a pod that no longer exists.  Keyed
            # by uid — the replacement reuses the spec name.
            job = self.running.get(failure.pod_uid)
            if job is not None:
                if job.finish_handle is not None:
                    job.finish_handle.cancel()
                self._drop_job(job)
            self.log.record(
                now,
                EventKind.MIGRATION_FAILED,
                pod_name=failure.pod_name,
                node_name=failure.target_node,
                detail=f"restore on {failure.target_node} failed",
            )
            self.log.record(
                now,
                EventKind.SUBMITTED,
                pod_name=failure.replacement.name,
                detail=(
                    f"resubmitted after failed migration from "
                    f"{failure.source_node}"
                ),
            )
        self._reschedule_all_nodes(now)
        if self._active():
            assert self.scenario.rebalance_period is not None
            self.engine.schedule_in(
                self.scenario.rebalance_period, self._rebalance_tick
            )

    def _crash_node(self, node_name: str) -> None:
        now = self.engine.now
        # Bank progress everywhere; the crashed node's jobs are lost.
        self._sync_all_nodes(now)
        for job in self._jobs_on(node_name):
            if job.finish_handle is not None:
                job.finish_handle.cancel()
            self._drop_job(job)
        replacements = self.orchestrator.remove_node(node_name, now)
        self._sgx_node_names = [n.name for n in self.cluster.sgx_nodes]
        for pod in replacements:
            self.log.record(
                now,
                EventKind.SUBMITTED,
                pod_name=pod.name,
                detail=f"resubmitted after {node_name} crash",
            )
        self.log.record(
            now,
            EventKind.SLOWDOWN_CHANGED,
            node_name=node_name,
            detail="node crashed",
        )
        self._reschedule_all_nodes(now)

    def _finish(self, job: _RunningJob) -> None:
        now = self.engine.now
        self._sync_node(job.node_name, now)
        if job.remaining_work > 1e-6:
            # Slowed down since this event was scheduled; reschedule.
            self._reschedule_node(job.node_name, now)
            return
        self._drop_job(job)
        self.orchestrator.complete_pod(job.pod, now)
        self.log.record(
            now,
            EventKind.COMPLETED,
            pod_name=job.pod.name,
            node_name=job.node_name,
        )
        # Completion may end an over-commit episode; refresh the node.
        self._reschedule_node(job.node_name, now)

    # -- paging-slowdown bookkeeping ----------------------------------------

    def _node_slowdown(self, node_name: str, uses_epc: bool) -> float:
        if not uses_epc:
            return 1.0
        kubelet = self.orchestrator.kubelets[node_name]
        return self.perf.paging_slowdown(kubelet.epc_overcommit_ratio())

    def _jobs_on(self, node_name: str) -> List[_RunningJob]:
        jobs = self._node_jobs.get(node_name)
        return list(jobs.values()) if jobs else []

    def _drop_job(self, job: _RunningJob) -> None:
        """Remove a job from both registries (finish/evict/crash/loss)."""
        del self.running[job.pod.uid]
        node_jobs = self._node_jobs.get(job.node_name)
        if node_jobs is not None:
            node_jobs.pop(job.pod.uid, None)

    def _move_job(self, job: _RunningJob, target_node: str) -> None:
        """Re-home a migrated job, preserving start-order iteration.

        The target registry is rebuilt sorted by ``seq`` because a
        plain insert would append the migrant at the end, whereas the
        flat-scan order this registry replaces keeps it at its original
        start position.  Migrations are rare; the sort is cheap.
        """
        uid = job.pod.uid
        source_jobs = self._node_jobs.get(job.node_name)
        if source_jobs is not None:
            source_jobs.pop(uid, None)
        job.node_name = target_node
        target_jobs = self._node_jobs.setdefault(target_node, {})
        target_jobs[uid] = job
        if len(target_jobs) > 1:
            ordered = sorted(target_jobs.values(), key=lambda j: j.seq)
            target_jobs.clear()
            for entry in ordered:
                target_jobs[entry.pod.uid] = entry

    def _sync_node(self, node_name: str, now: float) -> None:
        """Bank work done at the rates in effect since the last sync."""
        jobs = self._node_jobs.get(node_name)
        if not jobs:
            return
        for job in jobs.values():
            elapsed = now - job.last_update
            # Engine time is monotone, so elapsed == 0 makes both the
            # work update and the timestamp write no-ops: skip them.
            if elapsed > 0.0:
                work = job.remaining_work - elapsed * job.rate
                job.remaining_work = work if work > 0.0 else 0.0
                job.last_update = now

    def _reschedule_node(self, node_name: str, now: float) -> None:
        """Recompute rates and finish events after an occupancy change."""
        jobs = self._node_jobs.get(node_name)
        if not jobs:
            return
        # The paging slowdown is a pure function of the node's EPC
        # occupancy, constant across this loop: compute it once for
        # the node (lazily — nodes with no enclave jobs never look).
        epc_slowdown = -1.0
        reschedule_in = self.engine.reschedule_in
        for job in jobs.values():
            if job.uses_epc:
                if epc_slowdown < 0.0:
                    epc_slowdown = self._node_slowdown(node_name, True)
                slowdown = epc_slowdown
            else:
                slowdown = 1.0
            job.rate = 1.0 / slowdown
            job.finish_handle = reschedule_in(
                job.finish_handle,
                job.remaining_work * slowdown,
                job.finish_action,
            )

    def _sync_all_nodes(self, now: float) -> None:
        for node_name in self._sgx_node_names:
            self._sync_node(node_name, now)

    def _reschedule_all_nodes(self, now: float) -> None:
        for node_name in self._sgx_node_names:
            self._reschedule_node(node_name, now)

    # -- main ---------------------------------------------------------------

    def run(self) -> ReplayResult:
        self.unsubmitted = len(self.plans)
        for plan in self.plans:
            self.engine.schedule_at(
                plan.submit_time, lambda p=plan: self._submit(p)
            )
        self.engine.schedule_at(0.0, self._metrics_tick)
        self.engine.schedule_at(
            self.scenario.scheduler_period / 2.0, self._scheduler_tick
        )
        if self.rebalancer is not None:
            assert self.scenario.rebalance_period is not None
            self.engine.schedule_at(
                self.scenario.rebalance_period, self._rebalance_tick
            )
        for crash_time, node_name in self.scenario.node_failures:
            self.engine.schedule_at(
                crash_time, lambda n=node_name: self._crash_node(n)
            )
        spans = self.obs.spans
        span_start = spans.begin()
        self.engine.run(until=self.scenario.max_sim_seconds)
        spans.end(span_start, "replay", self.engine.now)
        if self._active():
            self.obs.ledger.close()
            raise SimulationError(
                "replay did not converge within "
                f"{self.scenario.max_sim_seconds} simulated seconds "
                f"({len(self.orchestrator.queue)} pods still queued)"
            )
        metrics = ReplayMetrics(
            pods=list(self.orchestrator.all_pods),
            queue_series=self.queue_series,
            makespan_seconds=max(
                (
                    pod.finished_at
                    for pod in self.orchestrator.all_pods
                    if pod.finished_at is not None
                ),
                default=0.0,
            ),
        )
        result = ReplayResult(
            scenario=self.scenario,
            metrics=metrics,
            log=self.log,
            orchestrator=self.orchestrator,
            plans=self.plans,
            migration_count=self.migration_count,
            passes_executed=self.passes_executed,
            passes_skipped=self.passes_skipped,
            preemption_count=self.preemption_count,
            eviction_count=self.eviction_count,
            wait_reasons=dict(self.wait_reasons),
            cell_spillovers=self.spillover_count,
        )
        self._finish_observation(result)
        return result

    def _finish_observation(self, result: ReplayResult) -> None:
        """Seal the run's observability exports onto *result*.

        The ``run_end`` ledger record summarises the whole run (its
        payload comes from the same counters the result carries, so
        ledger and result can be cross-checked); the metrics registry
        is populated deterministically from converged state — counters
        and gauges derive from sim-time quantities only, so snapshots
        are byte-identical across repeat runs of one scenario.
        """
        obs = self.obs
        if not obs.enabled:
            return
        now = self.engine.now
        ledger = obs.ledger
        if ledger.enabled:
            ledger.emit(
                now, "run_end",
                makespan_s=result.metrics.makespan_seconds,
                passes=result.passes_executed,
                skipped=result.passes_skipped,
                preemptions=result.preemption_count,
                evictions=result.eviction_count,
                migrations=result.migration_count,
                spillovers=result.cell_spillovers,
            )
            ledger.close()
            result.ledger_path = ledger.path
        metrics_reg = obs.metrics
        if metrics_reg.enabled:
            reg = metrics_reg
            reg.counter(
                "repro_passes_total", result.passes_executed,
                outcome="executed",
            )
            reg.counter(
                "repro_passes_total", result.passes_skipped,
                outcome="skipped",
            )
            reg.counter("repro_preemptions_total", result.preemption_count)
            reg.counter("repro_evictions_total", result.eviction_count)
            reg.counter("repro_migrations_total", result.migration_count)
            reg.counter("repro_spillovers_total", result.cell_spillovers)
            for reason in sorted(result.wait_reasons):
                reg.counter(
                    "repro_wait_reasons_total",
                    result.wait_reasons[reason],
                    reason=reason,
                )
            for kind in sorted(ledger.counts):
                reg.counter(
                    "repro_ledger_events_total",
                    ledger.counts[kind],
                    kind=kind,
                )
            reg.gauge(
                "repro_makespan_seconds", result.metrics.makespan_seconds
            )
            phases: Dict[str, int] = {}
            for pod in result.metrics.pods:
                phases[pod.phase.value] = phases.get(pod.phase.value, 0) + 1
                if pod.bound_at is not None:
                    reg.observe(
                        "repro_pod_wait_seconds",
                        pod.bound_at - pod.submitted_at,
                    )
            for phase in sorted(phases):
                reg.gauge("repro_pods", phases[phase], phase=phase)
            assert obs.config is not None
            result.metrics_path = reg.write(obs.config.metrics_path)
        if obs.spans.enabled:
            assert obs.config is not None
            result.trace_path = obs.spans.write(obs.config.trace_path)


def run_replay(scenario: Scenario) -> ReplayResult:
    """Replay *scenario*; fully deterministic per its seeds.

    The one engine entry.  :meth:`repro.api.Scenario.run` wraps it
    into a picklable :class:`repro.api.RunResult`; call it directly
    for the live orchestrator, event log and submission plans.

    ``scenario.cells`` forks to the two-level sharded runner
    (:class:`repro.cells.runner.CellReplay`); ``cells=1`` runs the
    full sharded machinery and is bit-for-bit the flat oracle.
    """
    if scenario.cells is not None:
        from ..cells.runner import CellReplay

        return CellReplay(scenario).run()
    return _Replay(scenario).run()
