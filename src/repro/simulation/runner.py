"""End-to-end trace replay: the paper's evaluation harness in simulation.

Drives the *real* control plane — orchestrator, kubelets, schedulers,
Heapster and the SGX probes, driver — with a deterministic event loop:

* submissions fire at the trace's timestamps;
* Heapster and the probes collect every
  :data:`~repro.constants.METRICS_PUSH_PERIOD_SECONDS` (10 s),
  reporting the usage series that started, changed or ended since the
  previous collection;
* the scheduler runs every
  :data:`~repro.constants.SCHEDULER_PERIOD_SECONDS` (5 s) over the
  persistent FCFS queue, offset by half a period;
* launched pods start after their measured startup latency (PSW boot +
  EPC allocation, Fig. 6's model) and run for their trace duration —
  stretched by the EPC paging slowdown while their node is over-
  committed (only possible when limit enforcement is off, Fig. 11).

The cluster is fixed for the whole replay: no node joins, leaves or
crashes, and no pod moves once started.

The progress of a running enclave job is tracked as *remaining work*:
whenever a node's EPC occupancy changes, work done so far is banked at
the old rate and the finish event is rescheduled at the new rate.  Each
SGX node keeps a *slowdown epoch*, the paging slowdown its enclave jobs
run at, checked whenever a scheduling pass admits a pod on the node or
evicts one from it (a failed launch leaves occupancy as it was) and
whenever an enclave job starts or finishes on it; only an epoch change
banks and re-arms jobs.  A finish event is otherwise armed once, at
start, and standard jobs are never re-armed.

The scheduler wakes on the paper's periodic grid and every wake-up
with pods queued runs a pass.  In a backlog most of those passes would
recompute the previous pass's all-deferred outcome; the orchestrator
returns that outcome instead when it provably matches (see
:meth:`repro.orchestrator.controller.Orchestrator._schedule`), so a
reused pass is indistinguishable from a recomputed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..cluster.topology import paper_cluster
from ..constants import METRICS_PUSH_PERIOD_SECONDS, SCHEDULER_PERIOD_SECONDS
from ..errors import PolicyError, RegistryError, SimulationError
from ..obs.observer import build_observer
from ..orchestrator.controller import Orchestrator
from ..orchestrator.pod import Pod
from ..policy.classes import resolve_priority
from ..policy.preemption import PreemptionPolicy
from ..registry import PREEMPTION_POLICIES, SCHEDULERS, WORKLOADS
from ..scheduler.base import Scheduler
from ..sgx.perf import SgxPerfModel
from ..workload.stress import SubmissionPlan
from .engine import EventHandle, SimulationEngine
from .metrics import QueueSample, ReplayMetrics

if TYPE_CHECKING:  # the scenario layer imports this module
    from ..api.scenario import Scenario


@dataclass(slots=True)
class ReplayResult:
    """Outcome of one replay."""

    scenario: Scenario
    metrics: ReplayMetrics
    orchestrator: Orchestrator
    plans: List[SubmissionPlan] = field(default_factory=list)
    #: Scheduling passes executed (reused ones included).
    passes_executed: int = 0
    #: Pods placed by evicting victims (0 under the ``none`` policy).
    preemption_count: int = 0
    #: Victims killed (and resubmitted) by the preemption step.
    eviction_count: int = 0
    #: Aggregate deferral reasons over executed passes, keyed by
    #: :data:`repro.scheduler.base.WAIT_REASONS` — why pods waited
    #: (EPC vs memory vs CPU vs fragmentation), not just how long.
    wait_reasons: Dict[str, int] = field(default_factory=dict)
    #: Where the observability exports landed (``None`` when the
    #: corresponding :class:`~repro.obs.ledger.ObserveConfig` output
    #: was not requested).  Diagnostic only — never part of
    #: result signatures.
    ledger_path: Optional[str] = None
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None


def make_scheduler(scenario: Scenario) -> Scheduler:
    """Instantiate the strategy named by *scenario* via the registry
    (every factory is called with no arguments)."""
    try:
        factory = SCHEDULERS.get(scenario.scheduler)
    except RegistryError as exc:
        # Unreachable through a validated scenario; kept so a plugin
        # unregistered mid-run fails with the same error type.
        raise SimulationError(str(exc)) from exc
    return factory()


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
    options: Dict[str, object],
) -> Dict[str, object]:
    """Resolve priority-class *names* in workload options to integers.

    Lets a scenario say ``workload_options={"priority":
    "latency-critical"}`` and have the built-in tiers
    (:data:`repro.policy.classes.PRIORITY_CLASSES`) supply the value.
    Unknown names die here, before any replay work happens.
    """
    resolved = dict(options)
    for key in _PRIORITY_OPTION_KEYS:
        value = resolved.get(key)
        if isinstance(value, str):
            try:
                resolved[key] = resolve_priority(value)
            except PolicyError as exc:
                raise SimulationError(str(exc)) from None
    return resolved


class _RunningJob:
    """Piecewise-linear progress of one started pod.

    The job does one second of work per ``slowdown`` seconds;
    ``remaining_work`` is what was left at ``last_update``.  Per-node
    registries keep their jobs in start order, so a node's re-arm
    order (which feeds event sequence numbers, which break
    simultaneous-event ties) is the order its jobs started.
    ``uses_epc`` is resolved once at start: the spec never changes
    afterwards.
    """

    __slots__ = (
        "pod",
        "node_name",
        "remaining_work",
        "last_update",
        "slowdown",
        "finish_handle",
        "finish_action",
        "uses_epc",
    )

    def __init__(self, pod: Pod, node_name: str, work_seconds: float):
        self.pod = pod
        self.node_name = node_name
        self.remaining_work = work_seconds
        self.last_update = 0.0
        self.slowdown = 1.0
        self.finish_handle: Optional[EventHandle] = None
        #: The finish callback, built once at start and reused by every
        #: re-arm; cleared when the job is dropped, which breaks the
        #: job <-> closure reference cycle.
        self.finish_action: Optional[Callable[[], None]] = None
        workload = pod.spec.workload
        self.uses_epc = workload is not None and workload.uses_sgx

    def bank(self, now: float) -> None:
        """Credit the work done since ``last_update`` at ``slowdown``."""
        elapsed = now - self.last_update
        if elapsed > 0.0:
            work = self.remaining_work - elapsed / self.slowdown
            self.remaining_work = work if work > 0.0 else 0.0
            self.last_update = now


class _Replay:
    """One replay in flight; see :func:`run_replay`."""

    #: The SGX nodes' hardware generation; a subclass that replays
    #: SGX 2's dynamic memory sets 2.
    sgx_version = 1

    __slots__ = (
        "scenario", "cluster", "perf", "orchestrator",
        "scheduler", "engine", "running", "_node_jobs",
        "_sgx_nodes", "_epochs", "unsubmitted", "plans",
        "queue_series", "passes_executed", "preemption_count",
        "eviction_count", "wait_reasons", "obs",
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
            sgx_version=self.sgx_version,
        )
        if scenario.standard_workers is not None:
            cluster_kwargs["standard_workers"] = scenario.standard_workers
        if scenario.sgx_workers is not None:
            cluster_kwargs["sgx_workers"] = scenario.sgx_workers
        self.cluster = paper_cluster(**cluster_kwargs)
        self.perf = SgxPerfModel()
        self.obs = build_observer(scenario)
        self.orchestrator = Orchestrator(
            self.cluster,
            perf_model=self.perf,
            preemption_policy=make_preemption_policy(scenario),
            preemption_priority_threshold=(
                scenario.preemption_priority_threshold
            ),
            observer=self.obs,
        )
        self.scheduler = make_scheduler(scenario)
        self.engine = SimulationEngine()
        self.running: Dict[str, _RunningJob] = {}  # pod uid -> job
        #: Per-node registries (node name -> pod uid -> job), each in
        #: start order; an epoch change re-arms only the node's own
        #: jobs.
        self._node_jobs: Dict[str, Dict[str, _RunningJob]] = {}
        #: SGX node names in cluster order, each with its position.
        self._sgx_nodes: Dict[str, int] = {
            node.name: index
            for index, node in enumerate(self.cluster.sgx_nodes)
        }
        #: Slowdown epochs: node name -> the paging slowdown its enclave
        #: jobs run at (absent means 1.0, no over-commit).
        self._epochs: Dict[str, float] = {}
        self.unsubmitted = 0

        self.plans = build_plans(
            self.cluster,
            trace,
            sgx_fraction=scenario.sgx_fraction,
            seed=scenario.seed,
            **resolve_workload_priorities(dict(scenario.workload_options)),
        )
        if scenario.malicious is not None:
            self.plans = (
                WORKLOADS.get("malicious")(
                    self.cluster, trace, config=scenario.malicious
                )
                + self.plans
            )
        self.queue_series: List[QueueSample] = []
        self.passes_executed = 0
        self.preemption_count = 0
        self.eviction_count = 0
        #: Aggregate deferral reasons over every executed pass, keyed
        #: by :data:`repro.scheduler.base.WAIT_REASONS`.
        self.wait_reasons: Dict[str, int] = {}

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

    def _metrics_tick(self) -> None:
        now = self.engine.now
        self.orchestrator.collect_metrics(now)
        if self._active():
            self.engine.schedule_in(
                METRICS_PUSH_PERIOD_SECONDS, self._metrics_tick
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

    def _scheduler_tick(self) -> None:
        now = self.engine.now
        self._check_sgx_nodes(self._execute_pass(now), now)
        self._sample_queue(now)
        if self._active():
            self.engine.schedule_in(
                SCHEDULER_PERIOD_SECONDS, self._scheduler_tick
            )

    def _execute_pass(self, now: float) -> Dict[Optional[str], None]:
        """One scheduling pass over the whole queue, folded into the
        replay's start events and counters; returns the nodes whose EPC
        occupancy it moved, each a pod was admitted on or evicted from.

        A failed launch tears down what it created, so it leaves its
        node's occupancy as it was and names no node.
        """
        spans = self.obs.spans
        span_start = spans.begin()
        result = self.orchestrator.scheduling_pass(self.scheduler, now)
        spans.end(span_start, "pass", now)
        self.passes_executed += 1
        moved: Dict[Optional[str], None] = {}
        for pod, startup_seconds in result.launched:
            moved[pod.node_name] = None
            self.engine.schedule_in(
                startup_seconds, lambda p=pod: self._start(p)
            )
        for victim, _ in result.evicted:
            moved[victim.node_name] = None
            # The preemption step killed the victim mid-pass; purge its
            # running-job entry (and dangling finish event), keyed by
            # uid because the replacement reuses the spec name.
            job = self.running.get(victim.uid)
            if job is not None:
                self._drop_job(job)
        self.eviction_count += len(result.evicted)
        self.preemption_count += result.preemptions
        for reason, count in result.wait_reasons.items():
            self.wait_reasons[reason] = (
                self.wait_reasons.get(reason, 0) + count
            )
        return moved

    def _start(self, pod: Pod) -> None:
        now = self.engine.now
        if pod.phase.is_terminal:
            return  # killed between bind and start
        self.orchestrator.start_pod(pod, now)
        node_name = pod.node_name
        assert pod.spec.workload is not None and node_name is not None
        job = _RunningJob(
            pod, node_name, pod.spec.workload.duration_seconds
        )
        job.last_update = now
        job.finish_action = lambda: self._finish(job)
        if job.uses_epc:
            # Settle the node's epoch before the job joins it, so the
            # job is armed once, at the slowdown it starts under.
            job.slowdown = self._check_node(node_name, now)
        self.running[pod.uid] = job
        self._node_jobs.setdefault(node_name, {})[pod.uid] = job
        self._arm(job, job.remaining_work * job.slowdown)

    def _finish(self, job: _RunningJob) -> None:
        # Every slowdown change re-armed this event: the work is done.
        now = self.engine.now
        self._drop_job(job)
        self.orchestrator.complete_pod(job.pod, now)
        if job.uses_epc:
            # Completion may end an over-commit episode on the node.
            self._check_node(job.node_name, now)

    # -- piecewise-linear progress -----------------------------------------

    def _arm(self, job: _RunningJob, delay: float) -> None:
        """(Re-)arm *job*'s finish event *delay* seconds from now."""
        job.finish_handle = self.engine.reschedule_in(
            job.finish_handle, delay, job.finish_action
        )

    def _rearm(self, job: _RunningJob, now: float, slowdown: float) -> None:
        """Bank *job*'s progress, then re-arm it to run at *slowdown*."""
        job.bank(now)
        job.slowdown = slowdown
        self._arm(job, job.remaining_work * slowdown)

    def _check_node(self, node_name: str, now: float) -> float:
        """Bring *node_name*'s slowdown epoch up to date; return it.

        The paging slowdown is a pure function of the node's EPC
        occupancy.  When it has moved off the epoch, every enclave job
        on the node banks its progress at the old epoch and re-arms at
        the new one; otherwise nothing is touched.
        """
        kubelet = self.orchestrator.kubelets[node_name]
        slowdown = self.perf.paging_slowdown(kubelet.epc_overcommit_ratio())
        if slowdown != self._epochs.get(node_name, 1.0):
            self._epochs[node_name] = slowdown
            jobs = self._node_jobs.get(node_name)
            if jobs:
                for job in jobs.values():
                    if job.uses_epc:
                        self._rearm(job, now, slowdown)
        return slowdown

    def _check_sgx_nodes(self, node_names, now: float) -> None:
        """Check the SGX nodes among *node_names* in cluster order, the
        order their jobs are re-armed in."""
        order = self._sgx_nodes
        for node_name in sorted(
            [name for name in node_names if name in order],
            key=order.__getitem__,
        ):
            self._check_node(node_name, now)

    def _drop_job(self, job: _RunningJob) -> None:
        """Disarm a job and remove it from both registries (finish or
        eviction)."""
        if job.finish_handle is not None:
            job.finish_handle.cancel()
        job.finish_action = None
        del self.running[job.pod.uid]
        del self._node_jobs[job.node_name][job.pod.uid]

    # -- main ---------------------------------------------------------------

    def run(self) -> ReplayResult:
        self.unsubmitted = len(self.plans)
        for plan in self.plans:
            self.engine.schedule_at(
                plan.submit_time, lambda p=plan: self._submit(p)
            )
        self.engine.schedule_at(0.0, self._metrics_tick)
        self.engine.schedule_at(
            SCHEDULER_PERIOD_SECONDS / 2.0, self._scheduler_tick
        )
        spans = self.obs.spans
        span_start = spans.begin()
        try:
            self.engine.run(until=self.scenario.max_sim_seconds)
        except BaseException:
            # Flush what the run recorded up to the failure.
            self.obs.ledger.close()
            raise
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
            orchestrator=self.orchestrator,
            plans=self.plans,
            passes_executed=self.passes_executed,
            preemption_count=self.preemption_count,
            eviction_count=self.eviction_count,
            wait_reasons=dict(self.wait_reasons),
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
                preemptions=result.preemption_count,
                evictions=result.eviction_count,
            )
            ledger.close()
            result.ledger_path = ledger.path
        metrics_reg = obs.metrics
        if metrics_reg.enabled:
            reg = metrics_reg
            reg.counter("repro_passes_total", result.passes_executed)
            reg.counter(
                "repro_passes_reused_total",
                result.orchestrator.passes_reused,
            )
            views = result.orchestrator.state_service
            reg.counter(
                "repro_view_nodes_rebuilt_total", views.nodes_rebuilt
            )
            reg.counter(
                "repro_view_snapshots_reused_total", views.snapshots_reused
            )
            reg.counter("repro_preemptions_total", result.preemption_count)
            reg.counter("repro_evictions_total", result.eviction_count)
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
    for the live orchestrator and submission plans.
    """
    return _Replay(scenario).run()
