"""``Scenario``: one validated, immutable experiment description.

The paper's evaluation is one sentence — "replay one scaled Borg trace
under many configurations" — and a :class:`Scenario` is that sentence
as a value: cluster shape, trace source and seed, workload and
scheduler name.  It validates at construction (unknown
scheduler/workload names die here with the list of registered names),
is immutable and picklable (so sweeps can ship it to worker
processes), and is the only configuration the replay engine reads:
``.run()`` wraps :func:`repro.simulation.runner.run_replay`::

    from repro.api import Scenario

    result = Scenario(scheduler="spread", sgx_fraction=0.5).run()
    print(result.to_row()["mean_wait_s"])
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    Union,
)

# Importing the strategy/workload/policy *packages* registers every
# built-in with the registries, so a bare ``Scenario(scheduler=
# "spread")`` always resolves.
from .. import policy as _policy_builtins  # noqa: F401
from .. import scheduler as _scheduler_builtins  # noqa: F401
from .. import workload as _workload_builtins  # noqa: F401
from ..constants import EPC_TOTAL_BYTES
from ..errors import RegistryError, SimulationError
from ..obs.ledger import ObserveConfig
from ..policy.classes import DEFAULT_PREEMPTION_THRESHOLD
from ..registry import (
    PREEMPTION_POLICIES,
    SCHEDULERS,
    TRACES,
    WORKLOADS,
    Registry,
)
from ..simulation.metrics import ReplayMetrics
from ..simulation.runner import run_replay
from ..trace.adapters import resolve_trace
from ..trace.schema import Trace
from ..trace.spec import parse_trace_spec
from ..workload.malicious import MaliciousConfig
from .format import RUN_SCHEMA, format_table

#: Option mappings stored on the frozen scenario: sorted (key, value)
#: pairs, so scenarios stay hashable and order-insensitively equal.
OptionItems = Tuple[Tuple[str, object], ...]


def freeze_options(
    options: Union[Mapping[str, object], Iterable[Tuple[str, object]], None],
) -> OptionItems:
    """Normalise a mapping (or pair iterable) into sorted items."""
    if options is None:
        return ()
    return tuple(sorted(dict(options).items()))


def _require_registered(registry: Registry, name: str) -> None:
    """Fail with the sorted known names if *name* is not registered."""
    try:
        registry.get(name)
    except RegistryError as exc:
        raise SimulationError(str(exc)) from None


def _check_call(
    factory: Callable[..., object],
    failure: str,
    *args: object,
    **kwargs: object,
) -> None:
    """Fail at construction unless the engine's later call
    ``factory(*args, **kwargs)`` binds.

    Checks the factory's signature without calling it: a plugin with
    a bespoke constructor, or an unknown keyword on a factory without
    ``**options``, would otherwise die with a bare TypeError deep
    inside ``.run()`` (possibly in a pool worker).
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return
    try:
        signature.bind(*args, **kwargs)
    except TypeError as exc:
        raise SimulationError(f"{failure}: {exc}") from None


def _is_int(value: object) -> bool:
    """A real ``int``; ``bool`` is excluded."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Scenario:
    """One experiment: what to replay, on what cluster, with which knobs.

    Defaults reproduce the paper's testbed (2 standard + 2 SGX
    workers, 128 MiB PRM) replaying the default scaled trace with the
    binpack strategy and no SGX jobs.  The scheduling discipline is the
    paper's alone: a pass every
    :data:`~repro.constants.SCHEDULER_PERIOD_SECONDS` over the whole
    queue, FCFS skipping what cannot be placed, against monitoring
    pushed every :data:`~repro.constants.METRICS_PUSH_PERIOD_SECONDS`;
    ``scheduler="kube-default"`` is the declared-only baseline.

    The workload comes from the ``trace`` spec — any adapter in
    :data:`repro.registry.TRACES` (``repro traces`` lists them)::

        Scenario(trace="borg-synth:seed=7,jobs=500").run()
        Scenario(trace="borg-csv:path=trace.csv,window=1h,sample=0.05")
        Scenario(trace=my_trace)          # an explicit Trace object

    The cluster is fixed for the whole replay: the workers are built
    at start and none joins, leaves or crashes.

    Invalid knobs are rejected here — a bad SGX fraction, a
    non-positive or non-finite EPC size or stop time, an unknown
    scheduler name or a strategy that cannot be built with no
    arguments dies at construction with a :class:`SimulationError`,
    not minutes into a replay.
    """

    #: Optional display name; shows up as the row label in tables.
    name: str = ""

    # -- scheduler ---------------------------------------------------------
    #: Any name registered in :data:`repro.registry.SCHEDULERS`; the
    #: strategy is built with no arguments.
    scheduler: str = "binpack"

    # -- workload ----------------------------------------------------------
    #: Any name registered in :data:`repro.registry.WORKLOADS`; the
    #: default is the paper's STRESS-SGX trace materialisation.
    workload: str = "stress"
    workload_options: OptionItems = ()
    #: Share of trace jobs designated SGX-enabled (Fig. 8's sweep).
    sgx_fraction: float = 0.0
    #: Per-run randomness (SGX designation etc.).
    seed: int = 0
    #: Side deployment of Section VI-F squatters next to the workload.
    malicious: Optional[MaliciousConfig] = None

    # -- trace source ------------------------------------------------------
    #: What to replay: a trace spec string resolved through
    #: :data:`repro.registry.TRACES` — e.g. ``"borg-synth:seed=7,
    #: jobs=500"`` or ``"borg-csv:path=trace.csv,window=1h"`` — or an
    #: explicit :class:`Trace`.  ``None`` replays the paper's default scaled
    #: slice (``"borg-synth"``).  ``repro traces`` lists the catalogue.
    trace: Optional[Union[Trace, str]] = None

    # -- cluster shape -----------------------------------------------------
    epc_total_bytes: int = EPC_TOTAL_BYTES
    #: ``None`` keeps the paper's testbed (2 standard + 2 SGX workers).
    standard_workers: Optional[int] = None
    sgx_workers: Optional[int] = None

    # -- driver / limit policy (Fig. 11's switches) ------------------------
    #: Figs. 8-10 run on the stock driver: no per-pod limits, paging
    #: allowed.  Fig. 11's "limits enabled" runs flip both switches.
    enforce_epc_limits: bool = False
    epc_allow_overcommit: bool = True

    # -- priority & preemption (the policy subsystem) ----------------------
    #: Planner consulted when a pod above the threshold fails
    #: placement (any name in
    #: ``repro.registry.PREEMPTION_POLICIES``).  The default ``none``
    #: keeps the paper's strictly non-preemptive scheduling and is
    #: bit-for-bit identical to the pre-policy engine.
    preemption_policy: str = "none"
    #: Deferred pods at or above this priority may trigger evictions.
    preemption_priority_threshold: int = DEFAULT_PREEMPTION_THRESHOLD

    # -- observability -----------------------------------------------------
    #: Export targets for the decision ledger (JSONL), span trace
    #: (Chrome trace-event JSON) and metrics snapshot (Prometheus
    #: text).  ``None`` — the default — runs the allocation-free null
    #: observer; an observed run's :meth:`RunResult.signature` is
    #: identical to the unobserved one, on every engine.
    observe: Optional[ObserveConfig] = None

    # -- stop --------------------------------------------------------------
    #: Hard stop; generous because small EPC sizes drain slowly (Fig. 7).
    max_sim_seconds: float = 48 * 3600.0

    def __post_init__(self) -> None:
        # Accept a plain dict for the options; store sorted items so
        # the scenario stays frozen, hashable and picklable.
        if not isinstance(self.workload_options, tuple):
            object.__setattr__(
                self,
                "workload_options",
                freeze_options(self.workload_options),
            )
        if isinstance(self.trace, str):
            # Die at construction, not mid-replay: the name must be a
            # registered adapter (the error lists the sorted known
            # ones) and the spec must parse.
            TRACES.get(parse_trace_spec(self.trace).name)
        if self.observe is not None and not isinstance(
            self.observe, ObserveConfig
        ):
            raise SimulationError(
                f"observe must be an ObserveConfig: {self.observe!r}"
            )
        if not 0.0 <= self.sgx_fraction <= 1.0:
            raise SimulationError(
                f"sgx_fraction outside [0, 1]: {self.sgx_fraction}"
            )
        _require_registered(SCHEDULERS, self.scheduler)
        _require_registered(WORKLOADS, self.workload)
        _require_registered(PREEMPTION_POLICIES, self.preemption_policy)
        if not _is_int(self.preemption_priority_threshold):
            raise SimulationError(
                "preemption_priority_threshold must be an int: "
                f"{self.preemption_priority_threshold!r}"
            )
        if self.malicious is not None and self.workload == "malicious":
            raise SimulationError(
                "workload='malicious' already deploys the squatters; "
                "the malicious= side deployment would duplicate their "
                "pod names — drop one of the two"
            )
        _check_call(
            SCHEDULERS.get(self.scheduler),
            f"scheduler {self.scheduler!r} cannot be built with no "
            "arguments",
        )
        standard = {"sgx_fraction": self.sgx_fraction, "seed": self.seed}
        options = dict(self.workload_options)
        shadowed = sorted(set(options) & set(standard))
        if shadowed:
            raise SimulationError(
                "workload_options may not shadow the standard knob(s) "
                f"{', '.join(shadowed)}; set the scenario field instead"
            )
        # Placeholders stand in for the cluster and trace the engine
        # passes first.
        _check_call(
            WORKLOADS.get(self.workload),
            f"invalid workload_options for {self.workload!r}"
            if options
            else f"workload {self.workload!r} cannot be called with the "
            "standard knobs (sgx_fraction, seed)",
            "cluster",
            "trace",
            **standard,
            **options,
        )
        for positive_field in ("max_sim_seconds", "epc_total_bytes"):
            value = getattr(self, positive_field)
            # Chained so NaN fails too: ``value <= 0`` is False for it.
            if not 0 < value < math.inf:
                raise SimulationError(
                    f"{positive_field} must be positive and finite: "
                    f"{value}"
                )
        if not _is_int(self.seed):
            raise SimulationError(f"seed must be an int: {self.seed!r}")
        for worker_field in ("standard_workers", "sgx_workers"):
            value = getattr(self, worker_field)
            if value is not None and (not _is_int(value) or value < 1):
                raise SimulationError(
                    f"{worker_field} must be an int >= 1: {value!r}"
                )

    # -- derived views -----------------------------------------------------

    @property
    def label(self) -> str:
        """Row label: the explicit name, or a knob summary."""
        if self.name:
            return self.name
        return (
            f"{self.scheduler}/{self.workload}"
            f"/sgx={self.sgx_fraction:g}/seed={self.seed}"
        )

    def build_trace(self) -> Trace:
        """The trace this scenario replays (resolved or explicit).

        Spec strings resolve through :data:`repro.registry.TRACES`;
        an explicit :class:`Trace` is returned as-is; ``None`` means
        the paper's default scaled slice.
        """
        if isinstance(self.trace, Trace):
            return self.trace
        return resolve_trace(self.trace or "borg-synth")

    def with_(self, **changes: object) -> "Scenario":
        """A copy with *changes* applied (re-validated on build)."""
        valid = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(changes) - valid)
        if unknown:
            raise SimulationError(
                f"unknown scenario field(s) {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(valid))}"
            )
        return dataclasses.replace(self, **changes)

    # -- execution ---------------------------------------------------------

    def run(self) -> "RunResult":
        """Execute the scenario; fully deterministic per its seeds."""
        replay = run_replay(self)
        return RunResult(
            scenario=self,
            metrics=replay.metrics,
            passes_executed=replay.passes_executed,
            preemption_count=replay.preemption_count,
            eviction_count=replay.eviction_count,
            wait_reasons=replay.wait_reasons,
            ledger_path=replay.ledger_path,
            trace_path=replay.trace_path,
            metrics_path=replay.metrics_path,
        )


@dataclass(frozen=True)
class RunResult:
    """Structured outcome of one scenario run.

    Carries the scenario, the full :class:`ReplayMetrics` (per-pod
    lifecycles, the Fig. 7 queue series, makespan) and the engine's
    pass, preemption and eviction counters — everything picklable, so
    parallel sweep workers can ship results back whole.  The live
    orchestrator intentionally stays behind in the worker; scenarios
    that need it should drive the engine directly.
    """

    scenario: Scenario
    metrics: ReplayMetrics
    passes_executed: int = 0
    #: Pods placed by evicting victims (0 under the ``none`` policy).
    preemption_count: int = 0
    #: Victims evicted (killed and resubmitted) for those placements.
    eviction_count: int = 0
    #: Aggregate deferral reasons (see
    #: :data:`repro.scheduler.base.WAIT_REASONS`): *why* pods waited —
    #: EPC vs memory vs CPU starvation vs fragmentation — not just how
    #: long.
    wait_reasons: Dict[str, int] = dataclasses.field(
        default_factory=dict
    )
    #: Where the observability exports landed (``None`` unless the
    #: scenario's ``observe`` requested them).  Deliberately excluded
    #: from :meth:`signature` and :meth:`to_row`: observation must
    #: never change what two runs count as equal.
    ledger_path: Optional[str] = None
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None

    def pod_signature(self) -> Tuple:
        """Every pod's full lifecycle, for bit-for-bit comparison."""
        return tuple(
            (
                pod.name,
                pod.phase.value,
                pod.submitted_at,
                pod.bound_at,
                pod.started_at,
                pod.finished_at,
                pod.node_name,
            )
            for pod in self.metrics.pods
        )

    def signature(self) -> Tuple:
        """Everything that must match for two runs to count as equal:
        pod lifecycles, makespan, the queue series and the engine
        counters.  Serial and parallel sweeps must agree on this bit
        for bit."""
        return (
            self.pod_signature(),
            self.metrics.makespan_seconds,
            tuple(self.metrics.queue_series),
            self.passes_executed,
            # Where 3.x counted event-driven skipped passes; a constant,
            # like the spillover slot below.
            0,
            # Where 15.x and earlier counted live migrations.
            0,
            self.preemption_count,
            self.eviction_count,
            tuple(sorted(self.wait_reasons.items())),
            # Where 2.x counted sharded spillovers; the constant keeps
            # the tuple's shape, so committed digests stay valid.
            0,
        )

    def to_row(self) -> Dict[str, object]:
        """The flat summary row every formatter renders."""
        scenario = self.scenario
        metrics = self.metrics
        return {
            "scenario": scenario.label,
            "scheduler": scenario.scheduler,
            "workload": scenario.workload,
            "sgx_fraction": scenario.sgx_fraction,
            "seed": scenario.seed,
            "epc_mib": round(scenario.epc_total_bytes / 2**20, 3),
            "submitted": len(metrics.pods),
            "completed": len(metrics.succeeded),
            "failed": len(metrics.failed),
            "makespan_s": round(metrics.makespan_seconds, 3),
            "mean_wait_s": round(metrics.mean_waiting_seconds(), 3),
            "max_wait_s": round(metrics.max_waiting_seconds(), 3),
            "turnaround_h": round(metrics.total_turnaround_hours(), 3),
            "passes_executed": self.passes_executed,
            "preemptions": self.preemption_count,
            "evictions": self.eviction_count,
            # Deferral-reason aggregates: what the queue waited *on*.
            "wait_epc": self.wait_reasons.get("epc", 0),
            "wait_memory": self.wait_reasons.get("memory", 0),
            "wait_cpu": self.wait_reasons.get("cpu", 0),
            "wait_fragmentation": self.wait_reasons.get(
                "fragmentation", 0
            ),
        }

    def to_json(self, indent: int = 2) -> str:
        """The summary row as a schema-tagged JSON document."""
        return json.dumps(
            {"schema": RUN_SCHEMA, **self.to_row()}, indent=indent
        )

    def to_table(self) -> str:
        """The summary row as a one-row text table."""
        row = self.to_row()
        return format_table(list(row.keys()), [list(row.values())])
