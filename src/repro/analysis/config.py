"""Scoping configuration: which rules look where.

Every rule is sound only in the packages where its invariant holds —
wall-clock reads are fine in the profiling harness, unsorted set
iteration is fine in a figure formatter — so the config carries the
scope, and the checks ask it instead of hard-coding paths.  The
defaults describe this repository; tests build narrower configs over
fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple


def _frozen(*items: str) -> FrozenSet[str]:
    return frozenset(items)


@dataclass(frozen=True)
class CheckConfig:
    """Scope and policy knobs consumed by the registered checks."""

    #: DET002: packages where the simulated clock is the only clock.
    #: Wall-clock reads (``time.time``, ``datetime.now``, ...) anywhere
    #: here would desynchronise replays from the oracle.
    simulated_time_packages: FrozenSet[str] = _frozen(
        "simulation", "orchestrator", "scheduler", "sgx", "monitoring",
    )
    #: DET002: modules exempt by design (the profiling harness measures
    #: real wall time on purpose).
    wall_clock_exempt: FrozenSet[str] = _frozen("profiling.py")

    #: DET003/DET004: packages whose control flow decides placements,
    #: evictions or event order — iteration order is behaviour there.
    decision_path_packages: FrozenSet[str] = _frozen(
        "simulation", "orchestrator", "scheduler", "sgx", "policy",
        "monitoring", "cluster",
    )

    #: LAYOUT001/LAYOUT002: the PR 6 lean-layout modules.  Every class
    #: here must stay ``__slots__``-declared (directly or via
    #: ``@dataclass(slots=True)``); a stray attribute or a non-slotted
    #: base silently resurrects ``__dict__`` and the per-pod memory it
    #: was rebuilt to shed.
    hot_layout_modules: FrozenSet[str] = _frozen(
        "simulation/engine.py",
        "simulation/runner.py",
        "orchestrator/kubelet.py",
        "orchestrator/queue.py",
        "orchestrator/pod.py",
        "scheduler/base.py",
        "scheduler/binpack.py",
        "monitoring/aggregate.py",
        "monitoring/probe.py",
        "monitoring/heapster.py",
        "obs/ledger.py",
        "obs/spans.py",
        "obs/metrics.py",
        "obs/observer.py",
    )
    #: LAYOUT: base classes known to be slot-free-safe (empty slots).
    slotted_external_bases: FrozenSet[str] = _frozen(
        "object", "abc.ABC", "ABC", "Protocol", "typing.Protocol",
        "Generic", "typing.Generic",
    )

    #: API001: the CLI module, the function whose ``add_argument``
    #: calls define the shared run/sweep scenario flags, and the module
    #: holding the ``Scenario`` dataclass those flags must map onto.
    cli_module: str = "cli.py"
    cli_flag_functions: FrozenSet[str] = _frozen("_scenario_flags")
    scenario_module: str = "api/scenario.py"
    scenario_class: str = "Scenario"
    #: Flag dest -> scenario field, where the names differ.
    cli_field_aliases: Dict[str, str] = field(
        default_factory=lambda: {
            # --trace-seed/--jobs fold into a borg-synth trace spec.
            "jobs": "trace",
            "trace_seed": "trace",
            "epc_mib": "epc_total_bytes",
            "priority_threshold": "preemption_priority_threshold",
            "cluster_workers": "standard_workers",
        }
    )
    #: Flags that deliberately have no scenario field (output shape,
    #: pool sizing); extending the CLI with a new non-scenario flag
    #: means reviewing it onto this list.
    cli_only_flags: FrozenSet[str] = _frozen("json",)

    #: REG001: registration decorators and the keywords each factory
    #: must accept (directly or via ``**options``).  Positional minima
    #: ride with the keyword tuple: workload factories take
    #: ``(cluster, trace, ...)``.
    registry_decorators: Dict[str, Tuple[Tuple[str, ...], int]] = field(
        default_factory=lambda: {
            "register_scheduler": (
                ("use_measured", "strict_fcfs", "preserve_sgx_nodes"),
                0,
            ),
            "register_workload": (
                ("sgx_fraction", "seed", "scheduler_name"),
                2,
            ),
            "register_preemption_policy": ((), 0),
            # resolve_trace calls factory(spec=..., seed=...).
            "register_trace": (("spec", "seed"), 0),
        }
    )

    #: OBS001: the module holding the frozen ``repro.ledger/v1`` schema
    #: table and the table's name.  Every ``<ledger>.emit(now, kind,
    #: **payload)`` call anywhere in the tree must use a string-literal
    #: kind declared there with only declared payload fields.
    ledger_module: str = "obs/ledger.py"
    ledger_schema_table: str = "LEDGER_EVENT_KINDS"
    #: OBS001: bare names that denote live engine objects at emit
    #: sites.  Passing one as a payload value would capture a mutable
    #: ``Pod``/``NodeView``/plan reference in the record; emit sites
    #: must pass primitives (``pod.name``, ``len(victims)``, ...).
    ledger_live_object_names: FrozenSet[str] = _frozen(
        "pod", "pods", "view", "views", "node", "victim", "victims",
        "replacement", "preemptor", "job", "plan", "candidate",
        "candidates", "kubelet", "outcome", "result", "spec", "self",
    )

    def wall_clock_scoped(self, relpath: str, package: str) -> bool:
        """Whether DET002 applies to the module at *relpath*."""
        if relpath in self.wall_clock_exempt:
            return False
        return package in self.simulated_time_packages

    def decision_path(self, package: str) -> bool:
        """Whether DET003/DET004 apply to *package*."""
        return package in self.decision_path_packages

    def hot_layout(self, relpath: str) -> bool:
        """Whether LAYOUT001/LAYOUT002 apply to *relpath*."""
        return relpath in self.hot_layout_modules


#: The configuration describing this repository's own source tree.
DEFAULT_CONFIG = CheckConfig()
