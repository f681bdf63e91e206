"""Scoping configuration: which rules look where.

Every rule is sound only in the packages where its invariant holds —
wall-clock reads are fine in the profiling harness, unsorted set
iteration is fine in a figure formatter — so the config carries the
scope, and the checks ask it instead of hard-coding paths.  The
defaults describe this repository; tests build narrower configs over
fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet


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


#: The configuration describing this repository's own source tree.
DEFAULT_CONFIG = CheckConfig()
