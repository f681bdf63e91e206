"""Static analysis: the determinism hazards only the source shows.

The reproduction's load-bearing guarantee is bit-for-bit determinism:
every optimisation is accepted only because replays are byte-identical
to the full-scan oracle.  The equivalence suites enforce that at
runtime; this package finds the hazards they can miss in the source
itself, before a flaky equivalence failure ships: unseeded RNG
(DET001), wall-clock reads in simulated time (DET002), iteration over
unordered sets (DET003) and identity-based tie-breakers (DET004) in
decision paths, and ledger emit sites off the frozen
``repro.ledger/v1`` table (OBS001).  Invariants the interpreter can
check itself (slotted layouts, registry call contracts, CLI flags
mapping onto ``Scenario`` fields) are left to runtime tests of their
subjects, which read the live objects.

Each rule is a function from the parsed modules to ``(path, line,
message)`` violations; :data:`RULES` maps its code to it and to the
fix hint every finding carries.  :func:`run_checks` (behind ``repro
check``) parses the tree once and runs every rule.  Every finding
fails the gate: there are no per-line suppressions and no baseline.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, Sequence, Tuple

from .determinism import (
    identity_order,
    set_iteration,
    unseeded_random,
    wall_clock,
)
from .findings import Finding
from .obs_conformance import ledger_conformance
from .report import CHECK_SCHEMA, CheckReport
from .source import ModuleSource, Violation, load_modules

Rule = Callable[[Sequence[ModuleSource]], Iterable[Violation]]

#: Rule code -> (the rule, the fix hint on each of its findings).
RULES: Dict[str, Tuple[Rule, str]] = {
    "DET001": (
        unseeded_random,
        "thread an explicit seeded generator through instead: "
        "rng = np.random.default_rng(seed) / random.Random(seed)",
    ),
    "DET002": (
        wall_clock,
        "take `now` from the simulation engine (engine.now) or thread "
        "it in as a parameter",
    ),
    "DET003": (
        set_iteration,
        "wrap the set in sorted(...) to pin the iteration order",
    ),
    "DET004": (
        identity_order,
        "order by a stable field (name, uid, sequence number) instead "
        "of id()",
    ),
    "OBS001": (
        ledger_conformance,
        "declare every event kind and its fields in the "
        "repro.ledger/v1 table (LEDGER_EVENT_KINDS) and emit only "
        "primitives: ledger.emit(now, \"kind\", field=pod.name, ...)",
    ),
}


def run_checks(root: Path) -> CheckReport:
    """Run every rule over the tree at *root*."""
    modules = load_modules(root)
    findings = [
        Finding(rule, path, line, message, hint)
        for rule, (check, hint) in RULES.items()
        for path, line, message in check(modules)
    ]
    findings.sort(key=Finding.sort_key)
    return CheckReport(
        root=str(root),
        findings=findings,
        modules_checked=len(modules),
        rules_run=list(RULES),
    )


__all__ = [
    "CHECK_SCHEMA",
    "RULES",
    "CheckReport",
    "Finding",
    "ModuleSource",
    "load_modules",
    "run_checks",
]
