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

A check plugs in with ``@register_check`` and is immediately part of
``repro check``::

    from repro.analysis import ModuleCheck, register_check

    @register_check("DET999")
    class MyCheck(ModuleCheck):
        rule = "DET999"
        description = "..."
        hint = "..."

        def check_module(self, module, config):
            yield from ()

Run the suite with :func:`run_checks` (the ``repro check`` CLI
subcommand is a thin wrapper) and scope rules per package via
:class:`CheckConfig`.  Every finding fails the gate: there are no
per-line suppressions and no baseline.
"""

from .base import Check, ModuleCheck, ProjectCheck, register_check
from .config import CheckConfig, DEFAULT_CONFIG
from .findings import Finding
from .registry import CHECKS, check_names
from .report import CHECK_SCHEMA, CheckReport
from .runner import analyze_project, run_checks
from .source import ModuleSource, Project, load_project

# Importing the rule modules registers every built-in check.
from . import checks as _builtin_checks  # noqa: F401  isort: skip

__all__ = [
    "CHECKS",
    "CHECK_SCHEMA",
    "Check",
    "CheckConfig",
    "CheckReport",
    "DEFAULT_CONFIG",
    "Finding",
    "ModuleCheck",
    "ModuleSource",
    "Project",
    "ProjectCheck",
    "analyze_project",
    "check_names",
    "load_project",
    "register_check",
    "run_checks",
]
