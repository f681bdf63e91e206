"""The check runner: parse once, run every selected rule, report.

Every finding is part of the gate: the tree carries no per-line
suppressions and no baseline of grandfathered findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from ..errors import SimulationError
from .config import DEFAULT_CONFIG, CheckConfig
from .findings import Finding
from .registry import CHECKS, check_names
from .report import CheckReport
from .source import Project, load_project


def _selected_checks(rules: Optional[Sequence[str]]) -> List[str]:
    if rules is None:
        return list(check_names())
    known = set(check_names())
    unknown = sorted(set(rules) - known)
    if unknown:
        raise SimulationError(
            f"unknown rule(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return sorted(set(rules))


def analyze_project(
    project: Project,
    config: CheckConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Every selected rule's findings over *project*, in report order."""
    findings: List[Finding] = []
    for name in _selected_checks(rules):
        check = CHECKS.get(name)()
        findings.extend(check.run(project, config))
    findings.sort(key=Finding.sort_key)
    return findings


def run_checks(
    root: Path,
    config: CheckConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Run the selected rules over the tree at *root*."""
    project = load_project(Path(root))
    selected = _selected_checks(rules)
    return CheckReport(
        root=str(root),
        findings=analyze_project(project, config, selected),
        modules_checked=len(project),
        rules_run=selected,
    )
