"""``CheckReport``: the result object behind both output formats.

One report = one checker run.  ``to_table()`` renders the CLI's
human-readable view through the same fixed-width formatter the bench
harness uses; ``to_json()`` emits the machine document (schema
``repro.check/v1``) the CI job uploads as an artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from ..api.format import format_table
from .findings import Finding

#: Schema tag stamped into the JSON report.
CHECK_SCHEMA = "repro.check/v1"


@dataclass(slots=True)
class CheckReport:
    """Everything one ``repro check`` run determined.

    ``findings`` are the gate: every violation of the rules run
    (DET001-DET004 and OBS001); nothing is suppressed or
    grandfathered.  The counters exist so a clean run is
    distinguishable from a run that scanned nothing.
    """

    root: str
    findings: List[Finding] = field(default_factory=list)
    modules_checked: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        """CLI convention: 0 clean, 1 findings (2 is usage errors,
        raised before a report exists)."""
        return 0 if self.clean else 1

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "schema": CHECK_SCHEMA,
            "root": self.root,
            "modules_checked": self.modules_checked,
            "rules_run": list(self.rules_run),
            "count": len(self.findings),
            "counts_by_rule": self.counts_by_rule(),
            "findings": [
                finding.to_dict()
                for finding in sorted(
                    self.findings, key=Finding.sort_key
                )
            ],
        }
        return json.dumps(payload, indent=indent)

    def to_table(self) -> str:
        ordered = sorted(self.findings, key=Finding.sort_key)
        summary = (
            f"{len(ordered)} finding(s) in {self.modules_checked} "
            f"module(s) [{len(self.rules_run)} rule(s)]"
        )
        if not ordered:
            return f"OK: 0 findings — {summary}"
        table = format_table(
            ("location", "rule", "message", "hint"),
            [
                (f.location(), f.rule, f.message, f.hint)
                for f in ordered
            ],
        )
        return f"{table}\n\n{summary}"
