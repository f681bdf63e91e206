"""Tier-1 dogfood gate: the checker over this repository's own tree.

This is the test the acceptance criteria point at: delete
``__slots__`` from ``simulation/engine.py`` or add an unsorted set
iteration to ``scheduler/binpack.py`` and this fails, with the
finding's location and hint in the assertion message.
"""

import json
from pathlib import Path

import repro
from repro.analysis import load_baseline, run_checks
from repro.analysis.config import DEFAULT_CONFIG

PACKAGE_ROOT = Path(repro.__file__).parent
BASELINE = Path(__file__).parent.parent / "repro-check-baseline.json"


def _format(findings):
    return "\n".join(
        f"  {f.location()} {f.rule}: {f.message} ({f.hint})"
        for f in findings
    )


class TestDogfood:
    def test_source_tree_is_clean(self):
        baseline = (
            load_baseline(BASELINE) if BASELINE.exists() else None
        )
        report = run_checks(PACKAGE_ROOT, baseline=baseline)
        assert report.clean, (
            f"repro check found {len(report.findings)} new "
            f"violation(s):\n{_format(report.findings)}"
        )

    def test_scan_actually_covered_the_tree(self):
        # Guard against a silently-empty scan reading the wrong root.
        report = run_checks(PACKAGE_ROOT)
        assert report.modules_checked > 50
        assert len(report.rules_run) >= 8

    def test_committed_baseline_is_empty(self):
        # The cleanup is done; the baseline must never regrow without
        # review.  (BASELINE is committed at the repo root.)
        document = json.loads(BASELINE.read_text())
        assert document["schema"] == "repro.check/v1"
        assert document["findings"] == []

    def test_scoped_paths_exist(self):
        # The scopes are membership tests: a stale entry (a deleted or
        # renamed module or package) silently switches its rules off.
        config = DEFAULT_CONFIG
        modules = sorted(
            config.hot_layout_modules | config.wall_clock_exempt
        ) + [
            config.cli_module,
            config.scenario_module,
            config.ledger_module,
        ]
        packages = sorted(
            config.simulated_time_packages
            | config.decision_path_packages
        )
        missing = [
            path for path in modules
            if not (PACKAGE_ROOT / path).is_file()
        ] + [
            package + "/" for package in packages
            if not (PACKAGE_ROOT / package).is_dir()
        ]
        assert missing == [], (
            f"CheckConfig names paths absent from {PACKAGE_ROOT}: "
            f"{missing}"
        )
