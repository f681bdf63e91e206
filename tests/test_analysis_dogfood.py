"""Tier-1 dogfood gate: the checker over this repository's own tree.

Add an unsorted set iteration to ``scheduler/binpack.py`` or a
wall-clock read to ``simulation/engine.py`` and this fails, with the
finding's location and hint in the assertion message.
"""

from pathlib import Path

import repro
from repro.analysis import run_checks
from repro.analysis.config import DEFAULT_CONFIG

PACKAGE_ROOT = Path(repro.__file__).parent


def _format(findings):
    return "\n".join(
        f"  {f.location()} {f.rule}: {f.message} ({f.hint})"
        for f in findings
    )


class TestDogfood:
    def test_source_tree_is_clean(self):
        report = run_checks(PACKAGE_ROOT)
        assert report.clean, (
            f"repro check found {len(report.findings)} "
            f"violation(s):\n{_format(report.findings)}"
        )

    def test_scan_actually_covered_the_tree(self):
        # Guard against a silently-empty scan reading the wrong root.
        report = run_checks(PACKAGE_ROOT)
        assert report.modules_checked > 50
        assert report.rules_run == [
            "DET001", "DET002", "DET003", "DET004", "OBS001",
        ]

    def test_scoped_paths_exist(self):
        # The scopes are membership tests: a stale entry (a deleted or
        # renamed module or package) silently switches its rules off.
        config = DEFAULT_CONFIG
        modules = sorted(config.wall_clock_exempt) + [
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
