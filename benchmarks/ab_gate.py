"""Same-run A/B speed gate over ``bench/run.py --json`` reports.

CI's ``speed-gate`` job runs ``bench/run.py`` on the merge base and on
the change, alternating which side runs first, then judges the runs::

    python3 benchmarks/ab_gate.py --base base-*.json --change change-*.json

For every workload and ``end_to_end`` metric of ``BENCHMARK.json`` it
compares the two sides' medians over their runs and fails when the
change is worse by more than the metric's relative ``bound`` (in the
direction ``better`` gives), when a run is incorrect or a side has no
value, or when the change fails a larger share of its attempted pods.
Both sides run on one machine, so no stored baseline seconds are used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _median(results: List[dict], metric: str) -> Optional[float]:
    values = [
        result["end_to_end"][metric]["value"]
        for result in results
        if metric in result["end_to_end"]
    ]
    return statistics.median(values) if values else None


def _failed_share(results: List[dict]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def judge(
    benchmark: dict, base: Sequence[list], change: Sequence[list]
) -> Tuple[List[str], List[str]]:
    """(table rows, failures) of the *change* reports against *base*'s.

    A report is one ``bench/run.py --json`` file: a list of results,
    one per workload.
    """
    rows = [
        f"{'workload':<15} {'metric':<13} {'bound':>6} {'base':>11} "
        f"{'change':>11} {'delta':>8}  verdict"
    ]
    failures = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        sides = {
            side: [r for run in runs for r in run if r["workload"] == workload]
            for side, runs in (("base", base), ("change", change))
        }
        for side, results in sides.items():
            failures += [
                f"{workload}: a {side} run is incorrect "
                f"({'; '.join(result['problems'])})"
                for result in results
                if not result["correct"]
            ]
        base_share, change_share = map(_failed_share, sides.values())
        if change_share > base_share:
            failures.append(
                f"{workload}: the change fails {change_share:.2%} of "
                f"attempted pods, the base {base_share:.2%}"
            )
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            head = f"{workload:<15} {name:<13} {bound:>6.0%}"
            before, after = (_median(sides[s], name) for s in sides)
            if before is None or after is None:
                failures.append(f"{workload} {name}: a side has no value")
                rows.append(f"{head} {'-':>11} {'-':>11} {'-':>8}  missing")
                continue
            delta = (after - before) / before
            worse = -delta if metric["better"] == "higher" else delta
            if worse > bound:
                failures.append(
                    f"{workload} {name}: {before:.4g} -> {after:.4g} "
                    f"({delta:+.1%}) is past the {bound:.0%} bound"
                )
            rows.append(
                f"{head} {before:>11.4g} {after:>11.4g} {delta:>+8.1%}  "
                + ("WORSE" if worse > bound else "ok")
            )
    return rows, failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    rows, failures = judge(
        json.loads(BENCHMARK.read_text()),
        [json.loads(path.read_text()) for path in args.base],
        [json.loads(path.read_text()) for path in args.change],
    )
    print(f"medians of {len(args.base)} base, {len(args.change)} change runs")
    print("\n".join(rows + [f"FAIL: {failure}" for failure in failures]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
