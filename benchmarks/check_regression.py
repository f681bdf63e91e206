"""Bench regression gate: fresh sweeps vs the committed baselines.

Re-runs the ``run_bench`` sweeps and compares each row's headline
metric against the matching row of the committed ``BENCH_*.json``:

* ``api_sweep``    — ``completed`` (scenario-layer sweep outcomes),
  with the ``parallel_identical`` pool-vs-serial equivalence flag;
* ``preemption``   — ``p50_reduction`` (high-priority-tier waiting
  time, non-preemptive vs ``cheapest-victims``);
* ``traces``       — ``completed`` (windowed-ingestion kept rows and
  synthetic-replay outcomes), with the ``deterministic`` flag proving
  every registered spec resolves and replays reproducibly;
* ``wall``         — ``speedup`` (whole-replay wall clock vs the
  pre-refactor baselines).  Unlike the advisory sweeps this gate runs
  as a *required* CI job: the hot-path rebuild's headline must not
  silently erode;
* ``obs``          — ``events`` (the decision ledger's deterministic
  record count at the gated trace size), with the ``identical`` flag
  proving a recorded run stays bit-for-bit the unobserved run.

Baselines come in two shapes, both accepted: the legacy
``{"benchmark": ..., "results": [...]}`` reports and the scenario
layer's structured sweep JSON (``{"schema": "repro.sweep/1", ...}``,
as emitted by ``repro sweep --json`` and ``SweepResult.to_json``).

A fresh metric may fall below its baseline by at most the tolerance
band (relative, default 50% — CI machines are noisy; the gate is after
order-of-magnitude regressions, not single-digit jitter).  Correctness
flags (``identical``, ``parallel_identical``, ...) must hold outright.

Exit status: 0 all good, 1 regression or broken equivalence, 2 usage
or missing baseline.  CI runs this as an *advisory* job::

    PYTHONPATH=src python benchmarks/check_regression.py --quick

``--quick`` restricts every sweep to its cheapest baseline-comparable
configuration (e.g. the smallest size for wall),
which keeps the job under a minute while still catching the
regressions that matter — an accidental fallback to the slow path
shows up at any size.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run_bench

REPO_ROOT = Path(__file__).resolve().parent.parent

#: benchmark name -> (baseline file, headline metric, row key fields,
#: correctness flag or None)
GATES = {
    "api_sweep": (
        "BENCH_api_sweep.json",
        "completed",
        ("scheduler", "sgx_fraction"),
        "parallel_identical",
    ),
    "preemption": (
        "BENCH_preemption.json", "p50_reduction", ("pods",), None
    ),
    "traces": (
        "BENCH_traces.json",
        "completed",
        ("case",),
        "deterministic",
    ),
    "wall": ("BENCH_wall.json", "speedup", ("pods",), None),
    "obs": (
        "BENCH_obs.json",
        "events",
        ("pods",),
        "identical",
    ),
}


def report_rows(report: dict) -> list:
    """The result rows of *report*, whichever shape it is in.

    Accepts the legacy bench shape (``benchmark`` + ``results``) and
    the scenario layer's sweep JSON (``schema: repro.sweep/...``).
    """
    schema = report.get("schema", "")
    if schema and not schema.startswith("repro.sweep/"):
        raise ValueError(f"unsupported report schema {schema!r}")
    if "results" not in report:
        raise ValueError(
            "report has no 'results'; expected a BENCH_*.json report "
            "or a repro.sweep/1 document"
        )
    return report["results"]


def fresh_reports(names, quick: bool) -> dict:
    """Run the selected sweeps; ``quick`` keeps each at its cheapest
    baseline-comparable point.  Only the sweeps in *names* execute —
    the others can cost minutes at full size."""
    reports = {}
    for name in names:
        if name == "preemption":
            # Quick mode keeps the 1000-pod headline row only; the
            # gated reduction must stay comparable to its baseline.
            reports[name] = run_bench.run_preemption(
                sizes=(1000,)
                if quick
                else run_bench.PREEMPTION_SIZES
            )
        elif name == "traces":
            # Quick mode shrinks the CSV but keeps the fixed window,
            # so the gated kept-row count still matches the baseline;
            # the synthetic replays are already small.
            reports[name] = run_bench.run_traces(
                csv_rows=20_000 if quick else run_bench.TRACES_CSV_ROWS
            )
        elif name == "wall":
            # Quick mode keeps the smallest size; a hot-path fallback
            # to an allocation-heavy layout shows up at any scale.
            reports[name] = run_bench.run_wall(
                sizes=(250,) if quick else (250, 1000, 2000)
            )
        elif name == "obs":
            # Quick mode keeps the 1000-pod point with one repeat:
            # the gated metric (ledger event count) is deterministic
            # per size, and the identical flag holds at any scale.
            reports[name] = run_bench.run_obs(
                sizes=(1000,) if quick else (1000, 2000),
                repeats=1 if quick else 3,
            )
        elif name == "api_sweep":
            # Quick mode halves the grid and pool but keeps the trace
            # size: the gated metric (completed jobs) must stay
            # comparable against the committed baseline rows.
            reports[name] = run_bench.run_api_sweep(
                workers=2 if quick else run_bench.API_SWEEP_WORKERS,
                grid=(
                    {
                        "scheduler": ("binpack",),
                        "sgx_fraction": (0.0, 0.5),
                    }
                    if quick
                    else None
                ),
            )
    return reports


def compare(name: str, fresh: dict, tolerance: float) -> list:
    """Failures of *fresh* against the committed baseline of *name*."""
    baseline_file, metric, keys, flag = GATES[name]
    baseline_path = REPO_ROOT / baseline_file
    baseline = json.loads(baseline_path.read_text())
    baseline_rows = {
        tuple(row[k] for k in keys): row
        for row in report_rows(baseline)
    }
    failures = []
    for row in report_rows(fresh):
        key = tuple(row[k] for k in keys)
        label = f"{name}[{', '.join(map(str, key))}]"
        if flag is not None and row[flag] is not True:
            failures.append(f"{label}: {flag} is {row[flag]!r}")
            continue
        base_row = baseline_rows.get(key)
        if base_row is None:
            print(f"  {label}: no baseline row, skipped")
            continue
        floor = base_row[metric] * (1.0 - tolerance)
        verdict = "ok" if row[metric] >= floor else "REGRESSION"
        print(
            f"  {label}: {metric} {row[metric]:.2f} "
            f"(baseline {base_row[metric]:.2f}, floor {floor:.2f}) "
            f"{verdict}"
        )
        if row[metric] < floor:
            failures.append(
                f"{label}: {metric} {row[metric]:.2f} < floor "
                f"{floor:.2f} (baseline {base_row[metric]:.2f})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare fresh bench runs against BENCH_*.json."
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed relative drop below baseline (default %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="cheapest baseline-comparable configuration per sweep "
        "(advisory CI mode)",
    )
    parser.add_argument(
        "--benchmarks",
        default=",".join(GATES),
        help="comma-separated subset of: %(default)s",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    names = [n for n in args.benchmarks.split(",") if n]
    unknown = [n for n in names if n not in GATES]
    if unknown:
        parser.error(f"unknown benchmark(s): {', '.join(unknown)}")
    missing = [
        GATES[n][0]
        for n in names
        if not (REPO_ROOT / GATES[n][0]).exists()
    ]
    if missing:
        print(f"missing baseline file(s): {', '.join(missing)}")
        return 2

    reports = fresh_reports(names, args.quick)
    failures = []
    for name in names:
        print(f"{name}:")
        failures.extend(compare(name, reports[name], args.tolerance))
    if failures:
        print("\nREGRESSIONS:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
