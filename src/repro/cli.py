"""Command-line interface: figures, single scenarios, and sweeps.

Usage::

    python -m repro list
    python -m repro fig7 [--trace-seed N] [--run-seed N]
    python -m repro all
    python -m repro run --scheduler spread --sgx-fraction 0.5 [--json]
    python -m repro run --trace borg-csv:path=trace.csv,window=1h --json
    python -m repro traces
    python -m repro sweep --grid sgx_fraction=0,0.5,1 --workers 4
    python -m repro profile --jobs 1000 --top 30 --collapsed-out out.txt
    python -m repro check --format json
    python -m repro record --seed 3 --ledger run.ledger.jsonl
    python -m repro diff a.ledger.jsonl b.ledger.jsonl
    python -m repro explain --ledger run.ledger.jsonl --pod sgx-job-4

The figure commands regenerate the paper's evaluation tables; ``run``
and ``sweep`` execute ad-hoc scenarios through :mod:`repro.api`, with
the same row formatter behind the table and ``--json`` output.
``profile`` runs one scenario under the profiling harness
(:mod:`repro.profiling`) and prints the top-frame table, optionally
writing flame-graph-compatible collapsed stacks.  ``check`` runs the
determinism & invariant static analysis (:mod:`repro.analysis`) over
the source tree.  The observability trio drives :mod:`repro.obs`:
``record`` runs any ``run`` scenario with the decision ledger (and
optionally span trace / metrics snapshot) enabled, ``diff`` compares
two ledgers and pinpoints the first diverging decision, and
``explain`` reconstructs one pod's lifecycle from a ledger.  Exit
status is 0 on success, 1 when ``check`` has findings or ``diff``
found divergence, 2 on usage errors (including unknown scheduler/
workload/grid-field names, missing ledger files and unknown pod
names, which die before anything runs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .api import ObserveConfig, Scenario, Sweep
from .constants import DEFAULT_RUN_SEED, DEFAULT_TRACE_SEED
from .errors import RegistryError, SimulationError, TraceError
from .experiments import common
from .experiments.ext_hybrid import format_ext_hybrid, run_ext_hybrid
from .experiments.ext_sgx2 import format_ext_sgx2, run_ext_sgx2
from .experiments.fig10_turnaround import format_fig10, run_fig10
from .experiments.fig11_limits import format_fig11, run_fig11
from .experiments.fig3_memory_cdf import format_fig3, run_fig3
from .experiments.fig4_duration_cdf import format_fig4, run_fig4
from .experiments.fig5_concurrency import format_fig5, run_fig5
from .experiments.fig6_startup import format_fig6, run_fig6
from .experiments.fig7_epc_sizes import format_fig7, run_fig7
from .experiments.fig8_waiting_cdf import format_fig8, run_fig8
from .experiments.fig9_strategies import format_fig9, run_fig9
from .profiling import (
    DEFAULT_SAMPLE_INTERVAL,
    DEFAULT_TOP,
    profile_scenario,
)
from .trace.adapters import trace_catalogue
from .trace.spec import make_trace_spec
from .units import mib

#: name -> (description, run, format)
_FIGURES: Dict[str, Tuple[str, Callable, Callable]] = {
    "fig3": (
        "Borg trace: max memory usage CDF",
        lambda seeds: run_fig3(seed=seeds[0]),
        format_fig3,
    ),
    "fig4": (
        "Borg trace: job duration CDF",
        lambda seeds: run_fig4(seed=seeds[0]),
        format_fig4,
    ),
    "fig5": (
        "Borg trace: concurrent jobs over the first 24 h",
        lambda seeds: run_fig5(seed=seeds[0]),
        format_fig5,
    ),
    "fig6": (
        "SGX process startup vs requested EPC size",
        lambda seeds: run_fig6(),
        format_fig6,
    ),
    "fig7": (
        "pending queue vs simulated EPC size (32..256 MiB)",
        lambda seeds: run_fig7(
            trace=common.default_trace(seeds[0]), seed=seeds[1]
        ),
        format_fig7,
    ),
    "fig8": (
        "waiting-time CDF for 0..100 % SGX job shares",
        lambda seeds: run_fig8(
            trace=common.default_trace(seeds[0]), seed=seeds[1]
        ),
        format_fig8,
    ),
    "fig9": (
        "waiting time vs requested memory, spread vs binpack",
        lambda seeds: run_fig9(
            trace=common.default_trace(seeds[0]), seed=seeds[1]
        ),
        format_fig9,
    ),
    "fig10": (
        "total turnaround per strategy and job type",
        lambda seeds: run_fig10(
            trace=common.default_trace(seeds[0]), seed=seeds[1]
        ),
        format_fig10,
    ),
    "fig11": (
        "malicious containers with and without EPC limits",
        lambda seeds: run_fig11(
            trace=common.default_trace(seeds[0]), seed=seeds[1]
        ),
        format_fig11,
    ),
    "ext-sgx2": (
        "extension: SGX 1 vs SGX 2 on a bursty enclave workload",
        lambda seeds: run_ext_sgx2(seed=seeds[1]),
        format_ext_sgx2,
    ),
    "ext-hybrid": (
        "extension: hybrid trusted/untrusted jobs, binding resource",
        lambda seeds: run_ext_hybrid(seed=seeds[1]),
        format_ext_hybrid,
    ),
}

def _seed_flags() -> argparse.ArgumentParser:
    """Shared ``--trace-seed``/``--run-seed`` flags (figure commands)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace-seed",
        type=int,
        default=DEFAULT_TRACE_SEED,
        help="seed of the synthetic Borg trace (default %(default)s)",
    )
    parent.add_argument(
        "--run-seed",
        type=int,
        default=DEFAULT_RUN_SEED,
        help="seed of per-run randomness such as SGX job designation "
        "(default %(default)s)",
    )
    return parent


def _scenario_flags() -> argparse.ArgumentParser:
    """Shared scenario-building flags (``run``/``sweep`` commands)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scheduler",
        default="binpack",
        help="registered strategy name (default %(default)s)",
    )
    parent.add_argument(
        "--workload",
        default="stress",
        help="registered workload name (default %(default)s)",
    )
    parent.add_argument(
        "--sgx-fraction",
        type=float,
        default=0.0,
        help="share of jobs designated SGX-enabled (default %(default)s)",
    )
    parent.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_RUN_SEED,
        help="per-run randomness seed (default %(default)s)",
    )
    parent.add_argument(
        "--trace",
        metavar="SPEC",
        default=None,
        help="trace spec 'name:key=val,...' resolved through the "
        "trace-adapter registry, e.g. 'borg-synth:seed=7,jobs=500' "
        "or 'borg-csv:path=trace.csv,window=1h,sample=0.05'; "
        "'repro traces' lists the catalogue (default: the paper's "
        "scaled Borg slice)",
    )
    parent.add_argument(
        "--trace-seed",
        type=int,
        default=None,
        help="seed of the synthetic Borg trace (shorthand for "
        "--trace borg-synth:seed=N; default "
        f"{DEFAULT_TRACE_SEED})",
    )
    parent.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="trace jobs (shorthand for --trace borg-synth:jobs=N; "
        "default: the paper's 663-job slice)",
    )
    parent.add_argument(
        "--epc-mib",
        type=float,
        default=None,
        help="simulated PRM size in MiB (default: the paper's 128)",
    )
    parent.add_argument(
        "--preemption-policy",
        default="none",
        help="registered preemption planner consulted for "
        "high-priority pods the pass cannot place (default "
        "%(default)s: the paper's non-preemptive scheduling)",
    )
    parent.add_argument(
        "--priority-threshold",
        type=int,
        default=100,
        help="minimum pod priority that may trigger preemption "
        "(default %(default)s)",
    )
    parent.add_argument(
        "--cluster-workers",
        type=int,
        default=None,
        help="cluster scale: N standard + N SGX workers "
        "(default: the paper's 2+2 testbed)",
    )
    parent.add_argument(
        "--json",
        action="store_true",
        help="emit the structured JSON document instead of a table",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation figures of 'SGX-Aware Container "
            "Orchestration for Heterogeneous Clusters' (ICDCS 2018), or "
            "run ad-hoc scenarios and sweeps through the scenario API."
        ),
    )
    subparsers = parser.add_subparsers(
        dest="command", metavar="command", required=True
    )
    seeds = _seed_flags()
    for name in sorted(_FIGURES):
        subparsers.add_parser(
            name,
            parents=[seeds],
            # argparse %-expands help strings; descriptions contain
            # literal percent signs ("0..100 % SGX job shares").
            help=_FIGURES[name][0].replace("%", "%%"),
        )
    subparsers.add_parser(
        "all", parents=[seeds], help="regenerate every figure"
    )
    subparsers.add_parser(
        "list", parents=[seeds], help="list the available commands"
    )
    traces_parser = subparsers.add_parser(
        "traces",
        help="list the registered trace adapters (the --trace catalogue)",
    )
    traces_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the catalogue as a JSON array",
    )

    scenario_flags = _scenario_flags()
    subparsers.add_parser(
        "run",
        parents=[scenario_flags],
        help="run one scenario built from flags",
    )
    sweep_parser = subparsers.add_parser(
        "sweep",
        parents=[scenario_flags],
        help="run a grid of scenario variations",
    )
    sweep_parser.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="FIELD=V1,V2,...",
        help="sweep axis over a scenario field (repeatable; axes are "
        "crossed); 'epc_mib' is accepted as a convenience alias",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size executing the sweep (default serial)",
    )
    profile_parser = subparsers.add_parser(
        "profile",
        parents=[scenario_flags],
        help="profile one scenario: top frames + collapsed stacks",
    )
    profile_parser.add_argument(
        "--top",
        type=int,
        default=DEFAULT_TOP,
        help="frames kept in the tottime table (default %(default)s)",
    )
    profile_parser.add_argument(
        "--sample-interval",
        type=float,
        default=DEFAULT_SAMPLE_INTERVAL,
        help="stack-sampling period in seconds; 0 disables sampling "
        "(default %(default)s)",
    )
    profile_parser.add_argument(
        "--collapsed-out",
        metavar="PATH",
        default=None,
        help="write flamegraph.pl-compatible collapsed stacks here",
    )
    record_parser = subparsers.add_parser(
        "record",
        parents=[scenario_flags],
        help="run one scenario with the decision ledger enabled",
        description=(
            "Run one scenario (same flags as 'run') with the "
            "observability exports on: every scheduling decision goes "
            "to a repro.ledger/v1 JSONL file, and optionally a Chrome "
            "trace (open in Perfetto) and a Prometheus metrics "
            "snapshot.  The run itself is bit-for-bit identical to "
            "the unobserved one."
        ),
    )
    record_parser.add_argument(
        "--ledger",
        metavar="PATH",
        required=True,
        help="write the decision ledger (repro.ledger/v1 JSONL) here",
    )
    record_parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="also write a Chrome trace-event JSON of the run's spans",
    )
    record_parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="also write a Prometheus text-format metrics snapshot",
    )
    diff_parser = subparsers.add_parser(
        "diff",
        help="compare two decision ledgers, pinpoint the divergence",
        description=(
            "Walk two repro.ledger/v1 files in lockstep, report "
            "hit/diff statistics, and show the first diverging "
            "decision with context from both sides plus the config "
            "knobs that differ.  Exit 0 when the decision streams are "
            "identical, 1 when they diverge, 2 on unreadable inputs."
        ),
    )
    diff_parser.add_argument(
        "left", metavar="A.jsonl", help="baseline ledger file"
    )
    diff_parser.add_argument(
        "right", metavar="B.jsonl", help="candidate ledger file"
    )
    diff_parser.add_argument(
        "--context",
        type=int,
        default=3,
        help="matching records shown around the first divergence "
        "(default %(default)s)",
    )
    diff_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the structured diff document instead of text",
    )
    explain_parser = subparsers.add_parser(
        "explain",
        help="reconstruct one pod's lifecycle from a decision ledger",
        description=(
            "Replay one pod's story out of a repro.ledger/v1 file: "
            "when it was submitted, how many passes deferred it and "
            "why (EPC vs memory vs CPU), where it was placed, and any "
            "requeues, evictions, preemptions, migrations (in "
            "ledgers written before 16.0.0) or cell spillovers (in "
            "ledgers written by 2.x) along the way.  "
            "Exit 2 when the ledger is unreadable or the pod never "
            "appears in it."
        ),
    )
    explain_parser.add_argument(
        "--ledger",
        metavar="PATH",
        required=True,
        help="the repro.ledger/v1 JSONL file to read",
    )
    explain_parser.add_argument(
        "--pod",
        metavar="NAME",
        required=True,
        help="the pod name to explain",
    )
    explain_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the structured lifecycle report instead of text",
    )
    check_parser = subparsers.add_parser(
        "check",
        help="run the determinism & invariant static analysis",
    )
    check_parser.add_argument(
        "--root",
        metavar="PATH",
        default=None,
        help="source tree to analyse (default: the installed repro "
        "package)",
    )
    check_parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (json follows schema repro.check/v1)",
    )
    return parser


def _coerce(text: str) -> object:
    """Grid value literal: bool, int, float, else string."""
    stripped = text.strip()
    if stripped.lower() in ("true", "false"):
        return stripped.lower() == "true"
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        return stripped


def _parse_grid(
    specs: List[str], parser: argparse.ArgumentParser
) -> Dict[str, List[object]]:
    """``FIELD=V1,V2`` axes -> the Sweep grid mapping."""
    grid: Dict[str, List[object]] = {}
    for spec in specs:
        field, separator, raw_values = spec.partition("=")
        field = field.strip().replace("-", "_")
        values = [
            _coerce(value)
            for value in raw_values.split(",")
            if value.strip()
        ]
        if not separator or not field or not values:
            parser.error(
                f"--grid expects FIELD=V1,V2,... got {spec!r}"
            )
        if field == "epc_mib":
            field = "epc_total_bytes"
            if not all(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                for value in values
            ):
                parser.error(
                    f"--grid epc_mib values must be numbers, "
                    f"got {spec!r}"
                )
            values = [int(mib(value)) for value in values]
        if field in grid:
            parser.error(
                f"--grid axis {field!r} given twice; list every "
                f"value in one FIELD=V1,V2,... spec"
            )
        grid[field] = values
    return grid


def _trace_spec(args: argparse.Namespace) -> Optional[str]:
    """The ``trace=`` spec the shared flags describe, if any.

    ``--trace-seed``/``--jobs`` are shorthands that fold into a
    ``borg-synth`` spec; combined with an explicit ``--trace`` they
    would contradict it and die as a usage error.
    """
    shorthands = {}
    if args.trace_seed is not None:
        shorthands["seed"] = args.trace_seed
    if args.jobs is not None:
        # build_trace scales the over-allocator share with the count.
        shorthands["jobs"] = args.jobs
    if args.trace is not None:
        if shorthands:
            flags = "/".join(
                "--trace-seed" if key == "seed" else "--jobs"
                for key in sorted(shorthands)
            )
            raise SimulationError(
                f"--trace conflicts with {flags}; fold the value "
                f"into the spec (e.g. --trace borg-synth:seed=7)"
            )
        return args.trace
    if shorthands:
        return make_trace_spec("borg-synth", shorthands.items())
    return None


def _base_scenario(args: argparse.Namespace) -> Scenario:
    """The scenario described by the shared ``run``/``sweep`` flags."""
    kwargs: Dict[str, object] = dict(
        scheduler=args.scheduler,
        workload=args.workload,
        sgx_fraction=args.sgx_fraction,
        seed=args.seed,
        preemption_policy=args.preemption_policy,
        preemption_priority_threshold=args.priority_threshold,
    )
    trace = _trace_spec(args)
    if trace is not None:
        kwargs["trace"] = trace
    if args.epc_mib is not None:
        kwargs["epc_total_bytes"] = int(mib(args.epc_mib))
    if args.cluster_workers is not None:
        kwargs["standard_workers"] = args.cluster_workers
        kwargs["sgx_workers"] = args.cluster_workers
    return Scenario(**kwargs)


def _cmd_run(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    try:
        scenario = _base_scenario(args)
    except (
        SimulationError, RegistryError, TraceError, TypeError, ValueError
    ) as exc:
        parser.error(str(exc))
    try:
        result = scenario.run()
    except TraceError as exc:
        # File-backed specs resolve lazily at run time; a missing or
        # corrupt trace file is user input, not an internal failure.
        parser.error(str(exc))
    print(result.to_json() if args.json else result.to_table())
    return 0


def _cmd_record(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    try:
        scenario = _base_scenario(args).with_(
            observe=ObserveConfig(
                ledger_path=args.ledger,
                trace_path=args.trace_out,
                metrics_path=args.metrics_out,
            )
        )
    except (
        SimulationError, RegistryError, TraceError, TypeError, ValueError
    ) as exc:
        parser.error(str(exc))
    try:
        result = scenario.run()
    except TraceError as exc:
        parser.error(str(exc))
    except OSError as exc:
        # An unwritable --ledger/--trace-out/--metrics-out path is
        # user input, same class of mistake as a bad trace path.
        parser.error(str(exc))
    if args.json:
        document = json.loads(result.to_json())
        document["ledger"] = result.ledger_path
        document["trace"] = result.trace_path
        document["metrics"] = result.metrics_path
        print(json.dumps(document, indent=2))
        return 0
    print(result.to_table())
    print()
    print(f"ledger written to {result.ledger_path}")
    if result.trace_path is not None:
        print(f"trace written to {result.trace_path}")
    if result.metrics_path is not None:
        print(f"metrics written to {result.metrics_path}")
    return 0


def _cmd_diff(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from .obs import diff_ledgers, format_diff, load_ledger

    try:
        if args.context < 0:
            raise SimulationError(
                f"--context must be >= 0: {args.context}"
            )
        left = load_ledger(args.left)
        right = load_ledger(args.right)
    except SimulationError as exc:
        parser.error(str(exc))
    diff = diff_ledgers(left, right, context=args.context)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(format_diff(diff))
    return 0 if diff.identical else 1


def _cmd_explain(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from .obs import explain_pod, format_explain, load_ledger

    try:
        ledger = load_ledger(args.ledger)
        report = explain_pod(ledger, args.pod)
    except SimulationError as exc:
        parser.error(str(exc))
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_explain(report))
    return 0


def _cmd_profile(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    try:
        scenario = _base_scenario(args)
        if args.top < 1:
            raise SimulationError(
                f"--top must be a positive integer: {args.top}"
            )
        if args.sample_interval < 0:
            raise SimulationError(
                f"--sample-interval must be >= 0: {args.sample_interval}"
            )
    except (
        SimulationError, RegistryError, TraceError, TypeError, ValueError
    ) as exc:
        parser.error(str(exc))
    try:
        result, report = profile_scenario(
            scenario, top=args.top, sample_interval=args.sample_interval
        )
    except TraceError as exc:
        parser.error(str(exc))
    if args.collapsed_out is not None:
        report.write_collapsed(args.collapsed_out)
    if args.json:
        document = report.to_dict()
        document["result"] = result.to_row()
        print(json.dumps(document, indent=2))
        return 0
    print(result.to_table())
    print()
    print(
        f"profiled wall time {report.wall_seconds:.3f}s "
        f"({report.total_calls} calls, {report.sample_count} stack "
        f"samples)"
    )
    print()
    print(report.top_table())
    if args.collapsed_out is not None:
        print()
        print(f"collapsed stacks written to {args.collapsed_out}")
    return 0


def _cmd_sweep(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    grid = _parse_grid(args.grid, parser)
    try:
        # Construction covers all usage validation (field names,
        # value ranges, worker count); execution errors past this
        # point are real failures, not exit-2 usage errors.
        sweep = Sweep(_base_scenario(args), grid=grid, name="cli")
        if args.workers < 1:
            raise SimulationError(
                f"workers must be a positive integer: {args.workers}"
            )
    # TypeError/ValueError cover grid values that a structured field
    # rejects before validation proper (e.g. workload_options=5).
    except (
        SimulationError, RegistryError, TraceError, TypeError, ValueError
    ) as exc:
        parser.error(str(exc))
    try:
        outcome = sweep.run(workers=args.workers)
    except TraceError as exc:
        parser.error(str(exc))
    print(outcome.to_json() if args.json else outcome.to_table())
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    """The trace-adapter catalogue, one row per registered name."""
    entries = trace_catalogue()
    if args.json:
        print(
            json.dumps(
                [entry._asdict() for entry in entries], indent=2
            )
        )
        return 0
    width = max(len(entry.name) for entry in entries)
    for entry in entries:
        needs = " (needs path=...)" if entry.needs_path else ""
        print(f"{entry.name:{width}s}  {entry.summary}{needs}")
        print(f"{'':{width}s}  e.g. --trace {entry.spec_example}")
    return 0


def _cmd_check(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    # Imported here: the analysis machinery is pure stdlib, but no
    # other command needs it in its import graph.
    from .analysis import run_checks

    root = (
        Path(args.root) if args.root is not None else Path(__file__).parent
    )
    try:
        report = run_checks(root)
    except SimulationError as exc:
        parser.error(str(exc))
    print(
        report.to_json() if args.format == "json" else report.to_table()
    )
    return report.exit_code()


def _run_one(name: str, seeds: Tuple[int, int]) -> None:
    description, run, formatter = _FIGURES[name]
    print(f"== {name}: {description} ==")
    print(formatter(run(seeds)))
    print()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(name) for name in _FIGURES)
        for name in sorted(_FIGURES):
            print(f"{name:{width}s}  {_FIGURES[name][0]}")
        print(f"{'run':{width}s}  one scenario from flags (repro.api)")
        print(f"{'sweep':{width}s}  a parallel grid of scenarios")
        print(
            f"{'profile':{width}s}  profile one scenario "
            f"(top frames + collapsed stacks)"
        )
        print(
            f"{'check':{width}s}  determinism & invariant static "
            f"analysis of the source tree"
        )
        print(
            f"{'record':{width}s}  one scenario with the decision "
            f"ledger (and span/metrics exports) on"
        )
        print(
            f"{'diff':{width}s}  compare two decision ledgers, "
            f"pinpoint the first divergence"
        )
        print(
            f"{'explain':{width}s}  reconstruct one pod's lifecycle "
            f"from a decision ledger"
        )
        print(
            f"{'traces':{width}s}  the registered trace adapters "
            f"(--trace catalogue)"
        )
        return 0
    if args.command == "traces":
        return _cmd_traces(args)
    if args.command == "all":
        seeds = (args.trace_seed, args.run_seed)
        for name in sorted(_FIGURES):
            _run_one(name, seeds)
        return 0
    if args.command == "run":
        return _cmd_run(args, parser)
    if args.command == "sweep":
        return _cmd_sweep(args, parser)
    if args.command == "profile":
        return _cmd_profile(args, parser)
    if args.command == "check":
        return _cmd_check(args, parser)
    if args.command == "record":
        return _cmd_record(args, parser)
    if args.command == "diff":
        return _cmd_diff(args, parser)
    if args.command == "explain":
        return _cmd_explain(args, parser)
    _run_one(args.command, (args.trace_seed, args.run_seed))
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
