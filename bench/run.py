"""End-to-end replay benchmark: host time per replay, measured from outside.

Run from the repository root::

    python3 bench/run.py                          # every workload, seed 1
    python3 bench/run.py --workload epc-contended --seed 7 --seconds 20
    python3 bench/run.py --trace 0 --json out.json

Every timed run is one workload execution in a fresh child Python
process; the parent runs one child at a time (a closed loop with a
single caller: a replay is a batch job with no arrival schedule).  The
child's timer covers only the workload's ``Scenario.run()`` calls, after
imports and a ``gc.collect()``.  Children are launched until at least
``--repeats`` have run and ``--seconds`` have passed, and end-to-end
metrics are the median over the untraced children.  With ``--trace 1``
every untraced child is followed by a traced one, whose class-level
wrappers time each layer; per-layer metrics are medians over the traced
children and never mix into the end-to-end numbers.  Host times are
scaled to a reference machine speed, probed with a fixed calibration
loop around and between the workload's scenarios (see
``CALIBRATION_REFERENCE_S``).

Every run checks its results: each scenario conserves its pods, every
child of a workload produces the same ``RunResult.signature()`` digest,
and ``paper-figures`` at seed 1 must print exactly the committed
Figs. 7-11 tables.  The last line of standard output is one JSON object
with ``correct``, ``attempted`` and ``failed`` (pods) and ``metrics``;
the exit status is nonzero when any check fails.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import heapq
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(
        f"bench: no repro package under {SRC}; run from a full checkout"
    )
sys.path.insert(0, str(SRC))

from repro.api import Scenario  # noqa: E402
from repro.constants import DEFAULT_RUN_SEED  # noqa: E402
from repro.experiments.common import default_trace  # noqa: E402
from repro.experiments.fig10_turnaround import (  # noqa: E402
    format_fig10,
    run_fig10,
)
from repro.experiments.fig11_limits import (  # noqa: E402
    format_fig11,
    run_fig11,
)
from repro.experiments.fig7_epc_sizes import (  # noqa: E402
    format_fig7,
    run_fig7,
)
from repro.experiments.fig8_waiting_cdf import (  # noqa: E402
    format_fig8,
    run_fig8,
)
from repro.experiments.fig9_strategies import (  # noqa: E402
    format_fig9,
    run_fig9,
)
from repro.monitoring.aggregate import WindowedAggregateCache  # noqa: E402
from repro.monitoring.heapster import Heapster  # noqa: E402
from repro.monitoring.probe import SgxMetricsProbe  # noqa: E402
from repro.monitoring.tsdb import TimeSeriesDatabase  # noqa: E402
from repro.orchestrator.api import PodPhase  # noqa: E402
from repro.orchestrator.controller import Orchestrator  # noqa: E402
from repro.orchestrator.kubelet import Kubelet  # noqa: E402
from repro.scheduler.base import ClusterStateService, Scheduler  # noqa: E402
from repro.simulation.engine import SimulationEngine  # noqa: E402
from repro.trace.adapters import resolve_trace  # noqa: E402
from repro.trace.borg import BorgTraceGenerator  # noqa: E402
from repro.trace.loader import dump_borg_csv  # noqa: E402
from repro.trace.stats import percentile  # noqa: E402
from repro.units import mib  # noqa: E402

#: sha256 of the Figs. 7-11 tables at the paper's seeds (``--seed 1``).
FIGURES_DIGEST_FILE = BENCH_DIR / "paper_figures.sha256"

#: One workload's measurement ends within this many seconds: no run
#: starts that would overrun it if it took as long as the longest run
#: so far, and a child still running at the deadline is killed.
DEADLINE_S = 170.0

#: What :func:`calibration_round` takes on an otherwise idle 2-core Xeon
#: VM, the machine the README's baselines come from.  Neighbouring
#: load there slows the whole CPU by up to 1.9x, for up to tens of
#: seconds at a time, and the calibration loop slows with it; every
#: host time is divided by (calibration / this) to read as seconds at
#: the reference speed.  Only the ratio between two runs matters, and
#: the correction is approximate (bench/README.md gives its accuracy).
CALIBRATION_REFERENCE_S = 0.029

# -- metrics ------------------------------------------------------------------

#: name -> unit of the end-to-end metrics (untraced children; medians).
END_TO_END = {
    "pods_per_s": "pods/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: name -> unit of the per-layer metrics (traced children; medians).
PER_LAYER = {
    "trace.build_s": "s",
    "trace.jobs": "count",
    "setup.other_s": "s",
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.us_per_event": "us",
    "progress.reschedule_calls": "count",
    "progress.reschedule_s": "s",
    "monitoring.collect_s": "s",
    "monitoring.ticks": "count",
    "monitoring.points": "count",
    "monitoring.heapster_s": "s",
    "monitoring.probe_s": "s",
    "monitoring.tsdb_write_s": "s",
    "monitoring.aggregate_s": "s",
    "monitoring.us_per_point": "us",
    "views.build_s": "s",
    "views.unchanged_s": "s",
    "scheduler.schedule_s": "s",
    "scheduler.passes": "count",
    "scheduler.pods_considered": "count",
    "scheduler.placed": "count",
    "scheduler.place_ratio": "ratio",
    "scheduler.us_per_pod": "us",
    "orchestrator.passes": "count",
    "orchestrator.pass_s": "s",
    "orchestrator.lifecycle_s": "s",
    "kubelet.admits": "count",
    "kubelet.admit_s": "s",
    "kubelet.admit_fail_ratio": "ratio",
    "bench.trace_overhead_pct": "%",
}

# -- layer timing -------------------------------------------------------------

#: Wrapped in every run: they delimit set-up and collect each result.
ALWAYS_WRAPPED = (
    (Scenario, "run", "scenario"),
    (SimulationEngine, "run", "engine"),
    (Orchestrator, "submit", "orchestrator.lifecycle"),
)

#: Wrapped in traced runs only; layers are named after repro modules.
TRACED_ONLY = (
    (Scenario, "build_trace", "trace.build"),
    (SimulationEngine, "reschedule_in", "progress.reschedule"),
    (Orchestrator, "collect_metrics", "monitoring.collect"),
    (Heapster, "collect", "monitoring.heapster"),
    (SgxMetricsProbe, "collect", "monitoring.probe"),
    (TimeSeriesDatabase, "write_tagged", "monitoring.tsdb_write"),
    (WindowedAggregateCache, "on_write", "monitoring.aggregate"),
    (ClusterStateService, "build_views", "views.build"),
    (ClusterStateService, "state_unchanged", "views.unchanged"),
    (Scheduler, "schedule", "scheduler.schedule"),
    (Orchestrator, "scheduling_pass", "orchestrator.pass"),
    (Orchestrator, "start_pod", "orchestrator.lifecycle"),
    (Orchestrator, "complete_pod", "orchestrator.lifecycle"),
    (Kubelet, "admit", "kubelet.admit"),
)


class _Probe:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def calibration_round() -> float:
    """Seconds for a fixed interpreter-bound loop shaped like a replay:
    small slotted objects, dict updates and a bounded heap."""
    start = time.perf_counter()
    table: Dict[int, float] = {}
    heap: list = []
    for i in range(40_000):
        probe = _Probe(i & 1023, i * 0.5)
        table[probe.key] = table.get(probe.key, 0.0) + probe.value
        heapq.heappush(heap, (probe.value, i))
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


def peak_rss_mib() -> float:
    """This process's peak resident set size, MiB.

    ``ru_maxrss`` survives ``exec``, so a child started by a large
    parent would report the parent's peak; the kernel's per-image
    high-water mark (``VmHWM``) does not, and is preferred where it
    exists.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LayerRecorder:
    """Times calls into each layer by wrapping methods at class level.

    Hot loops bind methods such as ``db.write_tagged`` once per call
    site, so the wrappers must be in place before any object is built;
    :meth:`installed` puts them on the classes and always restores the
    original attributes.  Each wrapper keeps a stack of child
    durations, so a layer's self time is its total minus the time spent
    in wrapped callees.  Besides layer times the recorder keeps one
    summary per ``Scenario.run()`` call, including its set-up time
    (``Scenario.run`` entry to ``SimulationEngine.run`` entry).
    """

    def __init__(self, traced: bool):
        self.traced = traced
        #: layer -> [calls, total seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        self.scenarios: List[dict] = []
        #: Seconds of each calibration round taken between scenarios.
        self.calibration: List[float] = []
        self._stack = [0.0]
        self._engine_start = 0.0
        self._after = {
            (Scenario, "run"): self._after_scenario,
            (SimulationEngine, "run"): self._after_engine,
            (Orchestrator, "submit"): self._after_submit,
            (Scenario, "build_trace"): self._after_trace,
            (Orchestrator, "collect_metrics"): self._after_collect,
            (Scheduler, "schedule"): self._after_schedule,
            (Kubelet, "admit"): self._after_admit,
        }

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerRecorder"]:
        """Wrap the methods for one workload; always restore them."""
        methods = ALWAYS_WRAPPED + (TRACED_ONLY if self.traced else ())
        saved = []
        try:
            for cls, name, layer in methods:
                original = cls.__dict__[name]
                saved.append((cls, name, original))
                after = self._after.get((cls, name))
                setattr(cls, name, self.wrap(original, layer, after))
            yield self
        finally:
            for cls, name, original in reversed(saved):
                setattr(cls, name, original)

    def wrap(
        self, original: Callable, layer: str, after: Optional[Callable]
    ) -> Callable:
        """*original* timed as a call into *layer*, then *after* run."""
        stack = self._stack
        stat = self.layers.setdefault(layer, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                children = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
            if after is not None:
                after(args, result, start, end)
            return result

        return timed

    # -- per-layer hooks (run after the timed call returns) ----------------

    def _after_engine(self, args, result, start, end) -> None:
        self._engine_start = start
        self.counts["engine.events"] += args[0].fired_events

    def _after_submit(self, args, result, start, end) -> None:
        self.counts["submitted"] += 1

    def _after_scenario(self, args, result, start, end) -> None:
        self.scenarios.append(
            summarise_result(
                result,
                wall_s=end - start,
                setup_s=self._engine_start - start,
                submitted=self.counts["submitted"],
            )
        )
        self.counts["submitted"] = 0
        # Long workloads are many scenarios: probing between them tracks
        # the machine's speed through the run, outside any timed span.
        self.calibration.append(calibration_round())

    def _after_trace(self, args, result, start, end) -> None:
        self.counts["trace.jobs"] += len(result)

    def _after_collect(self, args, result, start, end) -> None:
        self.counts["monitoring.points"] += result

    def _after_schedule(self, args, result, start, end) -> None:
        self.counts["scheduler.pods_considered"] += len(args[1])
        self.counts["scheduler.placed"] += len(result.assignments)

    def _after_admit(self, args, result, start, end) -> None:
        self.counts["kubelet.admit_failures"] += not result.success

    def layer_metrics(self, wall_s: float, setup_s: float) -> dict:
        """The per-layer metrics of this (traced) run, by name."""
        def calls(layer: str) -> float:
            return self.layers.get(layer, [0, 0.0, 0.0])[0]

        def total(layer: str) -> float:
            return self.layers.get(layer, [0, 0.0, 0.0])[1]

        def own(layer: str) -> float:
            return self.layers.get(layer, [0, 0.0, 0.0])[2]

        def ratio(part: float, whole: float, scale: float = 1.0) -> float:
            return part / whole * scale if whole else 0.0

        counts = self.counts
        return {
            "trace.build_s": total("trace.build"),
            "trace.jobs": counts["trace.jobs"],
            "setup.other_s": setup_s - total("trace.build"),
            "engine.events": counts["engine.events"],
            "engine.self_s": own("engine"),
            "engine.us_per_event": ratio(
                own("engine"), counts["engine.events"], 1e6
            ),
            "progress.reschedule_calls": calls("progress.reschedule"),
            "progress.reschedule_s": total("progress.reschedule"),
            "monitoring.collect_s": total("monitoring.collect"),
            "monitoring.ticks": calls("monitoring.collect"),
            "monitoring.points": counts["monitoring.points"],
            "monitoring.heapster_s": total("monitoring.heapster"),
            "monitoring.probe_s": total("monitoring.probe"),
            "monitoring.tsdb_write_s": total("monitoring.tsdb_write"),
            "monitoring.aggregate_s": total("monitoring.aggregate"),
            "monitoring.us_per_point": ratio(
                total("monitoring.collect"),
                counts["monitoring.points"],
                1e6,
            ),
            "views.build_s": total("views.build"),
            "views.unchanged_s": total("views.unchanged"),
            "scheduler.schedule_s": total("scheduler.schedule"),
            "scheduler.passes": calls("scheduler.schedule"),
            "scheduler.pods_considered": (
                counts["scheduler.pods_considered"]
            ),
            "scheduler.placed": counts["scheduler.placed"],
            "scheduler.place_ratio": ratio(
                counts["scheduler.placed"],
                counts["scheduler.pods_considered"],
            ),
            "scheduler.us_per_pod": ratio(
                total("scheduler.schedule"),
                counts["scheduler.pods_considered"],
                1e6,
            ),
            "orchestrator.passes": calls("orchestrator.pass"),
            "orchestrator.pass_s": own("orchestrator.pass"),
            "orchestrator.lifecycle_s": total("orchestrator.lifecycle"),
            "kubelet.admits": calls("kubelet.admit"),
            "kubelet.admit_s": total("kubelet.admit"),
            "kubelet.admit_fail_ratio": ratio(
                counts["kubelet.admit_failures"], calls("kubelet.admit")
            ),
        }


def summarise_result(
    result, wall_s: float, setup_s: float, submitted: int
) -> dict:
    """One scenario's timings, simulated results and conservation check.

    *submitted* counts ``Orchestrator.submit`` calls during the
    scenario, independently of the pods the result reports, so a pod
    lost between submission and the result is caught.
    """
    pods = result.metrics.pods
    phases = Counter(pod.phase for pod in pods)
    succeeded = phases[PodPhase.SUCCEEDED]
    failed = phases[PodPhase.FAILED]
    problems = []
    if not submitted == len(pods) == succeeded + failed:
        problems.append(
            f"{result.scenario.label}: {submitted} pods submitted, "
            f"{len(pods)} reported, {succeeded} succeeded + "
            f"{failed} failed"
        )
    signature = repr(result.signature()).encode()
    return {
        "pods": submitted,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "sim_failed": failed,
        "sim_makespan_s": result.metrics.makespan_seconds,
        "waits": result.metrics.waiting_times(),
        "signature": hashlib.sha256(signature).hexdigest(),
        "problems": problems,
    }


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``replay(seed, quick, input)`` runs it."""

    name: str
    replay: Callable[[int, bool, Optional[Path]], Optional[str]]
    #: Writes the input file for ``(seed, quick)`` before any timing.
    prepare: Optional[Callable[[int, bool, Path], None]] = None


def replay_borg_steady(seed: int, quick: bool, _input) -> None:
    """The paper's Borg replay scaled up until the queue stays short:
    monitoring and progress bookkeeping dominate, scheduling does not."""
    jobs, workers = (400, 4) if quick else (3000, 24)
    Scenario(
        trace=(
            f"borg-synth:seed={seed},jobs={jobs},"
            f"overallocators={jobs // 10}"
        ),
        sgx_fraction=0.5,
        standard_workers=workers,
        sgx_workers=workers,
        seed=seed,
    ).run()


def replay_epc_contended(seed: int, quick: bool, _input) -> None:
    """Fig. 7's backlog regime, a long SGX queue against one EPC node:
    the scheduling pass dominates, monitoring does not.

    The trace stays the paper's (seed 42) and the benchmark seed draws
    which jobs run in enclaves: a backlog's cost follows the trace's
    total EPC demand, which varies by ~5% between trace seeds and would
    swamp the bound, while designation alone varies it by ~2%.
    """
    jobs = 60 if quick else 500
    for epc_mib in (64, 128):
        Scenario(
            trace=f"borg-synth:seed=42,jobs={jobs},window=5m",
            sgx_fraction=0.9,
            epc_total_bytes=mib(epc_mib),
            standard_workers=1,
            sgx_workers=1,
            seed=seed,
        ).run()


def prepare_csv(seed: int, quick: bool, path: Path) -> None:
    """A one-day Borg-format CSV drawn from *seed*."""
    trace = BorgTraceGenerator(seed=seed).scaled_trace(
        n_jobs=20_000 if quick else 400_000, window_seconds=86_400.0
    )
    dump_borg_csv(trace, path)


def replay_csv_ingest(seed: int, quick: bool, path: Path) -> None:
    """The real-trace-file path: the CSV streamed, windowed to one hour
    and sampled, so trace ingest (set-up) dominates."""
    workers = 2 if quick else 12
    Scenario(
        trace=f"borg-csv:path={path},window=1h,sample=0.1",
        sgx_fraction=0.5,
        standard_workers=workers,
        sgx_workers=workers,
        seed=seed,
    ).run()


def replay_paper_figures(seed: int, quick: bool, _input) -> str:
    """What a reproducer runs: Figs. 7-11 (19 replays) on the paper's
    trace, with *seed* as the run seed; returns the printed tables."""
    trace = (
        resolve_trace("borg-synth:seed=42,jobs=40")
        if quick
        else default_trace()
    )
    return "\n".join(
        (
            format_fig7(run_fig7(trace=trace, seed=seed)),
            format_fig8(run_fig8(trace=trace, seed=seed)),
            format_fig9(run_fig9(trace=trace, seed=seed)),
            format_fig10(run_fig10(trace=trace, seed=seed)),
            format_fig11(run_fig11(trace=trace, seed=seed)),
        )
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("borg-steady", replay_borg_steady),
        Workload("epc-contended", replay_epc_contended),
        Workload("csv-ingest", replay_csv_ingest, prepare_csv),
        Workload("paper-figures", replay_paper_figures),
    )
}


# -- one child: one workload execution ----------------------------------------


def run_child(
    workload: Workload,
    seed: int,
    traced: bool,
    quick: bool,
    input_path: Optional[Path],
) -> dict:
    """Execute *workload* once in this process and check its results."""
    recorder = LayerRecorder(traced)
    calibration_round()  # warm-up
    rounds = [calibration_round() for _ in range(3)]
    gc.collect()
    with recorder.installed():
        tables = workload.replay(seed, quick, input_path)
    rounds += recorder.calibration
    rounds += [calibration_round() for _ in range(3)]
    scenarios = recorder.scenarios
    problems = [p for s in scenarios for p in s["problems"]]
    if not scenarios:
        problems.append("the workload ran no scenario")
    if tables is not None and seed == DEFAULT_RUN_SEED and not quick:
        digest = hashlib.sha256(tables.encode()).hexdigest()
        expected = FIGURES_DIGEST_FILE.read_text().split()[0]
        if digest != expected:
            problems.append(
                f"Figs. 7-11 tables changed: sha256 {digest}, "
                f"committed {expected}"
            )
    waits = [w for s in scenarios for w in s["waits"]]
    pods = sum(s["pods"] for s in scenarios)
    wall_s = sum(s["wall_s"] for s in scenarios)
    setup_s = sum(s["setup_s"] for s in scenarios)
    child = {
        "traced": traced,
        "pods": pods,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "slowdown": statistics.median(rounds) / CALIBRATION_REFERENCE_S,
        "calibration_rounds": rounds,
        "peak_rss_mib": peak_rss_mib(),
        "scenarios": len(scenarios),
        "signature": hashlib.sha256(
            "".join(s["signature"] for s in scenarios).encode()
        ).hexdigest(),
        "sim_makespan_s": sum(s["sim_makespan_s"] for s in scenarios),
        "sim_wait_p50_s": percentile(waits, 50) if waits else 0.0,
        "sim_wait_p99_s": percentile(waits, 99) if waits else 0.0,
        "sim_failed_frac": (
            sum(s["sim_failed"] for s in scenarios) / pods if pods else 0.0
        ),
        "problems": problems,
    }
    if traced:
        child["layers"] = recorder.layers
        child["layer_metrics"] = recorder.layer_metrics(wall_s, setup_s)
    return child


def spawn_child(
    workload: Workload,
    seed: int,
    traced: bool,
    quick: bool,
    input_path: Optional[Path],
    deadline: float,
) -> dict:
    """:func:`run_child` in a fresh interpreter, killed at *deadline*
    (a ``time.perf_counter()`` value); failures become dicts."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", workload.name,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
    ]
    if quick:
        command.append("--quick")
    if input_path is not None:
        command += ["--input", str(input_path)]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child killed after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {
            "error": f"child exited {done.returncode}: " + " | ".join(tail)
        }
    return json.loads(lines[-1])


# -- the parent: repeat, check, aggregate -------------------------------------


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3); a single value repeats itself."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    repeats: int,
    traced: bool,
    quick: bool,
) -> dict:
    """Run children for one workload and fold them into one result."""
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    untraced: List[dict] = []
    traced_runs: List[dict] = []
    longest = 0.0
    with tempfile.TemporaryDirectory(
        prefix=".bench-work-", dir=ROOT
    ) as work:
        input_path = None
        if workload.prepare is not None:
            input_path = Path(work).relative_to(ROOT) / "trace.csv"
            workload.prepare(seed, quick, ROOT / input_path)
        launch = functools.partial(
            spawn_child, workload, seed, quick=quick,
            input_path=input_path, deadline=deadline,
        )
        while True:
            now = time.perf_counter()
            if len(untraced) >= repeats and now - started >= seconds:
                break
            if untraced and now + longest > deadline:
                break
            untraced.append(launch(traced=False))
            if traced:
                traced_runs.append(launch(traced=True))
            longest = max(longest, time.perf_counter() - now)
    return fold(workload, seed, untraced, traced_runs)


def fold(
    workload: Workload,
    seed: int,
    untraced: List[dict],
    traced_runs: List[dict],
) -> dict:
    """Check the children against each other and take the medians."""
    children = untraced + traced_runs
    good = [c for c in children if "error" not in c]
    problems = sorted(
        {c["error"] for c in children if "error" in c}
        | {p for c in good for p in c["problems"]}
    )
    signatures = sorted({c["signature"] for c in good})
    if len(signatures) > 1:
        problems.append(
            f"runs disagree: {len(signatures)} different signatures"
        )
    pods_per_run = max((c["pods"] for c in good), default=1) or 1
    attempted = sum(c.get("pods", pods_per_run) for c in children)
    if len(signatures) > 1:
        failed = attempted
    else:
        failed = sum(
            c.get("pods", pods_per_run)
            for c in children
            if "error" in c or c["problems"]
        )
    # Host times are divided by each child's measured slowdown, so they
    # read as seconds at the reference speed (CALIBRATION_REFERENCE_S).
    timed = [c for c in untraced if "error" not in c]
    end_to_end = {}
    unscaled = {}
    if timed:
        samples = {
            "pods_per_s": [
                c["pods"] * c["slowdown"] / c["wall_s"] for c in timed
            ],
            "setup_s": [c["setup_s"] / c["slowdown"] for c in timed],
            "peak_rss_mib": [c["peak_rss_mib"] for c in timed],
        }
        for name, unit in END_TO_END.items():
            q1, median, q3 = quartiles(samples[name])
            end_to_end[name] = {
                "value": median, "unit": unit, "q1": q1, "q3": q3,
                "n": len(samples[name]),
            }
        unscaled = {
            "pods_per_s": statistics.median(
                c["pods"] / c["wall_s"] for c in timed
            ),
            "setup_s": statistics.median(c["setup_s"] for c in timed),
            "slowdown": statistics.median(c["slowdown"] for c in timed),
        }
    per_layer = {}
    traced_good = [c for c in traced_runs if "error" not in c]
    if traced_good:
        for name, unit in PER_LAYER.items():
            if name == "bench.trace_overhead_pct":
                continue
            values = [
                c["layer_metrics"][name]
                / (c["slowdown"] if unit in ("s", "us") else 1.0)
                for c in traced_good
            ]
            per_layer[name] = {
                "value": statistics.median(values), "unit": unit,
            }
        overhead = 0.0
        if timed:
            overhead = 100.0 * (
                statistics.median(
                    c["wall_s"] / c["slowdown"] for c in traced_good
                )
                / statistics.median(c["wall_s"] / c["slowdown"] for c in timed)
                - 1.0
            )
        per_layer["bench.trace_overhead_pct"] = {
            "value": overhead, "unit": "%",
        }
    reference = good[0] if good else {}
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "signature": signatures[0] if len(signatures) == 1 else None,
        "simulated": {
            key: reference[key]
            for key in (
                "scenarios", "pods", "sim_makespan_s", "sim_wait_p50_s",
                "sim_wait_p99_s", "sim_failed_frac",
            )
            if key in reference
        },
        "end_to_end": end_to_end,
        "unscaled": unscaled,
        "per_layer": per_layer,
        "layer_table": layer_table(traced_good),
        "children": children,
    }


def layer_table(traced_runs: List[dict]) -> List[dict]:
    """Rows of the traced child with the median wall time."""
    if not traced_runs:
        return []
    ordered = sorted(traced_runs, key=lambda c: c["wall_s"])
    child = ordered[(len(ordered) - 1) // 2]
    wall = child["wall_s"]
    rows = [
        {
            "layer": layer,
            "calls": int(calls),
            "total_s": total,
            "self_s": own,
            "pct_wall": 100.0 * own / wall if wall else 0.0,
        }
        for layer, (calls, total, own) in child["layers"].items()
    ]
    return sorted(rows, key=lambda row: -row["self_s"])


# -- output -------------------------------------------------------------------


def report(result: dict, out) -> None:
    """Print one workload's human-readable tables."""
    print(f"== {result['workload']} (seed {result['seed']})", file=out)
    e2e = result["end_to_end"]
    if e2e:
        n = next(iter(e2e.values()))["n"]
        print(
            f"  end-to-end, median of {n} untraced runs "
            "[q1 .. q3]:", file=out,
        )
        for name, metric in e2e.items():
            print(
                f"    {name:<28} {metric['unit']:<7} "
                f"{metric['value']:>12.4f}  "
                f"[{metric['q1']:.4f} .. {metric['q3']:.4f}]",
                file=out,
            )
    if result["unscaled"]:
        print(
            "  unscaled host medians: "
            + ", ".join(
                f"{k}={v:.4f}" for k, v in result["unscaled"].items()
            ),
            file=out,
        )
    sim = result["simulated"]
    if sim:
        print(
            "  simulated (identical on every run): "
            + ", ".join(f"{k}={v:.6g}" for k, v in sim.items()),
            file=out,
        )
    print(f"  signature sha256: {result['signature']}", file=out)
    if result["layer_table"]:
        print(
            f"  {'layer':<24} {'calls':>10} {'total s':>9} "
            f"{'self s':>9} {'% wall':>7}",
            file=out,
        )
        for row in result["layer_table"]:
            print(
                f"  {row['layer']:<24} {row['calls']:>10} "
                f"{row['total_s']:>9.3f} {row['self_s']:>9.3f} "
                f"{row['pct_wall']:>7.1f}",
                file=out,
            )
    if result["per_layer"]:
        print("  per-layer (median of traced runs):", file=out)
        for name, metric in result["per_layer"].items():
            print(
                f"    {name:<28} {metric['unit']:<7} "
                f"{metric['value']:>14.6g}",
                file=out,
            )
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}", file=out)


def summary_line(results: List[dict], traced: bool) -> dict:
    """The final JSON object; names are prefixed when several run."""
    key = "per_layer" if traced else "end_to_end"
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, metric in result[key].items():
            metrics[prefix + name] = {
                "value": metric["value"], "unit": metric["unit"],
            }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end replay benchmark (see bench/README.md)."
    )
    parser.add_argument(
        "--workload", "--workloads", default=",".join(WORKLOADS),
        help="comma-separated workloads (default: all of "
        f"{', '.join(WORKLOADS)})",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_RUN_SEED)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep launching runs until this long has passed",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="minimum untraced runs per workload (default 3)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1: also traced runs; the JSON line holds per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes (smoke test)"
    )
    parser.add_argument("--json", type=Path, help="write all results here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--input", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = [name for name in args.workload.split(",") if name]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown or not names:
        parser.error(
            f"unknown workload(s) {', '.join(unknown) or '(none)'}; "
            f"known: {', '.join(WORKLOADS)}"
        )
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    args.workloads = [WORKLOADS[name] for name in names]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        child = run_child(
            WORKLOADS[args.child], args.seed, bool(args.trace),
            args.quick, args.input,
        )
        print(json.dumps(child))
        return 0
    results = []
    for workload in args.workloads:
        result = measure(
            workload, args.seed, args.seconds, args.repeats,
            bool(args.trace), args.quick,
        )
        report(result, sys.stdout)
        results.append(result)
    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    summary = summary_line(results, bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
