"""Benchmark runner: emits ``BENCH_state_cache.json``,
``BENCH_sched_scale.json``, ``BENCH_api_sweep.json``,
``BENCH_preemption.json``, ``BENCH_traces.json``, ``BENCH_wall.json``
and ``BENCH_obs.json``.

Seven sweeps over the scheduling hot path:

* **state_cache** — the scheduler's per-pass snapshot latency (the two
  Listing-1 sliding-window queries behind
  ``ClusterStateService.build_views``) with the full InfluxQL window
  scan versus the incremental
  :class:`~repro.monitoring.aggregate.WindowedAggregateCache`;
* **sched_scale** — the placement loop *inside* one pass: a pending
  batch scheduled against a large cluster with the per-pod full scan
  versus the incremental node-candidate index
  (``Scheduler(indexed=True)``), with an outcome-identity check, at up
  to 5000 pods over 200 nodes;
* **api_sweep** — a scenario-layer sweep (``repro.api.Sweep``) run
  serially and over a 4-worker process pool, with a per-scenario
  bit-for-bit identity check, emitted in the structured
  ``repro.sweep/1`` JSON shape;
* **preemption** — the priority subsystem's headline: a two-tier
  tenant mix (``priority-mix`` workload) on a contended cluster,
  replayed with ``preemption_policy="none"`` versus the EPC-aware
  ``cheapest-victims`` planner, reporting the high-priority tier's
  p50/mean waiting-time reduction and the eviction counts — plus a
  ``disabled_identical`` flag proving the priority-disabled run is
  bit-for-bit the oracle on the full-scan and the indexed pass;
* **traces** — the trace ecosystem: streaming ``borg-csv`` ingestion
  throughput over a 100k-row file with a peak-memory comparison of a
  windowed load versus the full load (the window must stay O(kept
  rows)), plus EPC-contended replays of two registered synthetic
  shapes (``synth-bursty``, ``synth-heavytail``) under binpack and
  spread with a spec-level determinism check;
* **wall** — whole-replay wall clock at 250–2000 pods for the
  full-scan and the indexed engine, reported as a speedup against the
  hard-coded pre-refactor baselines (:data:`WALL_BASELINES`, measured
  at the seed commit of the hot-path rebuild), with an
  ``engines_identical`` flag comparing the two runs' whole
  signatures;
* **obs** — the observability contract: the periodic wall sweep's
  1000/2000-pod points replayed with the decision ledger off and on
  (``Scenario(observe=ObserveConfig(ledger_path=...))``), reporting
  the wall overhead of a recorded run (must stay marginal — the
  disabled path is allocation-free, the enabled path streams compact
  JSONL), the deterministic ledger event count, and an ``identical``
  flag proving observation never changes the run.

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_bench.py

The JSON lands next to this repo's README so the perf trajectory of the
hot path is tracked from PR to PR.  The pytest wrappers
(``test_ext_state_cache.py``, ``test_ext_sched_scale.py``,
``test_ext_wall.py``, ...) reuse the same builders on tiny
configurations, and ``benchmarks/check_regression.py`` replays the
sweeps against the committed JSON baselines as a regression gate.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Scenario, Sweep, rows_to_json  # noqa: E402
from repro.cluster.resources import ResourceVector  # noqa: E402
from repro.constants import (  # noqa: E402
    EPC_TOTAL_BYTES,
    METRICS_WINDOW_SECONDS,
)
from repro.monitoring.aggregate import WindowedAggregateCache  # noqa: E402
from repro.monitoring.heapster import MEASUREMENT_MEMORY  # noqa: E402
from repro.monitoring.probe import MEASUREMENT_EPC  # noqa: E402
from repro.monitoring.tsdb import TimeSeriesDatabase  # noqa: E402
from repro.orchestrator.api import make_pod_spec  # noqa: E402
from repro.orchestrator.pod import Pod  # noqa: E402
from repro.scheduler.base import (  # noqa: E402
    ClusterStateService,
    NodeView,
)
from repro.trace import resolve_trace  # noqa: E402
from repro.trace.borg import synthetic_scaled_trace  # noqa: E402
from repro.units import gib, mib, pages  # noqa: E402

#: Simulated pass time; all windows are evaluated at this instant.
NOW = 600.0
#: In-window samples per pod per measurement (25 s window, ~6 s apart —
#: a denser probe cadence than the paper's 10 s default, as a scaled
#: deployment would configure).
SAMPLES_PER_POD = 5
#: History points per pod outside the window (pruned by the time bound).
HISTORY_PER_POD = 2
#: Fraction of pods that are SGX jobs with EPC samples.
SGX_FRACTION = 0.5


def build_state(n_pods: int, use_cache: bool):
    """A TSDB populated like a cluster of *n_pods* mid-replay."""
    db = TimeSeriesDatabase(retention_seconds=3600.0)
    cache = (
        WindowedAggregateCache(db, window_seconds=METRICS_WINDOW_SECONDS)
        if use_cache
        else None
    )
    n_nodes = max(4, n_pods // 100)
    for index in range(n_pods):
        tags = {
            "pod_name": f"pod-{index}",
            "nodename": f"node-{index % n_nodes}",
        }
        is_sgx = index < n_pods * SGX_FRACTION
        for h in range(HISTORY_PER_POD):
            t = NOW - 120.0 + 30.0 * h
            db.write(MEASUREMENT_MEMORY, value=1e6 + index, time=t, tags=tags)
        for s in range(SAMPLES_PER_POD):
            t = NOW - 24.0 + 6.0 * s
            db.write(
                MEASUREMENT_MEMORY,
                value=1e6 + index * 10.0 + s,
                time=t,
                tags=tags,
            )
            if is_sgx:
                db.write(
                    MEASUREMENT_EPC,
                    value=100.0 + index + s,
                    time=t,
                    tags=tags,
                )
    service = ClusterStateService(
        [], db, window_seconds=METRICS_WINDOW_SECONDS, cache=cache
    )
    return db, service


def measured_usage(service: ClusterStateService, now: float) -> tuple:
    """Memory and EPC window maxima at *now*, nested by node then pod.

    With a window-max store, each node's maxima are read from the
    store's node states, as a pass reads a node whose inputs moved (so
    this is a pass where every node moved); without one, from the full
    Listing 1 scan.
    """
    store = service.cache
    if store is None:
        return service._measured_usage(now)
    return tuple(
        {
            name: node.maxima()
            for name, node in store.node_states(measurement, now).items()
        }
        for measurement in (MEASUREMENT_MEMORY, MEASUREMENT_EPC)
    )


def time_snapshot(service: ClusterStateService, repeats: int) -> float:
    """Median seconds of one measured-usage snapshot at ``NOW``."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        measured_usage(service, NOW)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def run(sizes=(250, 1000, 2000), repeats=9) -> dict:
    results = []
    for n_pods in sizes:
        _, full_service = build_state(n_pods, use_cache=False)
        _, cached_service = build_state(n_pods, use_cache=True)
        full_s = time_snapshot(full_service, repeats)
        cached_s = time_snapshot(cached_service, repeats)
        results.append(
            {
                "pods": n_pods,
                "series": n_pods + int(n_pods * SGX_FRACTION),
                "full_scan_ms": round(full_s * 1e3, 4),
                "cached_ms": round(cached_s * 1e3, 4),
                "speedup": round(full_s / cached_s, 2),
            }
        )
    return {
        "benchmark": "state_cache",
        "window_seconds": METRICS_WINDOW_SECONDS,
        "samples_per_pod": SAMPLES_PER_POD,
        "sgx_fraction": SGX_FRACTION,
        "results": results,
    }


#: Reconcile interval of the wall and obs sweeps: a production
#: control plane reacts within ~a second, not the paper testbed's
#: relaxed default.
RECONCILE_PERIOD_SECONDS = 1.0


#: Every Nth node in the sched_scale cluster carries SGX.
SCHED_SCALE_SGX_STRIDE = 4


def build_sched_pass(n_pods: int, n_nodes: int, seed: int = 3):
    """One pass's inputs: *n_nodes* views and a *n_pods* pending batch.

    Mirrors a scaled cluster mid-replay: a quarter of the nodes carry
    SGX, every node already runs a random measured load, and the
    pending queue mixes standard pods (memory-bound) with enclave pods
    (EPC-bound).  The batch intentionally oversubscribes the cluster so
    the sweep exercises both the placement path and the
    everything-deferred tail of a saturated pass.
    """
    rng = random.Random(seed)
    epc_pages = pages(EPC_TOTAL_BYTES)
    views = []
    for i in range(n_nodes):
        sgx = i % SCHED_SCALE_SGX_STRIDE == 0
        capacity = ResourceVector(
            cpu_millicores=16000,
            memory_bytes=gib(32) if sgx else gib(64),
            epc_pages=epc_pages if sgx else 0,
        )
        used = ResourceVector(
            cpu_millicores=rng.randrange(0, 4000),
            memory_bytes=rng.randrange(0, gib(8)),
            epc_pages=rng.randrange(0, epc_pages // 4) if sgx else 0,
        )
        views.append(
            NodeView(
                name=f"node-{i:04d}",
                sgx_capable=sgx,
                capacity=capacity,
                used=used,
                committed=used,
            )
        )
    pods = []
    for i in range(n_pods):
        if rng.random() < SGX_FRACTION:
            spec = make_pod_spec(
                f"enclave-{i:05d}",
                duration_seconds=60.0,
                declared_epc_bytes=mib(rng.choice((8, 16, 32, 64))),
            )
        else:
            spec = make_pod_spec(
                f"standard-{i:05d}",
                duration_seconds=60.0,
                declared_memory_bytes=gib(rng.choice((1, 2, 4, 8))),
            )
        pods.append(Pod(spec, submitted_at=float(i), uid=f"{i:08d}"))
    return views, pods


def _clone_views(views):
    return [
        NodeView(
            name=view.name,
            sgx_capable=view.sgx_capable,
            capacity=view.capacity,
            used=view.used,
            committed=view.committed,
        )
        for view in views
    ]


def _outcome_signature(outcome):
    return (
        [(a.pod.name, a.node_name) for a in outcome.assignments],
        [pod.name for pod in outcome.unschedulable],
        [pod.name for pod in outcome.deferred],
    )


def time_sched_pass(scheduler_name, indexed, views, pods, repeats):
    """Median seconds of one full batch pass, plus its outcome."""
    scheduler = Scenario(
        scheduler=scheduler_name, indexed_scheduling=indexed
    ).build_scheduler()
    timings = []
    outcome = None
    for _ in range(repeats):
        pass_views = _clone_views(views)
        start = time.perf_counter()
        outcome = scheduler.schedule(pods, pass_views, now=600.0)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings), outcome


#: (scheduler, pods, nodes, repeats): the headline row is binpack at
#: 2000×200 (the ISSUE's ≥5x target); 5000 pods shows the trend and the
#: spread/kube rows show the index helps every strategy.  Spread stays
#: smaller because the *oracle* is quadratic in nodes per pod.
SCHED_SCALE_POINTS = (
    ("binpack", 2000, 200, 5),
    ("binpack", 5000, 200, 3),
    ("kube-default", 2000, 200, 5),
    ("spread", 600, 60, 3),
)


def run_sched_scale(points=SCHED_SCALE_POINTS) -> dict:
    """Per-pass placement latency: full scan vs candidate index."""
    results = []
    for scheduler_name, n_pods, n_nodes, repeats in points:
        views, pods = build_sched_pass(n_pods, n_nodes)
        full_s, full_outcome = time_sched_pass(
            scheduler_name, False, views, pods, repeats
        )
        indexed_s, indexed_outcome = time_sched_pass(
            scheduler_name, True, views, pods, repeats
        )
        results.append(
            {
                "scheduler": scheduler_name,
                "pods": n_pods,
                "nodes": n_nodes,
                "placed": len(full_outcome.assignments),
                "deferred": len(full_outcome.deferred),
                "full_scan_ms": round(full_s * 1e3, 3),
                "indexed_ms": round(indexed_s * 1e3, 3),
                "speedup": round(full_s / indexed_s, 2),
                "identical": (
                    _outcome_signature(full_outcome)
                    == _outcome_signature(indexed_outcome)
                ),
            }
        )
    return {
        "benchmark": "sched_scale",
        "sgx_fraction": SGX_FRACTION,
        "sgx_node_fraction": round(1 / SCHED_SCALE_SGX_STRIDE, 4),
        "results": results,
    }


#: The api_sweep configuration: a 2x2 scheduler x SGX-share grid over
#: a scaled trace, executed serially and with a 4-worker pool.  The
#: trace is sized so each replay takes ~1-2 s: long enough that the
#: pool amortises its startup, short enough for the CI quick gate.
API_SWEEP_TRACE_JOBS = 1000
API_SWEEP_WORKERS = 4
API_SWEEP_GRID = {
    "scheduler": ("binpack", "spread"),
    "sgx_fraction": (0.0, 0.5),
}


def run_api_sweep(
    workers=API_SWEEP_WORKERS,
    trace_jobs=API_SWEEP_TRACE_JOBS,
    grid=None,
) -> dict:
    """Serial vs parallel execution of one scenario sweep.

    Emits the scenario layer's structured sweep JSON (schema
    ``repro.sweep/1``) augmented with serial/parallel wall clock and a
    per-row ``parallel_identical`` flag: every scenario's pool-worker
    result must be bit-for-bit identical to the serial one.
    """
    cluster_workers = max(2, trace_jobs // 125)
    base = Scenario(
        trace=(
            f"borg-synth:seed=7,jobs={trace_jobs},"
            f"overallocators={max(1, trace_jobs // 10)}"
        ),
        seed=1,
        standard_workers=cluster_workers,
        sgx_workers=cluster_workers,
    )
    sweep = Sweep(base, grid=grid or API_SWEEP_GRID, name="api_sweep")
    start = time.perf_counter()
    serial = sweep.run(workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = sweep.run(workers=workers)
    parallel_s = time.perf_counter() - start
    rows = []
    for serial_run, parallel_run in zip(serial, parallel, strict=True):
        row = serial_run.to_row()
        row["parallel_identical"] = (
            serial_run.signature() == parallel_run.signature()
        )
        rows.append(row)
    # One formatter owns the sweep-JSON envelope; wall clock is
    # informational (the speedup tracks the host's actual parallelism,
    # cpu_count), while the *gated* facts are the deterministic
    # outcomes and the identity flag.
    return json.loads(
        rows_to_json(
            rows,
            benchmark="api_sweep",
            workers=workers,
            cpu_count=os.cpu_count(),
            serial_wall_s=round(serial_s, 3),
            parallel_wall_s=round(parallel_s, 3),
            parallel_speedup=round(serial_s / parallel_s, 2),
        )
    )


#: The preemption sweep's tenant mix: a small latency-critical tenant
#: over a bulk best-effort population, all-SGX so the 64 MiB PRM is
#: the contended resource.
PREEMPTION_SIZES = (1000, 2000)
PREEMPTION_HIGH_FRACTION = 0.15
PREEMPTION_EPC_MIB = 64
PREEMPTION_WINDOW_SECONDS = 900.0


def _tier_waits(result, tier):
    return [
        pod.waiting_seconds
        for pod in result.metrics.succeeded
        if pod.spec.labels.get("tier") == tier
        and pod.waiting_seconds is not None
    ]


def preemption_scenario(n_pods: int, policy: str) -> Scenario:
    """One contended two-tier scenario (sans trace).

    Roughly one worker pair per 250 pods: the burst window outpaces
    the cluster, the queue backs up and the high tier either waits
    behind the batch tier (``none``) or evicts its way in.
    """
    workers = max(2, n_pods // 250)
    return Scenario(
        scheduler="binpack",
        sgx_fraction=1.0,
        seed=1,
        epc_total_bytes=mib(PREEMPTION_EPC_MIB),
        standard_workers=workers,
        sgx_workers=workers,
        indexed_scheduling=True,
        workload="priority-mix",
        workload_options={
            "high_fraction": PREEMPTION_HIGH_FRACTION,
            "high_priority": "latency-critical",
        },
        preemption_policy=policy,
    )


def run_preemption(sizes=PREEMPTION_SIZES) -> dict:
    """High-priority waiting time, non-preemptive vs cheapest-victims."""
    results = []
    for n_pods in sizes:
        trace = synthetic_scaled_trace(
            seed=7,
            n_jobs=n_pods,
            overallocators=n_pods // 10,
            window_seconds=PREEMPTION_WINDOW_SECONDS,
        )
        baseline = preemption_scenario(n_pods, "none").with_(
            trace=trace
        )
        disabled = baseline.run()
        preempting = preemption_scenario(
            n_pods, "cheapest-victims"
        ).with_(trace=trace).run()
        # Equivalence fact: the priority-disabled run equals the
        # full-scan oracle bit for bit — the policy layer costs
        # disabled replays nothing.
        oracle = baseline.with_(indexed_scheduling=False).run()
        disabled_identical = (
            disabled.pod_signature() == oracle.pod_signature()
            and disabled.metrics.makespan_seconds
            == oracle.metrics.makespan_seconds
        )
        base_high = _tier_waits(disabled, "high")
        fast_high = _tier_waits(preempting, "high")
        base_p50 = statistics.median(base_high)
        fast_p50 = statistics.median(fast_high)
        results.append(
            {
                "pods": n_pods,
                "high_tier_pods": len(base_high),
                "baseline_high_p50_s": round(base_p50, 3),
                "preempt_high_p50_s": round(fast_p50, 3),
                "p50_reduction": round(base_p50 / max(fast_p50, 1e-9), 2),
                "baseline_high_mean_s": round(
                    statistics.mean(base_high), 3
                ),
                "preempt_high_mean_s": round(
                    statistics.mean(fast_high), 3
                ),
                "low_p50_s": round(
                    statistics.median(_tier_waits(preempting, "low")), 3
                ),
                "preemptions": preempting.preemption_count,
                "evictions": preempting.eviction_count,
                "completed": len(preempting.metrics.succeeded),
                "disabled_identical": disabled_identical,
            }
        )
    return {
        "benchmark": "preemption",
        "policy": "cheapest-victims",
        "high_fraction": PREEMPTION_HIGH_FRACTION,
        "epc_mib": PREEMPTION_EPC_MIB,
        "window_seconds": PREEMPTION_WINDOW_SECONDS,
        "results": results,
    }


#: The traces sweep: ingestion throughput and peak memory of the
#: streaming CSV adapter on a synthetic 100k-row file, and an
#: EPC-strategy comparison replayed from two registered synthetic
#: shapes.  The windowed load keeps ``TRACES_WINDOW_SECONDS`` rows
#: (one submit per second), so its kept count — the gated
#: ``completed`` metric — is machine-independent even when ``--quick``
#: shrinks the file.
TRACES_CSV_ROWS = 100_000
TRACES_WINDOW_SECONDS = 500
TRACES_SYNTH_SPECS = (
    "synth-bursty:seed=3,jobs=800,window=900",
    "synth-heavytail:seed=3,jobs=800,window=900,max_duration=30m",
)


def _write_traces_csv(path: Path, rows: int) -> None:
    """A Borg-format CSV with one submission per second."""
    with path.open("w") as handle:
        handle.write(
            "job_id,submit_time_seconds,duration_seconds,"
            "assigned_memory_fraction,max_memory_fraction\n"
        )
        for i in range(rows):
            handle.write(f"{i},{i}.0,60.0,0.01,0.02\n")


def _traced_load(spec: str):
    """(trace, wall seconds, tracemalloc peak bytes) of one resolve."""
    tracemalloc.start()
    start = time.perf_counter()
    trace = resolve_trace(spec)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return trace, elapsed, peak


def traces_scenario(spec: str) -> Scenario:
    """One EPC-contended replay of a registered synthetic shape."""
    return Scenario(
        trace=spec,
        scheduler="binpack",
        sgx_fraction=SGX_FRACTION,
        seed=1,
        indexed_scheduling=True,
        standard_workers=4,
        sgx_workers=4,
    )


def run_traces(csv_rows=TRACES_CSV_ROWS) -> dict:
    """Trace-ecosystem sweep: streaming ingestion + synthetic replays.

    The CSV rows measure that ``borg-csv`` windowing stays O(kept
    window) in memory (``mem_ratio`` is full-load peak over windowed
    peak); the synthetic rows replay two registered generator shapes
    under EPC pressure with binpack and spread, re-running binpack to
    assert spec-level determinism.
    """
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "borg_stream.csv"
        _write_traces_csv(path, csv_rows)
        full, full_s, full_peak = _traced_load(
            f"borg-csv:path={path},renumber=false"
        )
        window_spec = (
            f"borg-csv:path={path},window={TRACES_WINDOW_SECONDS}"
        )
        windowed, _, windowed_peak = _traced_load(window_spec)
        rerun, _, _ = _traced_load(window_spec)
        results.append(
            {
                "case": "borg-csv-stream",
                "rows": len(full),
                "completed": len(windowed),
                "ingest_rows_per_s": round(len(full) / full_s),
                "full_peak_mib": round(full_peak / 2**20, 2),
                "windowed_peak_mib": round(windowed_peak / 2**20, 2),
                "mem_ratio": round(full_peak / windowed_peak, 1),
                "deterministic": (
                    list(windowed) == list(rerun)
                    and len(windowed) == TRACES_WINDOW_SECONDS
                ),
            }
        )
    for spec in TRACES_SYNTH_SPECS:
        scenario = traces_scenario(spec)
        start = time.perf_counter()
        binpack = scenario.run()
        wall_s = time.perf_counter() - start
        repeat = scenario.run()
        spread = scenario.with_(scheduler="spread").run()
        results.append(
            {
                "case": spec.split(":")[0],
                "spec": spec,
                "completed": len(binpack.metrics.succeeded),
                "binpack_makespan_s": round(
                    binpack.metrics.makespan_seconds, 3
                ),
                "spread_makespan_s": round(
                    spread.metrics.makespan_seconds, 3
                ),
                "wall_s": round(wall_s, 3),
                "deterministic": (
                    binpack.signature() == repeat.signature()
                ),
            }
        )
    return {
        "benchmark": "traces",
        "csv_rows": csv_rows,
        "window_seconds": TRACES_WINDOW_SECONDS,
        "sgx_fraction": SGX_FRACTION,
        "results": results,
    }


#: Pre-refactor whole-replay wall clock in seconds, measured on the
#: reference machine immediately before the hot-path rebuild (tuple
#: heap, slotted layouts, lean scheduler loops, TSDB write diet).  The
#: keys are trace sizes of :func:`wall_config`; the values are
#: per-engine timings of the identical scenarios.  ``speedup`` in the
#: wall report is the periodic baseline over the fresh periodic wall:
#: machine-dependent in absolute terms, which is why the regression
#: gate compares it against the *committed* BENCH_wall.json row with a
#: generous tolerance rather than against these constants directly.
WALL_BASELINES = {
    250: {"periodic": 0.304, "indexed": 0.307},
    1000: {"periodic": 1.497, "indexed": 1.526},
    2000: {"periodic": 3.966, "indexed": 4.045},
}


def wall_config(n_pods: int, indexed: bool = False) -> Scenario:
    """One engine variant of the wall sweep (sans trace).

    The cluster scales with the workload (roughly one worker pair per
    125 pods) so the sweep measures scheduling-loop cost, not a
    5-node testbed grinding through a month-long backlog.
    """
    workers = max(2, n_pods // 125)
    return Scenario(
        scheduler="binpack",
        sgx_fraction=SGX_FRACTION,
        seed=1,
        indexed_scheduling=indexed,
        scheduler_period=RECONCILE_PERIOD_SECONDS,
        standard_workers=workers,
        sgx_workers=workers,
    )


def run_wall(sizes=(250, 1000, 2000), repeats=1) -> dict:
    """Whole-replay wall clock per engine vs pre-refactor baselines."""
    results = []
    for n_pods in sizes:
        trace = synthetic_scaled_trace(
            seed=7, n_jobs=n_pods, overallocators=n_pods // 10
        )
        walls = {}
        runs = {}
        for engine, kwargs in (
            ("periodic", {}),
            ("indexed", {"indexed": True}),
        ):
            scenario = wall_config(n_pods, **kwargs).with_(trace=trace)
            best = None
            for _ in range(repeats):
                start = time.perf_counter()
                result = scenario.run()
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
                runs[engine] = result
            walls[engine] = best
        # The cross-engine identity the replay layers must preserve:
        # the indexed engine matches the full-scan one on the *full*
        # signature.
        engines_identical = (
            runs["indexed"].signature() == runs["periodic"].signature()
        )
        baseline = WALL_BASELINES.get(n_pods)
        row = {
            "pods": n_pods,
            "periodic_wall_s": round(walls["periodic"], 3),
            "indexed_wall_s": round(walls["indexed"], 3),
            "engines_identical": engines_identical,
        }
        if baseline is not None:
            row["baseline_periodic_s"] = baseline["periodic"]
            row["baseline_indexed_s"] = baseline["indexed"]
            row["speedup"] = round(
                baseline["periodic"] / walls["periodic"], 2
            )
        results.append(row)
    return {
        "benchmark": "wall",
        "sgx_fraction": SGX_FRACTION,
        "scheduler_period_seconds": RECONCILE_PERIOD_SECONDS,
        "baseline": "pre-refactor seed (see WALL_BASELINES)",
        "results": results,
    }


def run_obs(sizes=(1000, 2000), repeats=9) -> dict:
    """Ledger-on vs ledger-off wall overhead of the periodic engine.

    The observability contract has two halves: turning the decision
    ledger on must not change the run (``identical`` — whole-replay
    signatures agree bit for bit) and must not slow it down
    meaningfully.  ``overhead_pct`` compares the best observed wall
    against the best unobserved wall over ``repeats`` interleaved
    pairs (alternating order within each pair): ambient machine noise
    — CPU frequency states, noisy CI neighbours — only ever slows a
    run down, so each arm's minimum converges to its uncontended
    floor, and the floor ratio is the real cost of recording.  Means
    or medians of so few seconds of wall time are dominated by which
    samples a load spike happened to hit.  ``events`` is the ledger's
    record count, which is deterministic per trace size and therefore
    the gateable metric.
    """
    from repro.api import ObserveConfig

    results = []
    for n_pods in sizes:
        trace = synthetic_scaled_trace(
            seed=7, n_jobs=n_pods, overallocators=n_pods // 10
        )
        plain = wall_config(n_pods).with_(trace=trace)
        off_best = on_best = None
        with tempfile.TemporaryDirectory() as tmp:
            for repeat in range(repeats):
                ledger_path = os.path.join(tmp, f"r{repeat}.jsonl")
                observed = plain.with_(
                    observe=ObserveConfig(ledger_path=ledger_path)
                )
                arms = [("off", plain), ("on", observed)]
                if repeat % 2:
                    arms.reverse()
                timings = {}
                for arm, scenario in arms:
                    start = time.perf_counter()
                    result = scenario.run()
                    timings[arm] = time.perf_counter() - start
                    if arm == "off":
                        off = result
                    else:
                        on = result
                if off_best is None or timings["off"] < off_best:
                    off_best = timings["off"]
                if on_best is None or timings["on"] < on_best:
                    on_best = timings["on"]
            with open(on.ledger_path, encoding="utf-8") as handle:
                events = sum(1 for _ in handle) - 1  # header line
        results.append(
            {
                "pods": n_pods,
                "off_wall_s": round(off_best, 3),
                "on_wall_s": round(on_best, 3),
                "overhead_pct": round(
                    100.0 * (on_best - off_best) / off_best, 1
                ),
                "identical": on.signature() == off.signature(),
                "events": events,
            }
        )
    return {
        "benchmark": "obs",
        "sgx_fraction": SGX_FRACTION,
        "scheduler_period_seconds": RECONCILE_PERIOD_SECONDS,
        "results": results,
    }


def main() -> None:
    report = run()
    out_path = Path(__file__).resolve().parent.parent / (
        "BENCH_state_cache.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["results"]:
        print(
            f"{row['pods']:>6} pods: full {row['full_scan_ms']:.3f} ms  "
            f"cached {row['cached_ms']:.3f} ms  "
            f"speedup {row['speedup']:.1f}x"
        )
    print(f"wrote {out_path}")

    scale_report = run_sched_scale()
    scale_path = Path(__file__).resolve().parent.parent / (
        "BENCH_sched_scale.json"
    )
    scale_path.write_text(json.dumps(scale_report, indent=2) + "\n")
    for row in scale_report["results"]:
        print(
            f"{row['scheduler']:>12} {row['pods']:>5} pods / "
            f"{row['nodes']:>3} nodes: full {row['full_scan_ms']:.1f} ms  "
            f"indexed {row['indexed_ms']:.1f} ms  "
            f"speedup {row['speedup']:.1f}x  "
            f"identical={row['identical']}"
        )
    print(f"wrote {scale_path}")

    api_report = run_api_sweep()
    api_path = Path(__file__).resolve().parent.parent / (
        "BENCH_api_sweep.json"
    )
    api_path.write_text(json.dumps(api_report, indent=2) + "\n")
    identical = all(
        row["parallel_identical"] for row in api_report["results"]
    )
    print(
        f"api_sweep: {api_report['count']} scenarios  "
        f"serial {api_report['serial_wall_s']:.2f} s  "
        f"parallel({api_report['workers']}) "
        f"{api_report['parallel_wall_s']:.2f} s  "
        f"speedup {api_report['parallel_speedup']:.2f}x  "
        f"identical={identical}"
    )
    print(f"wrote {api_path}")

    preemption_report = run_preemption()
    preemption_path = Path(__file__).resolve().parent.parent / (
        "BENCH_preemption.json"
    )
    preemption_path.write_text(
        json.dumps(preemption_report, indent=2) + "\n"
    )
    for row in preemption_report["results"]:
        print(
            f"{row['pods']:>6} pods: high-tier p50 "
            f"{row['baseline_high_p50_s']:.1f} s -> "
            f"{row['preempt_high_p50_s']:.1f} s "
            f"({row['p50_reduction']:.1f}x), "
            f"{row['preemptions']} preemptions / "
            f"{row['evictions']} evictions, "
            f"disabled_identical={row['disabled_identical']}"
        )
    print(f"wrote {preemption_path}")

    traces_report = run_traces()
    traces_path = Path(__file__).resolve().parent.parent / (
        "BENCH_traces.json"
    )
    traces_path.write_text(json.dumps(traces_report, indent=2) + "\n")
    for row in traces_report["results"]:
        if row["case"] == "borg-csv-stream":
            print(
                f"borg-csv: {row['rows']} rows at "
                f"{row['ingest_rows_per_s']} rows/s, peak "
                f"{row['full_peak_mib']:.1f} MiB full vs "
                f"{row['windowed_peak_mib']:.1f} MiB windowed "
                f"({row['mem_ratio']:.0f}x), "
                f"deterministic={row['deterministic']}"
            )
        else:
            print(
                f"{row['case']}: {row['completed']} completed, "
                f"binpack {row['binpack_makespan_s']:.0f} s vs "
                f"spread {row['spread_makespan_s']:.0f} s makespan, "
                f"deterministic={row['deterministic']}"
            )
    print(f"wrote {traces_path}")

    wall_report = run_wall()
    wall_path = Path(__file__).resolve().parent.parent / (
        "BENCH_wall.json"
    )
    wall_path.write_text(json.dumps(wall_report, indent=2) + "\n")
    for row in wall_report["results"]:
        print(
            f"{row['pods']:>6} pods: periodic {row['periodic_wall_s']:.2f} s  "
            f"indexed {row['indexed_wall_s']:.2f} s  "
            f"(baseline {row.get('baseline_periodic_s', '-')} s, "
            f"speedup {row.get('speedup', '-')}x, "
            f"identical={row['engines_identical']})"
        )
    print(f"wrote {wall_path}")

    obs_report = run_obs()
    obs_path = Path(__file__).resolve().parent.parent / (
        "BENCH_obs.json"
    )
    obs_path.write_text(json.dumps(obs_report, indent=2) + "\n")
    for row in obs_report["results"]:
        print(
            f"{row['pods']:>6} pods: ledger off {row['off_wall_s']:.2f} s  "
            f"on {row['on_wall_s']:.2f} s  "
            f"(overhead {row['overhead_pct']:+.1f}%, "
            f"{row['events']} events, identical={row['identical']})"
        )
    print(f"wrote {obs_path}")


if __name__ == "__main__":
    main()
