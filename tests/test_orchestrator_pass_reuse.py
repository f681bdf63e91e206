"""Pass reuse: when a pass may return the previous pass's outcome.

``Orchestrator._schedule`` returns the kept all-deferred outcome only
when recomputing it provably gives the same: the same scheduler object,
the same queued pods in the same order, and the retained view snapshot
served again.  Each test drives a reusing
orchestrator and the recomputing oracle
(``tests/pass_reuse_reference.py``) through one sequence of operations
and requires identical pass results and ledger records; the
hypothesis suite does the same for whole replays.
"""

import contextlib
import itertools
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pass_reuse_reference import (
    RecomputingOrchestrator,
    RecordingObserver,
    ledger_body,
    recomputing,
    run_with_replay,
)
from repro.api import ObserveConfig, Scenario
from repro.cluster.topology import paper_cluster
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.pod import Pod
from repro.scheduler.base import ClusterStateService, NodeView, Scheduler
from repro.scheduler.binpack import BinpackScheduler
from repro.scheduler.kube_default import KubeDefaultScheduler
from repro.scheduler.spread import SpreadScheduler
from repro.simulation.runner import run_replay
from repro.trace.borg import synthetic_scaled_trace
from repro.units import mib


def outcome(result):
    """A pass result by pod name (the two orchestrators' pods differ)."""
    return (
        [(pod.name, pod.node_name) for pod, _ in result.launched],
        [pod.name for pod in result.killed],
        [pod.name for pod in result.rejected],
        [pod.name for pod in result.requeued],
        [pod.name for pod in result.deferred],
        result.wait_reasons,
    )


class Twin:
    """A reusing orchestrator and the recomputing oracle, driven in
    lockstep; every pass's result and records must agree."""

    def __init__(self, **cluster_kwargs):
        self.reusing = Orchestrator(
            paper_cluster(**cluster_kwargs), observer=RecordingObserver()
        )
        self.oracle = RecomputingOrchestrator(
            paper_cluster(**cluster_kwargs), observer=RecordingObserver()
        )

    def submit(self, name, now, epc_mib):
        spec = make_pod_spec(name, 600.0, declared_epc_bytes=mib(epc_mib))
        for orchestrator in (self.reusing, self.oracle):
            orchestrator.submit(spec, now)

    def run_pass(self, schedulers, now):
        """One pass on each side; *schedulers* is (reusing, oracle)."""
        results = [
            orchestrator.scheduling_pass(scheduler, now)
            for orchestrator, scheduler in zip(
                (self.reusing, self.oracle), schedulers, strict=True
            )
        ]
        assert outcome(results[0]) == outcome(results[1])
        assert self.reusing.ledger.records == self.oracle.ledger.records
        return results[0]


def backlog(twin, waiting=3):
    """Fill both SGX nodes, then queue *waiting* pods that fit nowhere
    until the fillers finish."""
    for index in range(2):
        twin.submit(f"fill-{index}", 0.0, 80)
    twin.run_pass((BinpackScheduler(), BinpackScheduler()), 1.0)
    for index in range(waiting):
        twin.submit(f"wait-{index}", 2.0, 60)


class TestReuseConditions:
    def test_unchanged_backlog_is_reused(self):
        twin = Twin()
        backlog(twin)
        schedulers = (BinpackScheduler(), BinpackScheduler())
        for now in (3.0, 4.0, 5.0):
            result = twin.run_pass(schedulers, now)
            assert result.wait_reasons == {"epc": 3}
        assert twin.reusing.passes_reused == 2

    def test_only_all_deferred_outcomes_are_kept(self):
        # A pass that places or rejects changes the kubelets or the
        # queue, so its inputs never recur in a replay; hand _schedule
        # the same inputs twice instead.
        orchestrator = Orchestrator(paper_cluster())
        scheduler = BinpackScheduler()
        for name, epc_mib in (("fits", 10), ("never", 4096)):
            orchestrator.submit(
                make_pod_spec(name, 60.0, declared_epc_bytes=mib(epc_mib)),
                0.0,
            )
        pending = orchestrator.queue.snapshot()
        for now in (1.0, 2.0):
            views = orchestrator.state_service.build_views(now)
            outcome = orchestrator._schedule(scheduler, pending, views, now)
            assert [a.pod.name for a in outcome.assignments] == ["fits"]
            assert [p.name for p in outcome.unschedulable] == ["never"]
        assert orchestrator.state_service.snapshots_reused == 1
        assert orchestrator.passes_reused == 0

    def test_a_reused_declared_only_pass_leaves_declared_views(self):
        # kube-default judges feasibility on declared commitments; a
        # reused pass must leave its views as Scheduler.schedule does
        # (used = committed), since the preemption step plans on them.
        orchestrator = Orchestrator(paper_cluster())
        for index in range(2):
            orchestrator.submit(
                make_pod_spec(
                    f"fill-{index}", 600.0, declared_epc_bytes=mib(80),
                    actual_epc_bytes=mib(10),
                ),
                0.0,
            )
        scheduler = KubeDefaultScheduler()
        orchestrator.scheduling_pass(scheduler, 1.0)
        orchestrator.collect_metrics(2.0)
        orchestrator.submit(
            make_pod_spec("wait", 600.0, declared_epc_bytes=mib(60)), 2.0
        )
        pending = orchestrator.queue.snapshot()
        for now in (3.0, 4.0):
            views = orchestrator.state_service.build_views(now)
            measured = [view.used for view in views]
            outcome = orchestrator._schedule(scheduler, pending, views, now)
            assert outcome.deferred == pending
            committed = [view.committed for view in views]
            assert measured != committed
            assert [view.used for view in views] == committed
        assert orchestrator.passes_reused == 1

    def test_alternating_schedulers_never_share_an_outcome(self):
        twin = Twin()
        backlog(twin)
        binpack = (BinpackScheduler(), BinpackScheduler())
        spread = (SpreadScheduler(), SpreadScheduler())
        now = 3.0
        for _ in range(3):
            for schedulers in (binpack, spread):
                result = twin.run_pass(schedulers, now)
                assert len(result.deferred) == 3
                now += 1.0
        # Each pass follows the other scheduler's: nothing to reuse.
        assert twin.reusing.passes_reused == 0
        twin.run_pass(spread, now)
        assert twin.reusing.passes_reused == 1

    def test_an_outcome_is_never_lent_to_another_scheduler(self):
        twin = Twin()
        backlog(twin, waiting=0)
        twin.submit("small", 2.0, 10)
        picky = (Picky(), Picky())
        twin.run_pass(picky, 3.0)
        twin.run_pass(picky, 4.0)
        assert twin.reusing.passes_reused == 1
        # Same pods, same snapshot — another scheduler.
        result = twin.run_pass((BinpackScheduler(), BinpackScheduler()), 5.0)
        assert [pod.name for pod, _ in result.launched] == ["small"]

    def test_a_rebuilt_snapshot_is_never_reused(self):
        twin = Twin()
        backlog(twin)
        schedulers = (BinpackScheduler(), BinpackScheduler())
        twin.run_pass(schedulers, 3.0)
        # A rebuild between two passes (fresh samples at 3.5) replaces
        # the snapshot the kept outcome was computed against.
        for orchestrator in (twin.reusing, twin.oracle):
            orchestrator.collect_metrics(3.5)
        twin.run_pass(schedulers, 4.0)
        assert twin.reusing.passes_reused == 0


class Picky(Scheduler):
    """Defers every pod it is offered, whatever fits (still pure)."""

    name = "picky"

    def _select(
        self,
        pod: Pod,
        candidates: Sequence[NodeView],
        views: Sequence[NodeView],
    ) -> Optional[NodeView]:
        return None


#: The knobs of the contended replay the counters are checked on.
CONTENDED = dict(
    trace="borg-synth:seed=42,jobs=60,window=5m",
    sgx_fraction=0.9,
    epc_total_bytes=mib(64),
    standard_workers=1,
    sgx_workers=1,
    seed=1,
)


class TestPassesReused:
    def count_calls(self, monkeypatch):
        calls = {"schedule": 0, "build_views": 0}
        for cls, name in (
            (Scheduler, "schedule"), (ClusterStateService, "build_views"),
        ):
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
        return calls

    def test_reused_passes_are_the_passes_not_scheduled(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        replay = run_replay(Scenario(**CONTENDED))
        reused = replay.orchestrator.passes_reused
        assert reused > 0
        # Every pass with pods queued builds views; the reused ones
        # skip Scheduler.schedule.
        assert reused == calls["build_views"] - calls["schedule"]
        assert calls["build_views"] <= replay.passes_executed

    def test_exported_as_a_counter(self, tmp_path):
        path = tmp_path / "run.prom"
        result, replay = run_with_replay(
            Scenario(
                **CONTENDED,
                observe=ObserveConfig(metrics_path=str(path)),
            )
        )
        reused = replay.orchestrator.passes_reused
        assert reused > 0
        text = path.read_text()
        assert f"repro_passes_reused_total {reused}\n" in text
        assert (
            f'repro_passes_total{{outcome="executed"}} '
            f"{result.passes_executed}\n" in text
        )


def bursty_trace(trace_seed, n_jobs):
    """A short-window trace: the queue backs up, so passes repeat."""
    return synthetic_scaled_trace(
        seed=trace_seed,
        n_jobs=n_jobs,
        overallocators=max(1, n_jobs // 10),
        window_seconds=120.0,
    )


def contended_scenario(
    trace_seed, seed, n_jobs, sgx_fraction, scheduler, preempting, limits,
):
    """One point of the hypothesis regime: a small backlogged replay."""
    knobs = dict(
        trace=bursty_trace(trace_seed, n_jobs),
        sgx_fraction=sgx_fraction,
        seed=seed,
        scheduler=scheduler,
        epc_total_bytes=mib(64),
        standard_workers=1,
        sgx_workers=2,
        enforce_epc_limits=limits,
    )
    if preempting:
        knobs.update(
            workload="priority-mix",
            workload_options={
                "high_fraction": 0.25,
                "high_priority": "latency-critical",
            },
            preemption_policy="cheapest-victims",
        )
    return Scenario(**knobs)


REGIME = dict(
    trace_seed=st.integers(min_value=0, max_value=1_000),
    seed=st.integers(min_value=0, max_value=1_000),
    n_jobs=st.integers(min_value=8, max_value=30),
    sgx_fraction=st.sampled_from([0.5, 1.0]),
    scheduler=st.sampled_from(["binpack", "spread", "kube-default"]),
    preempting=st.booleans(),
    limits=st.booleans(),
)


@given(**REGIME)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_reusing_replay_is_the_recomputing_replay(**knobs):
    scenario = contended_scenario(**knobs)
    runs = []
    with tempfile.TemporaryDirectory() as directory:
        for name, engine in (
            ("reusing", contextlib.nullcontext()),
            ("recomputing", recomputing()),
        ):
            path = str(Path(directory) / (name + ".jsonl"))
            observed = scenario.with_(
                observe=ObserveConfig(ledger_path=path)
            )
            with engine:
                result = observed.run()
            runs.append((result.signature(), ledger_body(path)))
    (reused, reused_ledger), (oracle, oracle_ledger) = runs
    assert reused == oracle
    assert reused_ledger == oracle_ledger


def test_the_regime_reuses_passes():
    """Guard: the hypothesis regime above really reuses passes, with
    every strategy, with preemption on (and then evicts) and with
    limits on (and then kills at the EPC limit)."""
    base = dict(trace_seed=7, seed=1, n_jobs=30, sgx_fraction=1.0)
    for scheduler, preempting, limits in itertools.product(
        ("binpack", "spread", "kube-default"), (False, True), (False, True)
    ):
        replay = run_replay(
            contended_scenario(
                scheduler=scheduler, preempting=preempting, limits=limits,
                **base,
            )
        )
        case = (scheduler, preempting, limits)
        assert replay.orchestrator.passes_reused > 0, case
        assert (replay.eviction_count > 0) == preempting, case
        killed = [
            pod
            for pod in replay.orchestrator.all_pods
            if (pod.failure_reason or "").startswith("EPC limit")
        ]
        assert bool(killed) == limits, case
