"""Piecewise-linear job progress: slowdown epochs against the per-tick engine.

A running job's finish event is armed once, at start, and re-armed only
when its node's paging slowdown moves off the node's epoch or a
migration moves the job.  :class:`PerTickReplay` keeps the engine this
replaced as the reference: it banks and re-arms every job it could
affect on every scheduler wake-up, start, finish, rebalance and crash,
whether or not a slowdown moved.  Both must make the same decisions,
with finish times equal up to float rounding.
"""

import contextlib
import gc

import pytest

from pass_reuse_reference import recomputing
from repro.api import Scenario
from repro.scheduler.rebalancer import EpcRebalancer
from repro.simulation.engine import SimulationEngine
from repro.simulation.runner import _Replay, _RunningJob, run_replay

#: 120 jobs on one standard and one SGX worker: the SGX node is
#: over-committed for stretches, so its slowdown rises and falls.
CONTENDED = dict(
    trace="borg-synth:seed=42,jobs=120,window=2m",
    standard_workers=1,
    sgx_workers=1,
    sgx_fraction=0.5,
    seed=1,
)

#: Over-committed enough that the rebalancer migrates (4 times).
REBALANCED = Scenario(
    trace="borg-synth:seed=7,jobs=300",
    sgx_fraction=0.7,
    rebalance_period=60.0,
    seed=2,
)


class PerTickReplay(_Replay):
    """Per-tick progress: every job re-armed at every chance."""

    __slots__ = ()

    def _refresh(self, node_name, now):
        """Bank and re-arm every job on *node_name* at its current rate."""
        jobs = self._node_jobs.get(node_name)
        if not jobs:
            return
        kubelet = self.orchestrator.kubelets[node_name]
        slowdown = self.perf.paging_slowdown(kubelet.epc_overcommit_ratio())
        for job in jobs.values():
            self._rearm(job, now, slowdown if job.uses_epc else 1.0)

    def _refresh_sgx_nodes(self):
        for node_name in self._sgx_node_names:
            self._refresh(node_name, self.engine.now)

    def _sample_queue(self, now):
        # Every scheduler wake-up ends here.
        self._refresh_sgx_nodes()
        super()._sample_queue(now)

    def _start(self, pod):
        super()._start(pod)
        if pod.uid in self.running:
            self._refresh(pod.node_name, self.engine.now)

    def _finish(self, job):
        super()._finish(job)
        self._refresh(job.node_name, self.engine.now)

    def _rebalance_tick(self):
        super()._rebalance_tick()
        self._refresh_sgx_nodes()

    def _crash_node(self, node_name):
        super()._crash_node(node_name)
        self._refresh_sgx_nodes()


def decisions(result):
    return [
        (p.name, p.phase, p.node_name, p.bound_at, p.started_at)
        for p in result.metrics.pods
    ]


def counters(result):
    return (
        result.passes_executed,
        result.migration_count,
        result.eviction_count,
        result.preemption_count,
        result.wait_reasons,
    )


ORACLE_SCENARIOS = {
    "default": Scenario(**CONTENDED),
    "limits": Scenario(
        **CONTENDED, enforce_epc_limits=True, epc_allow_overcommit=False
    ),
    # Both engines on the pass that recomputes every outcome.
    "recomputing": Scenario(**CONTENDED),
    "crash": Scenario(
        trace=CONTENDED["trace"],
        sgx_fraction=0.5,
        seed=1,
        node_failures=((300.0, "sgx-worker-0"),),
    ),
    "rebalancer": REBALANCED,
}


class TestPerTickOracle:
    @pytest.mark.parametrize("name", list(ORACLE_SCENARIOS))
    def test_epochs_match_per_tick_engine(self, name):
        scenario = ORACLE_SCENARIOS[name]
        with (
            recomputing()
            if name == "recomputing"
            else contextlib.nullcontext()
        ):
            epochs = run_replay(scenario)
            oracle = PerTickReplay(scenario).run()
        assert decisions(epochs) == decisions(oracle)
        assert epochs.metrics.queue_series == oracle.metrics.queue_series
        assert counters(epochs) == counters(oracle)
        for ours, theirs in zip(
            epochs.metrics.pods, oracle.metrics.pods, strict=True
        ):
            if theirs.finished_at is None:
                assert ours.finished_at is None
            else:
                assert ours.finished_at == pytest.approx(
                    theirs.finished_at, rel=1e-9
                )
        assert epochs.metrics.makespan_seconds == pytest.approx(
            oracle.metrics.makespan_seconds, rel=1e-9
        )


def count_arms(monkeypatch, run, scenario):
    """(``reschedule_in`` calls, pods started) over one replay."""
    calls = []
    original = SimulationEngine.reschedule_in

    def counting(self, *args):
        calls.append(None)
        return original(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(SimulationEngine, "reschedule_in", counting)
        result = run(scenario)
    started = sum(p.started_at is not None for p in result.metrics.pods)
    return len(calls), started


class TestRearmCount:
    def test_one_arm_per_pod_when_nothing_slows_down(self, monkeypatch):
        # Limits enforced without over-commit: every slowdown stays 1.
        calls, started = count_arms(
            monkeypatch,
            run_replay,
            Scenario(
                **CONTENDED,
                enforce_epc_limits=True,
                epc_allow_overcommit=False,
            ),
        )
        assert started == 116
        assert calls == started

    def test_rearms_follow_slowdown_changes(self, monkeypatch):
        calls, started = count_arms(
            monkeypatch, run_replay, Scenario(**CONTENDED)
        )
        assert started == 120
        assert started < calls < 2 * started


class TestMigrationDowntime:
    def test_finish_lands_downtime_after_the_work_at_target_rate(
        self, monkeypatch
    ):
        """A migration pauses its pod for exactly the downtime.

        Before each rebalance, a migrant's remaining work follows from
        its armed finish and its source rate; afterwards its finish
        must lie that work at the target's rate plus the downtime away.
        """
        reports = []
        rebalance = EpcRebalancer.rebalance

        def recording(self, now):
            reports.append(rebalance(self, now))
            return reports[-1]

        monkeypatch.setattr(EpcRebalancer, "rebalance", recording)
        pauses = []

        class Spy(_Replay):
            __slots__ = ()

            def slowdown(self, node_name):
                kubelet = self.orchestrator.kubelets[node_name]
                return self.perf.paging_slowdown(
                    kubelet.epc_overcommit_ratio()
                )

            def _rebalance_tick(self):
                now = self.engine.now
                work = {
                    job.pod.name: (job.finish_handle.time - now)
                    / self.slowdown(job.node_name)
                    for job in self.running.values()
                    if job.uses_epc
                }
                jobs = {j.pod.name: j for j in self.running.values()}
                super()._rebalance_tick()
                for action in reports[-1].actions:
                    job = jobs[action.pod_name]
                    needed = work[action.pod_name] * self.slowdown(
                        action.target_node
                    )
                    pauses.append(
                        (job.finish_handle.time - now - needed)
                        / action.downtime_seconds
                    )

        result = Spy(REBALANCED).run()
        assert result.migration_count == 4
        assert pauses == pytest.approx([1.0] * 4, rel=1e-9)


class TestReplayLifetime:
    def test_finished_replay_frees_its_jobs(self):
        """Dropped jobs hold no reference cycle: with the cyclic
        collector off, none outlives the replay."""
        gc.collect()
        gc.disable()
        try:
            result = run_replay(Scenario(**CONTENDED))
            alive = sum(
                type(obj) is _RunningJob for obj in gc.get_objects()
            )
        finally:
            gc.enable()
        assert len(result.metrics.succeeded) == 120
        assert alive == 0
