"""Piecewise-linear job progress: slowdown epochs against the per-tick engine.

A running job's finish event is armed once, at start, and re-armed only
when its node's paging slowdown moves off the node's epoch.
:class:`PerTickReplay` keeps the engine this replaced as the reference:
it banks and re-arms every job it could affect on every scheduler
wake-up, start and finish, whether or not a slowdown moved.  Both must
make the same decisions, with finish times equal up to float rounding.

After a pass the replay checks only the SGX nodes the pass admitted a
pod on or evicted one from.  :class:`EpochSweep` keeps the full sweep
as the reference: after every scheduler tick, every SGX node's epoch
must be the paging slowdown of its EPC occupancy.
"""

import contextlib
import gc

import pytest

from pass_reuse_reference import recomputing
from repro.api import Scenario
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
        for node_name in self._sgx_nodes:
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


def decisions(result):
    return [
        (p.name, p.phase, p.node_name, p.bound_at, p.started_at)
        for p in result.metrics.pods
    ]


def counters(result):
    return (
        result.passes_executed,
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
    # Evictions drop running jobs mid-run.
    "preemption": Scenario(
        **CONTENDED,
        workload="priority-mix",
        workload_options={
            "high_fraction": 0.25,
            "high_priority": "latency-critical",
        },
        preemption_policy="cheapest-victims",
    ),
}


class EpochLog(_Replay):
    """The replay, recording each SGX node's slowdown epochs in turn."""

    __slots__ = ("epochs",)

    def __init__(self, scenario):
        super().__init__(scenario)
        self.epochs = {}

    def _check_node(self, node_name, now):
        slowdown = super()._check_node(node_name, now)
        history = self.epochs.setdefault(node_name, [1.0])
        if slowdown != history[-1]:
            history.append(slowdown)
        return slowdown


class EpochSweep(_Replay):
    """The replay, checking after every scheduler tick that each SGX
    node's slowdown epoch is what a sweep over every SGX node would
    set: the paging slowdown of the node's EPC occupancy."""

    __slots__ = ("sweeps",)

    def __init__(self, scenario):
        super().__init__(scenario)
        self.sweeps = 0

    def _scheduler_tick(self):
        super()._scheduler_tick()
        now = self.engine.now
        for node_name in self._sgx_nodes:
            kubelet = self.orchestrator.kubelets[node_name]
            slowdown = self.perf.paging_slowdown(
                kubelet.epc_overcommit_ratio()
            )
            assert self._epochs.get(node_name, 1.0) == slowdown, (
                node_name, now,
            )
        self.sweeps += 1


class TestPerTickOracle:
    def test_the_scenarios_exercise_every_input(self):
        """Guard: the SGX node's paging epoch rises and falls, a limit
        kills pods, and evictions drop running jobs."""
        replay = EpochLog(ORACLE_SCENARIOS["default"])
        replay.run()
        history = replay.epochs["sgx-worker-0"]
        assert history[0] < max(history) > history[-1]
        limited = run_replay(ORACLE_SCENARIOS["limits"])
        assert any(
            (pod.failure_reason or "").startswith("EPC limit")
            for pod in limited.metrics.pods
        )
        preempting = run_replay(ORACLE_SCENARIOS["preemption"])
        assert any(
            (pod.failure_reason or "").startswith("Evicted")
            and pod.started_at is not None
            for pod in preempting.metrics.pods
        )

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


@pytest.mark.parametrize("name", list(ORACLE_SCENARIOS))
def test_epochs_equal_a_full_sweep_after_every_tick(name):
    with (
        recomputing()
        if name == "recomputing"
        else contextlib.nullcontext()
    ):
        replay = EpochSweep(ORACLE_SCENARIOS[name])
        replay.run()
    assert replay.sweeps == replay.passes_executed > 0


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
