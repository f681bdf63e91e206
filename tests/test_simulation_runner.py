"""Trace replay: end-to-end behaviour on a small trace."""

import gc
import tempfile
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import ObserveConfig, Scenario
from repro.errors import SimulationError
from repro.obs import load_ledger
from repro.orchestrator.api import PodPhase
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.kubelet import AdmissionResult, Kubelet
from repro.simulation.runner import make_scheduler, run_replay
from repro.units import mib
from repro.workload.malicious import MaliciousConfig
from test_job_progress import ORACLE_SCENARIOS, EpochLog, EpochSweep
from test_view_rebuild import REPLAYS, replay_scenario


@pytest.fixture(scope="module")
def small_result(small_trace_module):
    return run_replay(
        Scenario(
            trace=small_trace_module,
            scheduler="binpack",
            sgx_fraction=0.5,
            seed=1,
        )
    )


@pytest.fixture(scope="module")
def small_trace_module():
    from repro.trace.borg import synthetic_scaled_trace

    return synthetic_scaled_trace(seed=7, n_jobs=40, overallocators=4)


class TestMakeScheduler:
    def test_known_names(self):
        for name in ("binpack", "spread", "kube-default"):
            scheduler = make_scheduler(Scenario(scheduler=name))
            assert scheduler is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError):
            make_scheduler(Scenario(scheduler="random"))


class TestReplayCompleteness:
    def test_all_pods_terminal(self, small_result):
        for pod in small_result.metrics.pods:
            assert pod.phase.is_terminal, pod

    def test_all_jobs_completed_without_enforcement(self, small_result):
        # No limit enforcement (the default config): every job runs.
        assert len(small_result.metrics.succeeded) == 40

    def test_pod_count_matches_plans(self, small_result):
        assert len(small_result.metrics.pods) == len(small_result.plans)

    def test_makespan_at_least_trace_span(
        self, small_result, small_trace_module
    ):
        last_submit = max(j.submit_time for j in small_trace_module)
        assert small_result.metrics.makespan_seconds >= last_submit

    def test_queue_series_drains_to_zero(self, small_result):
        assert small_result.metrics.queue_series[-1].queued_pods == 0


_PLAIN = dict(
    trace_seed=7, seed=1, n_jobs=24, sgx_fraction=1.0, scheduler="binpack",
    preempting=False, limits=False, overcommit=True,
)
#: One contended replay per regime ``replay_scenario`` draws: paging
#: under over-commit without limits, preemption, and EPC limits without
#: over-commit (launches then fail transiently and requeue, and
#: over-allocators are killed at the limit).
REGIMES = {
    "paging": _PLAIN,
    "preemption": dict(_PLAIN, preempting=True),
    "limits-without-overcommit": dict(_PLAIN, limits=True, overcommit=False),
}


def recorded_replay(scenario, directory):
    """Replay *scenario* with a ledger on, checking every SGX node's
    slowdown epoch after every scheduler tick (:class:`EpochSweep`);
    the live replay and the ledger's records."""
    path = str(Path(directory) / "run.jsonl")
    observed = scenario.with_(observe=ObserveConfig(ledger_path=path))
    return EpochSweep(observed).run(), load_ledger(path).events


def assert_lifecycles_ordered(pods):
    """Each pod's timestamps come in lifecycle order, and a pod that
    succeeded has all four."""
    for pod in pods:
        stamps = [pod.submitted_at, pod.bound_at, pod.started_at,
                  pod.finished_at]
        if pod.phase is PodPhase.SUCCEEDED:
            assert None not in stamps, pod
        present = [t for t in stamps if t is not None]
        assert present == sorted(present), pod


def assert_times_non_decreasing(records):
    times = [record["t"] for record in records]
    assert times == sorted(times)


def assert_one_terminal_pod_per_submission(pods, records):
    """Every ``pod-submitted`` trigger made exactly one pod, and every
    pod ended (replacements reuse their spec's name)."""
    submitted = Counter(
        record["pod"]
        for record in records
        if record["kind"] == "trigger" and record["event"] == "pod-submitted"
    )
    assert submitted == Counter(pod.name for pod in pods)
    assert all(pod.phase.is_terminal for pod in pods)


@pytest.fixture(scope="module")
def recorded(small_trace_module, tmp_path_factory):
    """The 40-job replay and one replay per regime, each with its
    ledger records."""
    scenarios = {
        "40-jobs": Scenario(
            trace=small_trace_module, scheduler="binpack",
            sgx_fraction=0.5, seed=1,
        ),
        **{name: replay_scenario(**knobs) for name, knobs in REGIMES.items()},
    }
    return {
        name: recorded_replay(scenario, tmp_path_factory.mktemp(name))
        for name, scenario in scenarios.items()
    }


class TestEventLogInvariants:
    """What a run records, its pods' timestamps and its ledger, obeys
    the pod lifecycle."""

    def test_every_pod_flows_submit_bind_start_complete(self, recorded):
        for replay, _ in recorded.values():
            assert_lifecycles_ordered(replay.metrics.pods)

    def test_log_times_non_decreasing(self, recorded):
        for _, records in recorded.values():
            assert_times_non_decreasing(records)

    def test_counts_tally(self, recorded):
        for replay, records in recorded.values():
            assert_one_terminal_pod_per_submission(
                replay.metrics.pods, records
            )
        replay, _ = recorded["40-jobs"]
        assert len(replay.metrics.pods) == 40

    def test_each_regime_exercises_its_transition(self, recorded):
        paging = EpochLog(replay_scenario(**REGIMES["paging"]))
        paging.run()
        assert any(
            history[0] < max(history) > history[-1]
            for history in paging.epochs.values()
        )
        assert recorded["preemption"][0].eviction_count > 0
        limited, records = recorded["limits-without-overcommit"]
        assert any(record["kind"] == "requeue" for record in records)
        assert any(
            (pod.failure_reason or "").startswith("EPC limit")
            for pod in limited.metrics.pods
        )


@given(**REPLAYS)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_drawn_replays_keep_the_lifecycle_invariants(**knobs):
    with tempfile.TemporaryDirectory() as directory:
        replay, records = recorded_replay(replay_scenario(**knobs), directory)
    assert_lifecycles_ordered(replay.metrics.pods)
    assert_times_non_decreasing(records)
    assert_one_terminal_pod_per_submission(replay.metrics.pods, records)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_epochs_equal_a_full_sweep_after_every_tick(regime):
    replay = EpochSweep(replay_scenario(**REGIMES[regime]))
    replay.run()
    assert replay.sweeps == replay.passes_executed > 0


def test_a_failed_launch_leaves_epc_occupancy_as_it_was(monkeypatch):
    """Why a pass names no failed launch's node for an epoch check: a
    launch that fails, transiently (the EPC is full) or at the limit
    (also with over-commit, where paging follows occupancy), tears down
    what it created."""
    failures = Counter()
    admit = Kubelet.admit

    def checked_admit(kubelet, pod):
        epc = kubelet.node.epc
        before = None if epc is None else epc.allocated_pages
        result = admit(kubelet, pod)
        if not result.success:
            assert (None if epc is None else epc.allocated_pages) == before
            failures[result.retryable] += 1
        return result

    monkeypatch.setattr(Kubelet, "admit", checked_admit)
    run_replay(replay_scenario(**REGIMES["limits-without-overcommit"]))
    run_replay(ORACLE_SCENARIOS["limits"])
    limited = run_replay(
        replay_scenario(**dict(_PLAIN, limits=True, overcommit=True))
    )
    assert failures[True] > 0
    assert failures[False] > 0
    assert any(
        (pod.failure_reason or "").startswith("EPC limit")
        for pod in limited.metrics.pods
    )


def test_an_eviction_names_its_node_when_its_preemptor_fails(monkeypatch):
    """A pass checks the epoch of a node it evicted from even when the
    preemptor's launch there fails.  No replay fails that launch on its
    own (without limits the EPC over-commits instead of refusing), so
    each high-tier pod's first launch fails here, as a transient EPC
    race would; where that launch follows the pod's evictions, the pass
    admits nothing on the node it evicted from."""
    raced, unadmitted = set(), []
    admit = Kubelet.admit

    def racing(kubelet, pod):
        if pod.spec.priority > 0 and pod.uid not in raced:
            raced.add(pod.uid)
            return AdmissionResult(
                success=False,
                failure_reason="enclave creation failed: raced",
                retryable=True,
            )
        return admit(kubelet, pod)

    scheduling_pass = Orchestrator.scheduling_pass

    def counting(orchestrator, scheduler, now):
        result = scheduling_pass(orchestrator, scheduler, now)
        admitted = {pod.node_name for pod, _ in result.launched}
        unadmitted.extend(
            victim.node_name
            for victim, _ in result.evicted
            if victim.node_name not in admitted
        )
        return result

    monkeypatch.setattr(Kubelet, "admit", racing)
    monkeypatch.setattr(Orchestrator, "scheduling_pass", counting)
    replay = EpochSweep(replay_scenario(**REGIMES["preemption"]))
    replay.run()
    assert unadmitted


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_a_dropped_replay_is_freed_without_the_collector(regime):
    """A converged replay keeps no reference cycle through its
    orchestrator or its nodes' cgroup trees, so dropping the result
    frees it at once instead of at the next full garbage collection
    (which would then land inside whatever runs next)."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_replay(replay_scenario(**REGIMES[regime]))
        orchestrator = weakref.ref(result.orchestrator)
        del result
        assert orchestrator() is None
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
        assert not found["Cgroup"], found
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


class TestTimingSemantics:
    def test_waiting_time_includes_startup(self, small_result):
        for pod in small_result.metrics.succeeded:
            assert pod.started_at >= pod.bound_at
            assert pod.waiting_seconds >= 0.0

    def test_sgx_pods_pay_sgx_startup(self, small_result):
        sgx_pods = [
            p for p in small_result.metrics.succeeded if p.requires_sgx
        ]
        for pod in sgx_pods:
            # At least the 100 ms PSW boot separates bind from start.
            assert pod.started_at - pod.bound_at >= 0.099

    def test_runtime_without_contention_close_to_trace(
        self, small_result, small_trace_module
    ):
        """A standard pod runs for exactly its trace duration, and no
        pod runs faster than its trace: paging only stretches time."""
        contended = run_replay(
            Scenario(
                trace="borg-synth:seed=42,jobs=120,window=2m",
                standard_workers=1,
                sgx_workers=1,
                sgx_fraction=0.5,
                seed=1,
            )
        )
        for result, trace in (
            (small_result, small_trace_module),
            (contended, contended.scenario.build_trace()),
        ):
            durations = {f"std-job-{j.job_id}": j.duration for j in trace}
            for pod in result.metrics.succeeded:
                duration = pod.spec.workload.duration_seconds
                assert pod.finished_at >= pod.started_at + duration
                if pod.name in durations:
                    assert pod.finished_at == (
                        pod.started_at + durations[pod.name]
                    )


class TestDeterminism:
    def test_same_seed_same_outcome(self, small_trace_module):
        scenario = Scenario(
            trace=small_trace_module,
            scheduler="binpack",
            sgx_fraction=0.5,
            seed=3,
        )
        a = run_replay(scenario)
        b = run_replay(scenario)
        assert [
            (p.name, p.waiting_seconds, p.turnaround_seconds)
            for p in a.metrics.pods
        ] == [
            (p.name, p.waiting_seconds, p.turnaround_seconds)
            for p in b.metrics.pods
        ]


class TestEnforcementInReplay:
    def test_overallocators_killed_with_limits(self, small_trace_module):
        result = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                enforce_epc_limits=True,
                epc_allow_overcommit=False,
            )
        )
        failed = result.metrics.failed
        # The trace has 4 over-allocators; all are SGX jobs here.
        assert len(failed) == 4
        assert all(
            "limit" in (p.failure_reason or "").lower() for p in failed
        )

    def test_malicious_squatters_slow_honest_jobs(self, small_trace_module):
        base = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        squatted = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                malicious=MaliciousConfig(epc_occupancy=0.5),
            )
        )
        assert (
            squatted.metrics.mean_waiting_seconds()
            > base.metrics.mean_waiting_seconds()
        )

    def test_enforcement_kills_malicious_pods(self, small_trace_module):
        result = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                enforce_epc_limits=True,
                epc_allow_overcommit=False,
                malicious=MaliciousConfig(epc_occupancy=0.5),
            )
        )
        malicious = [
            p
            for p in result.metrics.pods
            if p.spec.labels.get("origin") == "malicious"
        ]
        assert malicious
        assert all(p.phase is PodPhase.FAILED for p in malicious)


class TestEpcSweep:
    def test_larger_epc_never_slower(self, small_trace_module):
        makespans = []
        for size in (64, 128, 256):
            result = run_replay(
                Scenario(
                    trace=small_trace_module,
                    scheduler="binpack",
                    sgx_fraction=1.0,
                    seed=1,
                    epc_total_bytes=mib(size),
                )
            )
            makespans.append(result.metrics.makespan_seconds)
        assert makespans[0] >= makespans[1] >= makespans[2]
