"""Event-driven replay: bit-for-bit equivalence with the periodic oracle.

The tentpole claim of the trigger subsystem: firing scheduling passes on
cluster events (with clean wake-ups skipped) reproduces the periodic
replay exactly — same pod phases, same bindings, same timestamps, same
makespan and turnaround distribution — while executing far fewer passes.
"""

import pytest

from repro.api import Scenario
from repro.errors import EpcExhaustedError
from repro.orchestrator.api import PodPhase
from repro.sgx.migration import MigrationManager
from repro.simulation.events import EventKind
from repro.simulation.runner import run_replay
from repro.trace.borg import synthetic_scaled_trace
from repro.units import mib


@pytest.fixture(scope="module")
def small_trace():
    return synthetic_scaled_trace(seed=7, n_jobs=40, overallocators=4)


@pytest.fixture(scope="module")
def saturated_trace():
    # Burst submissions: the queue stays backed up for a long stretch,
    # exercising the fingerprint-based (state-unchanged) skip path.
    return synthetic_scaled_trace(
        seed=7, n_jobs=60, overallocators=6, window_seconds=60.0
    )


def pod_signature(result):
    return [
        (
            pod.name,
            pod.phase.value,
            pod.submitted_at,
            pod.bound_at,
            pod.started_at,
            pod.finished_at,
            pod.node_name,
        )
        for pod in result.metrics.pods
    ]


EQUIVALENCE_CONFIGS = [
    dict(sgx_fraction=0.5, seed=1),
    dict(sgx_fraction=1.0, seed=1),
    dict(
        sgx_fraction=1.0,
        seed=1,
        enforce_epc_limits=True,
        epc_allow_overcommit=False,
    ),
    dict(sgx_fraction=1.0, seed=1, rebalance_period=15.0),
    dict(sgx_fraction=1.0, seed=1, node_failures=((600.0, "sgx-worker-0"),)),
    dict(sgx_fraction=1.0, seed=2, epc_allow_overcommit=False),
    dict(
        sgx_fraction=1.0,
        seed=1,
        epc_allow_overcommit=False,
        requeue_backoff_seconds=30.0,
    ),
]


class TestEquivalence:
    @pytest.mark.parametrize(
        "kwargs", EQUIVALENCE_CONFIGS,
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bit_for_bit_with_fewer_passes(self, small_trace, kwargs):
        periodic = run_replay(
            Scenario(trace=small_trace, scheduler="binpack", **kwargs)
        )
        event = run_replay(
            Scenario(
                trace=small_trace,
                scheduler="binpack",
                event_driven=True,
                **kwargs,
            )
        )
        assert pod_signature(event) == pod_signature(periodic)
        assert (
            event.metrics.makespan_seconds
            == periodic.metrics.makespan_seconds
        )
        assert sorted(event.metrics.turnaround_times()) == sorted(
            periodic.metrics.turnaround_times()
        )
        assert event.metrics.queue_series == periodic.metrics.queue_series
        assert event.passes_executed < periodic.passes_executed
        assert event.passes_skipped > 0
        assert (
            event.passes_executed + event.passes_skipped
            == periodic.passes_executed
        )

    def test_saturated_queue_equivalence(self, saturated_trace):
        kwargs = dict(sgx_fraction=1.0, seed=1, epc_total_bytes=mib(64))
        periodic = run_replay(
            Scenario(trace=saturated_trace, scheduler="binpack", **kwargs)
        )
        event = run_replay(
            Scenario(
                trace=saturated_trace,
                scheduler="binpack",
                event_driven=True,
                **kwargs,
            )
        )
        assert pod_signature(event) == pod_signature(periodic)
        assert event.passes_executed < periodic.passes_executed
        # The backlog keeps the queue non-empty for a long stretch;
        # skips there come from the state-unchanged proof, not just
        # queue emptiness.
        assert periodic.metrics.max_waiting_seconds() > 100.0

    def test_spread_scheduler_equivalence(self, small_trace):
        kwargs = dict(scheduler="spread", sgx_fraction=0.5, seed=4)
        periodic = run_replay(Scenario(trace=small_trace, **kwargs))
        event = run_replay(
            Scenario(trace=small_trace, event_driven=True, **kwargs)
        )
        assert pod_signature(event) == pod_signature(periodic)

    def test_periodic_mode_logs_no_skips(self, small_trace):
        result = run_replay(
            Scenario(
                trace=small_trace,
                scheduler="binpack",
                sgx_fraction=0.5,
                seed=1,
            )
        )
        assert result.passes_skipped == 0
        assert result.log.of_kind(EventKind.PASS_SKIPPED) == []

    def test_event_mode_is_deterministic(self, small_trace):
        scenario = Scenario(
            trace=small_trace,
            scheduler="binpack",
            sgx_fraction=1.0,
            seed=5,
            event_driven=True,
        )
        a = run_replay(scenario)
        b = run_replay(scenario)
        assert pod_signature(a) == pod_signature(b)
        assert a.passes_executed == b.passes_executed


class TestTriggerAccounting:
    def test_events_coalesce_into_fewer_passes(self, small_trace):
        result = run_replay(
            Scenario(
                trace=small_trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                event_driven=True,
            )
        )
        trigger = result.orchestrator.trigger
        # 40 submissions + 40 completions at minimum.
        assert trigger.events_published >= 80
        assert result.passes_executed < trigger.events_published
        assert trigger.events_coalesced > 0


class TestFailedMigrationInReplay:
    def test_restore_outage_loses_no_work(
        self, monkeypatch, saturated_trace
    ):
        """Regression: a failed rebalancer migration left the replay
        holding a running-job entry and a live finish event for a pod
        that no longer existed — the finish fired and tried to complete
        a failed pod.  With the fix, the job entry is purged and the
        resubmitted spec completes on a later attempt."""
        real_restore = MigrationManager.restore
        failures = {"left": 2}

        def flaky_restore(self, driver, pid, checkpoint, key, aesm):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise EpcExhaustedError(
                    checkpoint.size_bytes // 4096, 0
                )
            return real_restore(self, driver, pid, checkpoint, key, aesm)

        monkeypatch.setattr(MigrationManager, "restore", flaky_restore)
        result = run_replay(
            Scenario(
                trace=saturated_trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                rebalance_period=15.0,
            )
        )
        migration_failures = result.log.of_kind(EventKind.MIGRATION_FAILED)
        assert migration_failures, "outage never exercised the fix"
        # Every workload name still completes (via the resubmission).
        completed = {p.name for p in result.metrics.succeeded}
        assert completed == {p.spec.name for p in result.metrics.pods}
        # The original pods of failed migrations ended FAILED, with a
        # successful twin of the same name.
        for event in migration_failures:
            twins = [
                p
                for p in result.metrics.pods
                if p.name == event.pod_name
            ]
            assert any(p.phase is PodPhase.FAILED for p in twins)
            assert any(p.phase is PodPhase.SUCCEEDED for p in twins)
