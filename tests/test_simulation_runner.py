"""Trace replay: end-to-end behaviour on a small trace."""

import pytest

from repro.api import Scenario
from repro.errors import SimulationError
from repro.orchestrator.api import PodPhase
from repro.simulation.events import EventKind
from repro.simulation.runner import make_scheduler, run_replay
from repro.units import mib
from repro.workload.malicious import MaliciousConfig


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


class TestEventLogInvariants:
    def test_every_pod_flows_submit_bind_start_complete(self, small_result):
        for pod in small_result.metrics.succeeded:
            kinds = [e.kind for e in small_result.log.for_pod(pod.name)]
            assert kinds.index(EventKind.SUBMITTED) < kinds.index(
                EventKind.BOUND
            )
            assert kinds.index(EventKind.BOUND) < kinds.index(
                EventKind.STARTED
            )
            assert kinds.index(EventKind.STARTED) < kinds.index(
                EventKind.COMPLETED
            )

    def test_log_times_non_decreasing(self, small_result):
        times = [e.time for e in small_result.log]
        assert times == sorted(times)

    def test_counts_tally(self, small_result):
        counts = small_result.log.counts()
        assert counts[EventKind.SUBMITTED] == 40
        assert counts[EventKind.COMPLETED] == 40


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
        durations = {
            f"std-job-{j.job_id}": j.duration for j in small_trace_module
        }
        for pod in small_result.metrics.succeeded:
            if pod.name in durations and pod.started_at is not None:
                runtime = pod.finished_at - pod.started_at
                assert runtime == pytest.approx(
                    durations[pod.name], rel=1e-6
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


class TestRebalancerInReplay:
    def test_rebalancer_reduces_paging_excess(self, small_trace_module):
        def excess(result):
            return sum(
                (p.finished_at - p.started_at)
                - p.spec.workload.duration_seconds
                for p in result.metrics.succeeded
            )

        base = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        rebalanced = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                rebalance_period=15.0,
            )
        )
        # Over-allocators cause transient over-commit in both runs; the
        # rebalancer may only ever reduce the resulting paging time.
        assert excess(rebalanced) <= excess(base) + 1e-6
        assert base.migration_count == 0

    def test_rebalancer_disabled_by_default(self, small_trace_module):
        result = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        assert result.migration_count == 0


class TestFailureInjection:
    def test_sgx_node_crash_mid_replay(self, small_trace_module):
        """Crashing one SGX node mid-run loses no work permanently:
        every job name eventually completes on the survivors."""
        result = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                node_failures=((600.0, "sgx-worker-0"),),
            )
        )
        metrics = result.metrics
        completed_names = {p.name for p in metrics.succeeded}
        all_names = {p.spec.name for p in metrics.pods}
        assert completed_names == all_names  # replacements finished
        # Nothing ran on the dead node after the crash.
        for pod in metrics.succeeded:
            if pod.node_name == "sgx-worker-0":
                assert pod.finished_at <= 600.0 + 1e-6
        # Lost pods are recorded as failed alongside their replacements.
        lost = [
            p
            for p in metrics.failed
            if "lost" in (p.failure_reason or "")
        ]
        assert all(p.node_name == "sgx-worker-0" for p in lost)

    def test_crash_of_idle_standard_node_is_harmless(
        self, small_trace_module
    ):
        result = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                node_failures=((600.0, "worker-0"),),
            )
        )
        assert len(result.metrics.succeeded) == 40

    def test_makespan_grows_under_failure(self, small_trace_module):
        healthy = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        degraded = run_replay(
            Scenario(
                trace=small_trace_module,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                node_failures=((300.0, "sgx-worker-0"),),
            )
        )
        # Losing half the EPC capacity cannot speed the batch up.
        assert (
            degraded.metrics.makespan_seconds
            >= healthy.metrics.makespan_seconds - 1e-6
        )
