"""Property-based tests: whole-replay invariants on random traces."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.orchestrator.api import PodPhase
from repro.simulation.engine import SimulationEngine
from repro.simulation.runner import run_replay
from repro.trace.borg import BorgTraceGenerator

replay_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_jobs=st.integers(min_value=1, max_value=15),
    sgx_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    scheduler=st.sampled_from(["binpack", "spread"]),
)
@replay_settings
def test_replay_invariants(seed, n_jobs, sgx_fraction, scheduler):
    trace = BorgTraceGenerator(seed=seed).scaled_trace(
        n_jobs=n_jobs, overallocators=0, window_seconds=600.0
    )
    result = run_replay(
        Scenario(
            trace=trace,
            scheduler=scheduler,
            sgx_fraction=sgx_fraction,
            seed=seed,
        )
    )
    durations = {job.job_id: job.duration for job in trace}
    for pod in result.metrics.pods:
        # Everything terminates.
        assert pod.phase.is_terminal
        if pod.phase is PodPhase.SUCCEEDED:
            # Causality: submit <= bind <= start <= finish.
            assert pod.submitted_at <= pod.bound_at <= pod.started_at
            assert pod.started_at <= pod.finished_at
            # Turnaround is at least the useful duration.
            job_id = int(pod.spec.labels["job_id"])
            assert (
                pod.turnaround_seconds >= durations[job_id] - 1e-6
            )
    # The node books are balanced at the end: nothing is still admitted.
    for kubelet in result.orchestrator.kubelets.values():
        assert kubelet.pod_count == 0
        assert kubelet.node.used_epc_pages() == 0


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0), max_size=50
    )
)
@settings(max_examples=100)
def test_engine_clock_is_monotonic(delays):
    engine = SimulationEngine()
    observed = []
    for delay in delays:
        engine.schedule_in(delay, lambda: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
