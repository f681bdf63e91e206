"""The priority subsystem's equivalence suite.

Two claims, both hypothesis-checked on random bursty traces:

* **disabled == oracle** — with ``preemption_policy="none"`` (the
  default) and all pods at the default priority, whole-replay results
  are bit-for-bit identical to a scenario that never mentions the
  policy knobs at all, on the default (pass-reusing) and the
  recomputing pass.  The policy layer costs the paper's replays
  nothing.
* **engines agree under preemption** — with real priorities and the
  ``cheapest-victims`` planner enabled, the default and the
  recomputing pass still produce identical pod lifecycles, eviction
  counts and pass outcomes: preemption composes with pass reuse.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pass_reuse_reference import recomputing, run_recomputing
from repro.api import Scenario
from repro.trace.borg import synthetic_scaled_trace
from repro.units import mib

replay_settings = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def bursty_trace(trace_seed, n_jobs):
    """A short-window trace: the queue backs up, so policies matter."""
    return synthetic_scaled_trace(
        seed=trace_seed,
        n_jobs=n_jobs,
        overallocators=max(1, n_jobs // 10),
        window_seconds=120.0,
    )


@given(
    trace_seed=st.integers(min_value=0, max_value=1_000),
    seed=st.integers(min_value=0, max_value=1_000),
    n_jobs=st.integers(min_value=10, max_value=40),
    sgx_fraction=st.sampled_from([0.5, 1.0]),
)
@replay_settings
def test_disabled_policy_is_bit_for_bit_the_oracle(
    trace_seed, seed, n_jobs, sgx_fraction
):
    trace = bursty_trace(trace_seed, n_jobs)
    plain = Scenario(
        trace=trace, sgx_fraction=sgx_fraction, seed=seed
    )
    # Knobs present but inert: a lower threshold, the explicit "none"
    # planner.  Nothing may change.
    inert = plain.with_(
        preemption_policy="none",
        preemption_priority_threshold=1,
    )
    baseline = plain.run().signature()
    assert inert.run().signature() == baseline
    with recomputing():
        assert plain.run().signature() == baseline
        assert inert.run().signature() == baseline


@given(
    trace_seed=st.integers(min_value=0, max_value=1_000),
    seed=st.integers(min_value=0, max_value=1_000),
    n_jobs=st.integers(min_value=15, max_value=40),
    policy=st.sampled_from(
        ["cheapest-victims", "lowest-priority-first"]
    ),
)
@replay_settings
def test_engines_agree_under_preemption(
    trace_seed, seed, n_jobs, policy
):
    trace = bursty_trace(trace_seed, n_jobs)
    base = Scenario(
        trace=trace,
        sgx_fraction=1.0,
        seed=seed,
        epc_total_bytes=mib(64),
        workload="priority-mix",
        workload_options={
            "high_fraction": 0.25,
            "high_priority": "latency-critical",
        },
        preemption_policy=policy,
    )
    periodic = base.run()
    recomputed = run_recomputing(base)
    assert recomputed.pod_signature() == periodic.pod_signature()
    assert recomputed.eviction_count == periodic.eviction_count
    assert recomputed.preemption_count == periodic.preemption_count
    # Both engines share the periodic pass grid, so the whole
    # signature — pass counts and the per-executed-pass wait-reason
    # aggregates included — must match outright; reused passes count
    # their deferrals again.
    assert recomputed.wait_reasons == periodic.wait_reasons
    assert recomputed.signature() == periodic.signature()


def test_preemption_actually_fires_in_the_suite_regime():
    """Guard: the hypothesis regime above exercises real evictions."""
    trace = bursty_trace(7, 40)
    result = Scenario(
        trace=trace,
        sgx_fraction=1.0,
        seed=1,
        epc_total_bytes=mib(64),
        workload="priority-mix",
        workload_options={
            "high_fraction": 0.25,
            "high_priority": "latency-critical",
        },
        preemption_policy="cheapest-victims",
    ).run()
    assert result.preemption_count > 0
    assert result.eviction_count >= result.preemption_count
    # Victims are resubmitted, so every job still completes.
    names = {pod.spec.name for pod in result.metrics.pods}
    completed = {pod.spec.name for pod in result.metrics.succeeded}
    assert completed == names
