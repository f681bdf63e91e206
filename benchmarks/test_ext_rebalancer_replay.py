"""Extension bench: periodic rebalancing during the full trace replay.

Runs the all-SGX evaluation workload with the migration-based EPC
rebalancer enabled every 15 s and measures how much transiently-
over-committed paging time it claws back, at what migration cost.
"""

from conftest import run_once
from repro.api import Scenario
from repro.simulation.runner import run_replay


def paging_excess_seconds(result) -> float:
    """Runtime inflation beyond the useful duration (paging time)."""
    return sum(
        (p.finished_at - p.started_at) - p.spec.workload.duration_seconds
        for p in result.metrics.succeeded
    )


def test_ext_rebalancer_replay(benchmark, trace):
    def run():
        base = run_replay(
            Scenario(
                trace=trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        rebalanced = run_replay(
            Scenario(
                trace=trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                rebalance_period=15.0,
            )
        )
        return base, rebalanced

    base, rebalanced = run_once(benchmark, run)
    base_excess = paging_excess_seconds(base)
    rebalanced_excess = paging_excess_seconds(rebalanced)
    print("\n[Extension] periodic rebalancing during the all-SGX replay")
    print(f"  paging excess without rebalancer: {base_excess:7.0f} s")
    print(
        f"  paging excess with rebalancer:     {rebalanced_excess:7.0f} s "
        f"({rebalanced.migration_count} migrations)"
    )
    benchmark.extra_info["base_excess_s"] = base_excess
    benchmark.extra_info["rebalanced_excess_s"] = rebalanced_excess
    benchmark.extra_info["migrations"] = rebalanced.migration_count

    # Rebalancing reclaims a meaningful share of paging time without
    # hurting completion.
    assert rebalanced_excess < 0.85 * base_excess
    assert rebalanced.migration_count > 0
    assert len(rebalanced.metrics.succeeded) == len(
        base.metrics.succeeded
    )
