"""Smoke test: the preemption bench harness imports and runs.

The full sweep (1000–2000 pods) is ``run_bench.py``'s job; tier-1 only
proves the harness works end-to-end on one tiny configuration and that
its headline invariants — a real waiting-time reduction for the high
tier, evictions actually executed — hold there too.
"""

from run_bench import preemption_scenario, run_preemption


class TestPreemptionBench:
    def test_tiny_sweep_runs(self):
        report = run_preemption(sizes=(120,))
        assert report["benchmark"] == "preemption"
        assert report["policy"] == "cheapest-victims"
        (row,) = report["results"]
        assert row["pods"] == 120
        assert row["preemptions"] > 0
        assert row["evictions"] >= row["preemptions"]
        assert row["preempt_high_p50_s"] < row["baseline_high_p50_s"]
        assert row["p50_reduction"] > 1.0
        # A couple of oversized enclaves are rejected outright at the
        # sweep's 64 MiB PRM; everything schedulable completes.
        assert row["completed"] >= 120 - 120 // 10

    def test_scenario_scales_cluster_with_load(self):
        small = preemption_scenario(500, "none")
        large = preemption_scenario(2000, "none")
        assert small.preemption_policy == "none"
        assert large.sgx_workers > small.sgx_workers
        assert large.workload == "priority-mix"
