"""Smoke test: the whole-replay wall bench harness runs end-to-end.

The full sweep (250–2000 pods, the ``BENCH_wall.json`` baselines) is
``run_bench.py``'s job; tier-1 only proves the harness works on one
tiny configuration.
"""

from run_bench import WALL_BASELINES, run_wall


class TestWallBench:
    def test_tiny_sweep_runs(self):
        report = run_wall(sizes=(40,))
        assert report["benchmark"] == "wall"
        (row,) = report["results"]
        assert row["pods"] == 40
        assert row["periodic_wall_s"] > 0
        # 40 pods has no pre-refactor baseline: no speedup claimed.
        assert "speedup" not in row

    def test_baseline_sizes_report_speedup_fields(self):
        # Baselines exist exactly for the committed sweep sizes, so
        # every BENCH_wall.json row carries the gated metric.
        assert set(WALL_BASELINES) == {250, 1000, 2000}
        assert all(value > 0 for value in WALL_BASELINES.values())
