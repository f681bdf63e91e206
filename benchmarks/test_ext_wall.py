"""Smoke test: the whole-replay wall bench harness runs end-to-end.

The full sweep (250–2000 pods, the ``BENCH_wall.json`` baselines) is
``run_bench.py``'s job; tier-1 only proves the harness works on one
tiny configuration and that its headline invariant — the full-scan
and the indexed engine agree bit for bit on the whole signature —
holds there too.
"""

from run_bench import WALL_BASELINES, run_wall, wall_config


class TestWallBench:
    def test_tiny_sweep_runs(self):
        report = run_wall(sizes=(40,))
        assert report["benchmark"] == "wall"
        (row,) = report["results"]
        assert row["pods"] == 40
        assert row["engines_identical"] is True
        assert row["periodic_wall_s"] > 0
        assert row["indexed_wall_s"] > 0
        # 40 pods has no pre-refactor baseline: no speedup claimed.
        assert "speedup" not in row

    def test_baseline_sizes_report_speedup_fields(self):
        # Baselines exist exactly for the committed sweep sizes, so
        # every BENCH_wall.json row carries the gated metric.
        assert set(WALL_BASELINES) == {250, 1000, 2000}
        for timings in WALL_BASELINES.values():
            assert set(timings) == {"periodic", "indexed"}
            assert all(value > 0 for value in timings.values())

    def test_config_variants_differ_only_by_engine(self):
        periodic = wall_config(500)
        indexed = wall_config(500, indexed=True)
        assert not periodic.indexed_scheduling
        assert indexed.indexed_scheduling
        assert periodic == indexed.with_(indexed_scheduling=False)
