"""Extension bench: incremental cluster-state cache vs full window scan.

Times the per-pass snapshot (the two Listing-1 queries behind
``ClusterStateService.build_views``) at growing cluster sizes, read
from the window-max store's node states or by full scan, and asserts
the store actually removes the O(window points) rescans.
``run_bench.py`` is the standalone runner that records the same
comparison to ``BENCH_state_cache.json``.
"""

from __future__ import annotations

import pytest

from run_bench import NOW, build_state, measured_usage, time_snapshot


@pytest.mark.parametrize("n_pods", [250, 1000])
@pytest.mark.parametrize("mode", ["full-scan", "cached"])
def test_snapshot_latency(benchmark, n_pods, mode):
    db, service = build_state(n_pods, use_cache=(mode == "cached"))
    result = benchmark(measured_usage, service, NOW)
    benchmark.extra_info["pods"] = n_pods
    benchmark.extra_info["mode"] = mode
    memory, _ = result
    series = sum(len(pods) for pods in memory.values())
    benchmark.extra_info["series"] = series
    assert series == n_pods  # every pod has in-window samples
    if mode == "cached":
        assert db.scan_count == 0  # zero stored-point reads per pass


def test_cached_pass_is_materially_faster():
    """The acceptance floor, with margin kept conservative for CI noise
    (run_bench.py records the real speedup, typically well above 5x)."""
    _, full_service = build_state(1000, use_cache=False)
    _, cached_service = build_state(1000, use_cache=True)
    full_s = time_snapshot(full_service, repeats=5)
    cached_s = time_snapshot(cached_service, repeats=5)
    assert full_s / cached_s > 2.0


def test_cached_and_full_snapshots_agree_at_scale():
    _, full_service = build_state(500, use_cache=False)
    _, cached_service = build_state(500, use_cache=True)
    assert measured_usage(cached_service, NOW) == measured_usage(
        full_service, NOW
    )
