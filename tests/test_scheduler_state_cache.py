"""Cluster-state cache through the scheduler stack.

Covers the acceptance properties of the incremental state cache:
cached ``build_views`` equals the full-scan path, the default
orchestrator keeps no raw series and serves every pass from the
window-max store, replays are identical with and without the cache,
the store's memory stays bounded by the window, malformed monitoring
rows are skipped visibly, and ``load_after`` matches ``load`` without
allocating hypothetical views.
"""

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.cluster.resources import ResourceVector
from repro.cluster.topology import paper_cluster
from repro.constants import METRICS_WINDOW_SECONDS
from repro.errors import SchedulingError
from repro.monitoring.aggregate import WindowedAggregateCache
from repro.monitoring.heapster import MEASUREMENT_MEMORY
from repro.monitoring.probe import MEASUREMENT_EPC
from repro.monitoring.tsdb import TimeSeriesDatabase
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.scheduler.base import ClusterStateService, NodeView
from repro.scheduler.binpack import BinpackScheduler
from repro.simulation.runner import run_replay
from repro.units import gib, mib


#: The replay engines whose results must not depend on the state cache.
ENGINE_MODES = pytest.mark.parametrize(
    "mode",
    [{}, {"event_driven": True}, {"indexed_scheduling": True},
     {"cells": 2}],
    ids=["periodic", "event_driven", "indexed", "cells2"],
)


def raw_series(**kwargs):
    """An orchestrator on the paper's TSDB -> InfluxQL path."""
    return Orchestrator(
        paper_cluster(),
        db=TimeSeriesDatabase(retention_seconds=3600.0),
        **kwargs,
    )


def drive(orchestrator, n_pods=6, until=30.0):
    """Submit a pod mix, collect metrics and schedule a few rounds."""
    scheduler = BinpackScheduler()
    for index in range(n_pods):
        if index % 2 == 0:
            spec = make_pod_spec(
                f"sgx-{index}",
                duration_seconds=300.0,
                declared_epc_bytes=mib(8),
            )
        else:
            spec = make_pod_spec(
                f"std-{index}",
                duration_seconds=300.0,
                declared_memory_bytes=gib(1),
            )
        orchestrator.submit(spec, now=0.0)
    now = 0.0
    while now < until:
        orchestrator.collect_metrics(now)
        orchestrator.scheduling_pass(scheduler, now=now)
        now += 5.0
    return now


class TestBuildViewsEquivalence:
    def test_cached_views_equal_full_scan_views(self):
        orchestrator = raw_series()
        now = drive(orchestrator)
        service = orchestrator.state_service
        cached = service.build_views(now)
        # Disable both the service-level snapshot path and the InfluxQL
        # fast path, forcing the original full window scan.
        service.cache = None
        orchestrator.db.aggregate_cache = None
        full = service.build_views(now)
        assert cached == full
        assert any(view.used != ResourceVector.zero() for view in cached)

    def test_window_store_views_equal_raw_series_full_scan(self):
        """The default sink keeps no raw series, yet its views equal a
        full Listing 1 scan over the same samples stored in a TSDB."""
        default, raw = Orchestrator(paper_cluster()), raw_series()
        now = drive(default)
        assert drive(raw) == now
        raw.state_service.cache = None
        raw.db.aggregate_cache = None
        stored = default.state_service.build_views(now)
        assert stored == raw.state_service.build_views(now)
        assert any(view.used != ResourceVector.zero() for view in stored)

    def test_cache_disabled_orchestrator_has_no_cache(self):
        orchestrator = Orchestrator(paper_cluster(), use_state_cache=False)
        assert orchestrator.aggregate_cache is None
        assert orchestrator.state_service.cache is None
        assert orchestrator.db.aggregate_cache is None

    def test_service_without_a_monitoring_source_is_rejected(self):
        with pytest.raises(SchedulingError, match="monitoring source"):
            ClusterStateService([], None, window_seconds=25.0)
        store = WindowedAggregateCache(None, window_seconds=25.0)
        with pytest.raises(SchedulingError, match="monitoring source"):
            ClusterStateService(
                [], None, window_seconds=25.0, cache=store,
                allow_query_cache=False,
            )

    def test_mismatched_cache_window_is_rejected(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=300.0)
        with pytest.raises(SchedulingError, match="window"):
            ClusterStateService([], db, window_seconds=25.0, cache=cache)

    def test_shared_db_reuses_one_cache(self):
        db = TimeSeriesDatabase(retention_seconds=3600.0)
        first = Orchestrator(paper_cluster(), db=db)
        second = Orchestrator(paper_cluster(), db=db)
        assert second.aggregate_cache is first.aggregate_cache
        assert len(db._subscribers) == 1

    def test_shared_db_window_mismatch_detaches_older_cache(self):
        db = TimeSeriesDatabase(retention_seconds=3600.0)
        first = Orchestrator(paper_cluster(), db=db)
        second = Orchestrator(
            paper_cluster(), db=db, metrics_window_seconds=60.0
        )
        assert second.aggregate_cache is not first.aggregate_cache
        assert len(db._subscribers) == 1  # old cache detached, not stacked
        # The displaced orchestrator stays correct via the full scan.
        drive(first, until=15.0)
        service = first.state_service
        cached_path = service.build_views(15.0)
        service.cache = None
        assert cached_path == service.build_views(15.0)

    @ENGINE_MODES
    def test_signature_identical_with_and_without_cache(self, mode):
        """Window-max store (default) vs TSDB + full InfluxQL scans."""
        signatures = [
            Scenario(
                trace="borg-synth:seed=7,jobs=120,overallocators=12",
                sgx_fraction=0.5,
                seed=3,
                use_state_cache=use_cache,
                **mode,
            ).run().signature()
            for use_cache in (True, False)
        ]
        assert signatures[0] == signatures[1]

    @ENGINE_MODES
    def test_contended_replay_identical_with_and_without_cache(self, mode):
        """A standing EPC backlog, so passes really read the window.

        Event-driven replays skip a pass only when the store proves the
        cluster state unchanged; without the store nothing is proven
        and those passes run, repeating the previous outcome.  So there
        the executed/skipped split and the deferral tallies those extra
        passes add may differ — pods, makespan, the queue series and
        the other counters must not.
        """
        cached, uncached = (
            Scenario(
                trace="borg-synth:seed=42,jobs=60,window=5m",
                sgx_fraction=0.9,
                epc_total_bytes=mib(64),
                standard_workers=1,
                sgx_workers=1,
                seed=1,
                use_state_cache=use_cache,
                **mode,
            ).run()
            for use_cache in (True, False)
        )
        if not mode.get("event_driven"):
            assert cached.signature() == uncached.signature()
            return
        assert cached.passes_executed < uncached.passes_executed

        def outcome(result):
            return (
                result.pod_signature(),
                result.metrics.makespan_seconds,
                tuple(result.metrics.queue_series),
                result.passes_executed + result.passes_skipped,
                result.migration_count,
                result.preemption_count,
                result.eviction_count,
                result.cell_spillovers,
            )

        assert outcome(cached) == outcome(uncached)

    def test_replay_identical_with_and_without_cache(self, small_trace):
        """End to end: the cache changes latency, never behaviour."""
        results = {}
        for use_cache in (True, False):
            outcome = run_replay(
                Scenario(
                    trace=small_trace,
                    scheduler="binpack",
                    sgx_fraction=0.5,
                    seed=11,
                    use_state_cache=use_cache,
                )
            )
            results[use_cache] = (
                outcome.metrics.makespan_seconds,
                sorted(
                    (pod.name, pod.phase.value, pod.node_name)
                    for pod in outcome.orchestrator.all_pods
                ),
                len(outcome.log),
            )
        assert results[True] == results[False]


class TestZeroScanRegression:
    def test_scheduling_pass_issues_no_window_scans(self):
        """The default orchestrator has no TSDB to scan at all: every
        pass is served by the window-max store, never a fallback."""
        orchestrator = Orchestrator(paper_cluster())
        assert orchestrator.db is None
        assert orchestrator.state_service.db is None
        drive(orchestrator, until=20.0)
        orchestrator.submit(
            make_pod_spec(
                "late", duration_seconds=60.0, declared_epc_bytes=mib(4)
            ),
            now=20.0,
        )
        orchestrator.collect_metrics(20.0)
        orchestrator.scheduling_pass(BinpackScheduler(), now=20.0)
        store = orchestrator.aggregate_cache
        assert store.hits > 0
        assert store.fallbacks == 0
        assert store.rebuilds == 0

    def test_raw_series_pass_issues_no_window_scans(self):
        orchestrator = raw_series()
        drive(orchestrator, until=20.0)
        scheduler = BinpackScheduler()
        orchestrator.submit(
            make_pod_spec(
                "late", duration_seconds=60.0, declared_epc_bytes=mib(4)
            ),
            now=20.0,
        )
        orchestrator.collect_metrics(20.0)
        before = orchestrator.db.scan_count
        orchestrator.scheduling_pass(scheduler, now=20.0)
        assert orchestrator.db.scan_count == before

    def test_full_scan_path_does_scan(self):
        orchestrator = Orchestrator(paper_cluster(), use_state_cache=False)
        drive(orchestrator, until=20.0)
        before = orchestrator.db.scan_count
        orchestrator.state_service.build_views(20.0)
        assert orchestrator.db.scan_count > before

    def test_disabled_cache_really_scans_on_a_shared_db(self):
        """use_state_cache=False must bypass the InfluxQL fast path even
        when another orchestrator attached a cache to the shared db."""
        db = TimeSeriesDatabase(retention_seconds=3600.0)
        cached = Orchestrator(paper_cluster(), db=db)
        uncached = Orchestrator(paper_cluster(), db=db, use_state_cache=False)
        drive(cached, until=10.0)
        hits_before = cached.aggregate_cache.hits
        scans_before = db.scan_count
        uncached.state_service.build_views(10.0)
        assert db.scan_count > scans_before
        assert cached.aggregate_cache.hits == hits_before


class TestBoundedMemory:
    def test_store_retains_at_most_one_window_per_series(self, monkeypatch):
        """Long runs need bounded memory: the default sink keeps no
        O(retention) history, only what the 25 s window can still use.

        Checked after every scheduling pass of a replay, including the
        passes that return early on an empty queue (they query
        nothing, so only trimming on ingest bounds the store there).
        The max deques index those samples plus at most one expired
        head each, which decides whether a later sample raises the max.
        """
        scenario = Scenario(
            trace="borg-synth:seed=7,jobs=120,overallocators=12",
            sgx_fraction=0.5,
            seed=3,
        )
        bound = METRICS_WINDOW_SECONDS / scenario.metrics_period + 1
        checked = []
        original = Orchestrator.scheduling_pass

        def checked_pass(orchestrator, *args, **kwargs):
            result = original(orchestrator, *args, **kwargs)
            store = orchestrator.aggregate_cache
            assert orchestrator.db is None
            live = retained = 0
            for state in store._measurements.values():
                for series in state.series.values():
                    assert len(series.times) <= bound
                    assert len(series.maxdeque) <= len(series.times) + 1
                    live += 1
                    retained += len(series.times)
            assert retained <= live * bound
            checked.append(live)
            return result

        monkeypatch.setattr(Orchestrator, "scheduling_pass", checked_pass)
        scenario.run()
        assert len(checked) > 100 and max(checked) > 0


class TestMalformedRows:
    def test_untagged_rows_are_skipped_and_counted(self, caplog):
        db = TimeSeriesDatabase()
        service = ClusterStateService([], db, window_seconds=25.0)
        db.write(MEASUREMENT_MEMORY, value=100.0, time=1.0, tags={})
        db.write(
            MEASUREMENT_MEMORY,
            value=200.0,
            time=1.0,
            tags={"pod_name": "p"},  # nodename missing
        )
        db.write(
            MEASUREMENT_EPC,
            value=50.0,
            time=1.0,
            tags={"nodename": "n"},  # pod_name missing
        )
        with caplog.at_level(logging.WARNING, logger="repro.scheduler.base"):
            measured = service._measured_usage(now=2.0)
        assert measured == {}
        assert service.malformed_rows_skipped == 3
        assert "missing nodename/pod_name" in caplog.text

    def test_well_tagged_rows_unaffected(self):
        db = TimeSeriesDatabase()
        service = ClusterStateService([], db, window_seconds=25.0)
        db.write(
            MEASUREMENT_MEMORY,
            value=100.0,
            time=1.0,
            tags={"pod_name": "p", "nodename": "n"},
        )
        measured = service._measured_usage(now=2.0)
        assert measured == {"n": {"p": (100, 0)}}
        assert service.malformed_rows_skipped == 0


_DIMS = st.integers(min_value=0, max_value=5000)


class TestLoadAfter:
    @given(
        cap=st.tuples(_DIMS, _DIMS, _DIMS),
        used=st.tuples(_DIMS, _DIMS, _DIMS),
        req=st.tuples(_DIMS, _DIMS, _DIMS),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_load_of_hypothetical_view(self, cap, used, req):
        view = NodeView(
            name="n",
            sgx_capable=cap[2] > 0,
            capacity=ResourceVector(*cap),
            used=ResourceVector(*used),
        )
        requests = ResourceVector(*req)
        hypothetical = NodeView(
            name="n",
            sgx_capable=view.sgx_capable,
            capacity=view.capacity,
            used=view.used + requests,
        )
        assert view.load_after(requests) == pytest.approx(hypothetical.load)

    def test_dimension_node_lacks_is_ignored(self):
        view = NodeView(
            name="std",
            sgx_capable=False,
            capacity=ResourceVector(cpu_millicores=1000, memory_bytes=1000),
            used=ResourceVector(cpu_millicores=500),
        )
        # EPC demand on a node with no EPC: inf ratio is ignored by
        # load(); load_after must do the same.
        assert view.load_after(ResourceVector(epc_pages=10)) == 0.5
