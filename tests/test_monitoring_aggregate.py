"""Windowed aggregate cache: unit behaviour plus scan equivalence.

Two load-bearing properties.  With a cache attached, ``execute_query``
on Listing 1's query shape returns bit-for-bit the rows a full window
scan returns, across randomised write/vacuum/query interleavings —
including the adversarial ones (out-of-order writes, clocks that move
backwards) where the cache must detect it cannot answer and fall back.
And a standalone store fed by batched ``ingest`` reports exactly what a
cache mirroring per-point database writes reports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import METRICS_WINDOW_SECONDS
from repro.errors import MonitoringError
from repro.monitoring.aggregate import WindowedAggregateCache
from repro.monitoring.influxql import execute_query, parse_query
from repro.monitoring.tsdb import Point, TimeSeriesDatabase

WINDOW = 25.0

#: Listing 1's inner query, the shape the cache accelerates.
INNER = (
    'SELECT MAX(value) AS usage FROM "sgx/epc" '
    "WHERE value <> 0 AND time >= now() - 25s "
    "GROUP BY pod_name, nodename"
)

#: The paper's full Listing 1 (outer SUM over the cached inner query).
LISTING_1 = (
    "SELECT SUM(epc) AS epc FROM "
    '(SELECT MAX(value) AS epc FROM "sgx/epc" '
    "WHERE value <> 0 AND time >= now() - 25s "
    "GROUP BY pod_name, nodename) GROUP BY nodename"
)


def full_scan(query, db, now):
    """Run *query* with the fast path disabled, restoring it after."""
    cache = db.aggregate_cache
    db.aggregate_cache = None
    try:
        return execute_query(query, db, now=now)
    finally:
        db.aggregate_cache = cache


def window_maxima(store, measurement, now):
    """``(nodename, pod_name, max)`` per live series, in scan order."""
    return [
        (row.nodename, row.pod_name, row.max_value)
        for row in store.snapshot(measurement, now)
    ]


def write(db, time, value, pod="pod-1", node="node-a"):
    tags = {}
    if pod is not None:
        tags["pod_name"] = pod
    if node is not None:
        tags["nodename"] = node
    db.write("sgx/epc", value=value, time=time, tags=tags)


class TestConstruction:
    def test_attaches_to_database(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        assert db.aggregate_cache is cache

    def test_rejects_nonpositive_window(self):
        with pytest.raises(MonitoringError):
            WindowedAggregateCache(TimeSeriesDatabase(), window_seconds=0.0)

    def test_prepopulated_database_is_rebuilt_lazily(self):
        db = TimeSeriesDatabase()
        write(db, time=1.0, value=7.0)
        write(db, time=2.0, value=3.0)
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        snapshot = cache.snapshot("sgx/epc", now=5.0)
        assert snapshot is not None
        assert [(a.pod_name, a.max_value) for a in snapshot] == [
            ("pod-1", 7.0)
        ]
        assert cache.rebuilds == 1

    def test_detach_stops_mirroring_and_answering(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=1.0, value=5.0)
        cache.detach()
        cache.detach()  # idempotent
        assert db.aggregate_cache is None
        write(db, time=2.0, value=9.0, pod="pod-2")
        assert cache.live_series("sgx/epc") == 0
        # A detached cache must never serve (stale) windows.
        assert cache.snapshot("sgx/epc", now=3.0) is None
        rows = execute_query(INNER, db, now=3.0)  # full scan, correct
        assert {r["usage"] for r in rows} == {5.0, 9.0}

    def test_raw_unsubscribe_also_detaches(self):
        """db.unsubscribe must not leave a holder serving frozen state."""
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=1.0, value=5.0)
        assert db.unsubscribe(cache)
        write(db, time=2.0, value=9.0)
        assert cache.snapshot("sgx/epc", now=3.0) is None  # declines

    def test_new_cache_replaces_and_detaches_previous(self):
        db = TimeSeriesDatabase()
        first = WindowedAggregateCache(db, window_seconds=WINDOW)
        second = WindowedAggregateCache(db, window_seconds=60.0)
        assert db.aggregate_cache is second
        assert len(db._subscribers) == 1
        write(db, time=1.0, value=5.0)
        assert first.snapshot("sgx/epc", now=2.0) is None
        assert second.live_series("sgx/epc") == 1


class TestSnapshot:
    def test_window_max_per_series(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=1.0, value=10.0, pod="a")
        write(db, time=2.0, value=4.0, pod="a")
        write(db, time=3.0, value=6.0, pod="b")
        snapshot = cache.snapshot("sgx/epc", now=10.0)
        got = {a.pod_name: a.max_value for a in snapshot}
        assert got == {"a": 10.0, "b": 6.0}

    def test_old_points_expire_from_window(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=0.0, value=100.0)
        write(db, time=20.0, value=5.0)
        (agg,) = cache.snapshot("sgx/epc", now=30.0)  # window [5, 30]
        assert agg.max_value == 5.0
        assert cache.snapshot("sgx/epc", now=50.0) == []
        assert cache.live_series("sgx/epc") == 0

    def test_zero_values_never_contribute(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=1.0, value=0.0)
        assert cache.snapshot("sgx/epc", now=2.0) == []

    def test_latest_time_is_newest_contributing_point(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=1.0, value=9.0)
        write(db, time=4.0, value=2.0)
        (agg,) = cache.snapshot("sgx/epc", now=5.0)
        assert agg.max_value == 9.0
        assert agg.latest_time == 4.0

    def test_unknown_measurement_is_empty(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        assert cache.snapshot("memory/usage", now=1.0) == []

    def test_clock_moving_backwards_falls_back(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=10.0, value=5.0)
        assert cache.snapshot("sgx/epc", now=20.0) is not None
        assert cache.snapshot("sgx/epc", now=9.0) is None
        assert cache.fallbacks == 1

    def test_out_of_order_write_triggers_rebuild(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=10.0, value=5.0)
        write(db, time=3.0, value=50.0)  # late arrival, same series
        (agg,) = cache.snapshot("sgx/epc", now=12.0)
        assert agg.max_value == 50.0
        assert cache.rebuilds == 1

    def test_drop_measurement_forgets_series(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=1.0, value=5.0)
        db.drop_measurement("sgx/epc")
        assert cache.snapshot("sgx/epc", now=2.0) == []

    def test_vacuum_trims_cache_with_store(self):
        db = TimeSeriesDatabase(retention_seconds=10.0)
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=0.0, value=100.0)
        write(db, time=19.0, value=1.0)
        db.vacuum(now=20.0)  # drops the t=0 point from the store
        (agg,) = cache.snapshot("sgx/epc", now=20.0)
        assert agg.max_value == 1.0

    def test_write_below_vacuum_floor_rebuilds_instead_of_clamping(self):
        """A point written *after* a vacuum with a time *below* the
        vacuum cutoff survives in the store, so the cache must not
        expire it through the lazily recorded floor."""
        db = TimeSeriesDatabase(retention_seconds=100.0)
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=100.0, value=3.0, pod="a", node="n")
        db.vacuum(now=2000.0)  # floor = 1900, store wiped
        write(db, time=906.0, value=7.0, pod="b", node="n")
        fast = execute_query(INNER, db, now=910.0)
        assert fast == full_scan(INNER, db, 910.0)
        assert fast == [
            {"pod_name": "b", "nodename": "n", "time": 906.0, "usage": 7.0}
        ]
        assert cache.rebuilds == 1

    def test_write_points_bulk_path_is_absorbed(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        db.write_points(
            "sgx/epc",
            [
                Point.make(1.0, 8.0, {"pod_name": "a", "nodename": "n"}),
                Point.make(2.0, 3.0, {"pod_name": "a", "nodename": "n"}),
            ],
        )
        (agg,) = cache.snapshot("sgx/epc", now=3.0)
        assert agg.max_value == 8.0

    def test_snapshot_reads_no_stored_points(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        for t in range(20):
            write(db, time=float(t), value=float(t + 1))
        before = db.scan_count
        cache.snapshot("sgx/epc", now=20.0)
        cache.snapshot("sgx/epc", now=21.0)
        assert db.scan_count == before


class TestStandaloneStore:
    def test_ingest_batches_feed_window_maxima(self):
        store = WindowedAggregateCache(None, window_seconds=WINDOW)
        store.ingest("sgx/epc", 1.0, [("n1", "a", 4.0), ("n1", "b", 0.0)])
        store.ingest("sgx/epc", 11.0, [("n1", "a", 2.0), ("n2", "c", 7.0)])
        assert window_maxima(store, "sgx/epc", now=12.0) == [
            ("n1", "a", 4.0), ("n2", "c", 7.0),
        ]
        assert window_maxima(store, "sgx/epc", now=30.0) == [
            ("n1", "a", 2.0), ("n2", "c", 7.0),
        ]
        assert store.fallbacks == 0

    def test_query_before_absorbed_data_names_both_times(self):
        store = WindowedAggregateCache(None, window_seconds=WINDOW)
        store.ingest("sgx/epc", 10.0, [("n1", "a", 4.0)])
        with pytest.raises(MonitoringError, match=r"'sgx/epc'.*t=5.0.*t=10"):
            store.snapshot("sgx/epc", now=5.0)
        with pytest.raises(MonitoringError, match="t=9.0"):
            store.node_states("sgx/epc", now=9.0)

    def test_query_before_an_earlier_expiry_raises(self):
        store = WindowedAggregateCache(None, window_seconds=WINDOW)
        store.ingest("sgx/epc", 1.0, [("n1", "a", 4.0)])
        assert store.snapshot("sgx/epc", now=20.0) is not None
        with pytest.raises(MonitoringError, match=r"t=15.0.*t=20"):
            store.snapshot("sgx/epc", now=15.0)

    def test_out_of_order_sample_raises(self):
        store = WindowedAggregateCache(None, window_seconds=WINDOW)
        store.ingest("sgx/epc", 10.0, [("n1", "a", 4.0)])
        with pytest.raises(MonitoringError, match="older"):
            store.ingest("sgx/epc", 9.0, [("n1", "a", 5.0)])

    def test_detached_store_raises_instead_of_serving(self):
        store = WindowedAggregateCache(None, window_seconds=WINDOW)
        store.ingest("sgx/epc", 1.0, [("n1", "a", 4.0)])
        store.detach()
        with pytest.raises(MonitoringError, match="detached"):
            store.snapshot("sgx/epc", now=2.0)

    def test_mirror_refuses_direct_ingest(self):
        cache = WindowedAggregateCache(TimeSeriesDatabase(), WINDOW)
        with pytest.raises(MonitoringError, match="mirrors a database"):
            cache.ingest("sgx/epc", 1.0, [("n1", "a", 4.0)])

    def test_database_ingest_writes_tagged_points(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        db.ingest("sgx/epc", 3.0, [("n1", "a", 4.0), ("n2", "b", 0.0)])
        assert db.scan("sgx/epc") == [
            Point.make(3.0, 4.0, {"nodename": "n1", "pod_name": "a"}),
            Point.make(3.0, 0.0, {"nodename": "n2", "pod_name": "b"}),
        ]
        assert window_maxima(cache, "sgx/epc", now=3.0) == [
            ("n1", "a", 4.0)
        ]


class TestFastPathRows:
    def test_rows_match_full_scan_exactly(self):
        db = TimeSeriesDatabase()
        WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=1.0, value=3.0, pod="a", node="n1")
        write(db, time=2.0, value=9.0, pod="a", node="n1")
        write(db, time=3.0, value=4.0, pod="b", node="n2")
        write(db, time=4.0, value=0.0, pod="c", node="n1")
        fast = execute_query(INNER, db, now=10.0)
        assert fast == full_scan(INNER, db, 10.0)
        assert {r["usage"] for r in fast} == {9.0, 4.0}

    def test_untagged_rows_survive_fast_path(self):
        db = TimeSeriesDatabase()
        WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=1.0, value=5.0, pod=None, node=None)
        fast = execute_query(INNER, db, now=2.0)
        assert fast == full_scan(INNER, db, 2.0)
        assert fast[0]["pod_name"] is None

    def test_mismatched_window_takes_full_scan(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=60.0)
        write(db, time=1.0, value=5.0)
        rows = execute_query(INNER, db, now=2.0)  # 25 s window != 60 s
        assert rows == full_scan(INNER, db, 2.0)
        assert cache.hits == 0

    def test_other_query_shapes_take_full_scan(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        write(db, time=1.0, value=5.0)
        execute_query('SELECT MIN(value) FROM "sgx/epc"', db, now=2.0)
        execute_query('SELECT value FROM "sgx/epc"', db, now=2.0)
        assert cache.hits == 0

    def test_full_listing_1_is_accelerated_and_identical(self):
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        for t in range(8):
            write(db, time=float(t), value=float(10 + t), pod="a", node="n1")
            write(db, time=float(t), value=float(20 + t), pod="b", node="n1")
            write(db, time=float(t), value=float(5 + t), pod="c", node="n2")
        fast = execute_query(LISTING_1, db, now=10.0)
        assert fast == full_scan(LISTING_1, db, 10.0)
        assert cache.hits == 1


# -- randomised equivalence -------------------------------------------------

_PODS = st.sampled_from([None, "pod-a", "pod-b", "pod-c"])
_NODES = st.sampled_from([None, "node-1", "node-2"])
_TIMES = st.integers(min_value=0, max_value=200).map(lambda i: i / 2.0)
_VALUES = st.integers(min_value=-3, max_value=6).map(float)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _TIMES, _VALUES, _PODS, _NODES),
        st.tuples(st.just("vacuum"), _TIMES),
        st.tuples(st.just("query"), _TIMES),
    ),
    max_size=60,
)


class TestEquivalenceProperty:
    @given(ops=_OPS, retention=st.sampled_from([None, 12.0, 50.0]))
    @settings(max_examples=200, deadline=None)
    def test_cached_rows_equal_full_scan_rows(self, ops, retention):
        """Adversarial interleavings: fast path == full scan, always."""
        db = TimeSeriesDatabase(retention_seconds=retention)
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        parsed = parse_query(INNER)
        queried = False
        for op in ops:
            if op[0] == "write":
                _, time, value, pod, node = op
                write(db, time=time, value=value, pod=pod, node=node)
            elif op[0] == "vacuum":
                if retention is not None:
                    db.vacuum(now=op[1])
            else:
                now = op[1]
                fast = execute_query(parsed, db, now=now)
                assert fast == full_scan(parsed, db, now)
                queried = True
        if queried:
            assert cache.hits + cache.fallbacks > 0

    @given(
        samples=st.lists(
            st.tuples(_TIMES, _VALUES, _PODS, _NODES), max_size=50
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_replay_never_falls_back(self, samples):
        """The simulation's access pattern stays on the O(1) path."""
        db = TimeSeriesDatabase()
        cache = WindowedAggregateCache(db, window_seconds=WINDOW)
        parsed = parse_query(INNER)
        for time, value, pod, node in sorted(samples, key=lambda s: s[0]):
            write(db, time=time, value=value, pod=pod, node=node)
            now = time  # queries at the write frontier, as replays do
            assert execute_query(parsed, db, now=now) == full_scan(
                parsed, db, now
            )
        assert cache.fallbacks == 0
        assert cache.rebuilds == 0

    @given(ops=_OPS)
    @settings(max_examples=100, deadline=None)
    def test_full_listing_1_equivalence(self, ops):
        """The nested paper query is identical through the fast path."""
        db = TimeSeriesDatabase()
        WindowedAggregateCache(db, window_seconds=WINDOW)
        parsed = parse_query(LISTING_1)
        for op in ops:
            if op[0] == "write":
                _, time, value, pod, node = op
                write(db, time=time, value=value, pod=pod, node=node)
            elif op[0] == "query":
                now = op[1]
                assert execute_query(parsed, db, now=now) == full_scan(
                    parsed, db, now
                )


_MEASUREMENTS = st.sampled_from(["sgx/epc", "memory/usage"])
#: Few series and coarse steps, so samples of one series often straddle
#: the window edge between queries (where ingest trims).
_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["node-1", "node-2"]),
        st.sampled_from(["pod-a", "pod-b"]),
        st.integers(min_value=-1, max_value=6).map(float),
    ),
    max_size=4,
)
_STEPS = st.integers(min_value=0, max_value=8).map(lambda i: i * 2.5)
#: Queries may look up to 5 s back.
_OFFSETS = st.integers(min_value=-10, max_value=60).map(lambda i: i / 2.0)
_INGEST_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), _STEPS, _MEASUREMENTS, _ROWS),
        st.tuples(st.just("snapshot"), _OFFSETS, _MEASUREMENTS),
        st.tuples(st.just("node_states"), _OFFSETS, _MEASUREMENTS),
    ),
    max_size=60,
)


def node_table(cache, measurement):
    """The measurement's horizon and every node's (version, horizon)."""
    state = cache._measurements.get(measurement)
    if state is None:
        return None
    return state.horizon, {
        name: (node.version, node.horizon)
        for name, node in state.nodes.items()
    }


def query(cache, kind, measurement, now):
    """A query's answer, with node states read as their maxima."""
    answer = getattr(cache, kind)(measurement, now)
    if kind == "node_states" and answer is not None:
        return {
            name: (node.version, node.maxima())
            for name, node in answer.items()
        }
    return answer


class TestBatchedIngestEquivalence:
    def test_trimming_keeps_the_head_that_decides_version_bumps(self):
        """An expired window max still masks smaller samples until a
        query expires it; trimming must not bump the version earlier
        than per-point absorption would."""
        store = WindowedAggregateCache(None, window_seconds=WINDOW)
        mirror = WindowedAggregateCache(TimeSeriesDatabase(), WINDOW)
        for time, value in ((0.0, 6.0), (20.0, 2.0), (30.0, 3.0),
                            (40.0, 4.0)):
            store.ingest("sgx/epc", time, [("n", "p", value)])
            write(mirror.db, time=time, value=value, pod="p", node="n")
            assert store.content_version == mirror.content_version
        assert store.snapshot("sgx/epc", 40.0) == mirror.snapshot(
            "sgx/epc", 40.0
        )

    @given(ops=_INGEST_OPS)
    @settings(max_examples=300, deadline=None)
    def test_batched_ingest_equals_per_point_absorption(self, ops):
        """Collector batches into a standalone store == one database
        write per sample mirrored by ``on_write``, at every step:
        snapshot rows and order, per-node maxima, the content version,
        every node's version and horizon, the measurement horizons."""
        store = WindowedAggregateCache(None, window_seconds=WINDOW)
        db = TimeSeriesDatabase()
        mirror = WindowedAggregateCache(db, window_seconds=WINDOW)
        clock = 0.0
        for op in ops:
            kind, offset, measurement = op[:3]
            if kind == "ingest":
                clock += offset
                store.ingest(measurement, clock, op[3])
                for node, pod, value in op[3]:
                    db.write(
                        measurement, value=value, time=clock,
                        tags={"nodename": node, "pod_name": pod},
                    )
            else:
                now = clock + offset
                expected = query(mirror, kind, measurement, now)
                if expected is None:
                    # The mirror falls back to a scan; the store, with
                    # nothing to scan, must refuse loudly instead.
                    with pytest.raises(MonitoringError):
                        getattr(store, kind)(measurement, now)
                else:
                    assert query(store, kind, measurement, now) == expected
            assert store.content_version == mirror.content_version
            for name in ("sgx/epc", "memory/usage"):
                assert node_table(store, name) == node_table(mirror, name)
                assert store.live_series(name) == mirror.live_series(name)


class TestWindowMatchesSchedulerConstants:
    def test_default_window_matches_listing_1(self):
        assert METRICS_WINDOW_SECONDS == WINDOW
