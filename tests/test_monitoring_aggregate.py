"""Window-max store: unit behaviour plus equivalence with Listing 1.

The store keeps Listing 1's per-pod 25 s window maximum, fed the
series that start, change and end at each collection.  The tests
write per-tick collections (every sample of one collection) and
``tests/monitoring_reference.py``'s :class:`ByChange` reports their
differences.  The unit tests pin the window, expiry, the change log
and the reports and queries it refuses.  The property tests compare
every answer with a full Listing 1 scan (``tests/influxql.py``) over a
database that received every sample; they also check that the change
log names every series whose row changed and that every maximum that
can expire has a time-index entry at or before it.  The last property
compares the store with the per-tick store it replaced
(:class:`TickStore`), maxima and change logs alike.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from influxql import execute_query, parse_query
from monitoring_reference import ByChange, TickStore
from repro.constants import METRICS_WINDOW_SECONDS
from repro.errors import MonitoringError
from repro.monitoring.aggregate import WindowedAggregateCache
from repro.monitoring.tsdb import Point, TimeSeriesDatabase

WINDOW = 25.0

_INF = float("inf")

#: Listing 1's inner query, the rows the store keeps.
INNER = (
    'SELECT MAX(value) AS usage FROM "{measurement}" '
    "WHERE value <> 0 AND time >= now() - 25s "
    "GROUP BY pod_name, nodename"
)

#: The paper's full Listing 1 (outer SUM over the inner query).
LISTING_1 = (
    "SELECT SUM(epc) AS epc FROM "
    '(SELECT MAX(value) AS epc FROM "sgx/epc" '
    "WHERE value <> 0 AND time >= now() - 25s "
    "GROUP BY pod_name, nodename) GROUP BY nodename"
)


def window_maxima(store, measurement, now):
    """``(nodename, pod_name, max)`` per live series, sorted."""
    return sorted(
        (nodename, pod_name, value)
        for nodename, node in store.node_states(measurement, now).items()
        for pod_name, value in node.maxima().items()
    )


def by_change():
    """A store and the feed that reports per-tick collections to it."""
    store = WindowedAggregateCache()
    return store, ByChange(store)


def named(store):
    """The ``(nodename, pod_name)`` series *store*'s change log names,
    both measurements' alike; empties the log."""
    filed = {
        (nodename, pod_name)
        for nodename, pods in store.changes.items()
        for pod_name in pods
    }
    store.changes.clear()
    return filed


def indexed(store, measurement="sgx/epc"):
    """Per ``(nodename, pod_name)``: the earliest time-index entry."""
    earliest = {}
    for time, _, nodename, pod_name in store._measurements[
        measurement
    ].index:
        key = (nodename, pod_name)
        earliest[key] = min(time, earliest.get(key, time))
    return earliest


def listing_1_rows(db, measurement, now):
    """The same rows from a full Listing 1 scan of *db*, sorted."""
    query = parse_query(INNER.format(measurement=measurement))
    return sorted(
        (row["nodename"], row["pod_name"], row["usage"])
        for row in execute_query(query, db, now)
    )


class TestSnapshot:
    """The store's rows at one query time."""

    def test_window_max_per_series(self):
        store, feed = by_change()
        feed.collect("sgx/epc", 1.0, [("n", "a", 10.0)])
        feed.collect("sgx/epc", 2.0, [("n", "a", 4.0)])
        feed.collect("sgx/epc", 3.0, [("n", "b", 6.0)])
        assert window_maxima(store, "sgx/epc", now=10.0) == [
            ("n", "a", 10.0), ("n", "b", 6.0),
        ]

    def test_old_points_expire_from_window(self):
        store, feed = by_change()
        feed.collect("sgx/epc", 0.0, [("n", "p", 100.0)])
        feed.collect("sgx/epc", 20.0, [("n", "p", 5.0)])
        # Window [5, 30]: the t=0 maximum is gone.
        assert window_maxima(store, "sgx/epc", now=30.0) == [
            ("n", "p", 5.0)
        ]
        assert window_maxima(store, "sgx/epc", now=50.0) == []
        assert store.live_series("sgx/epc") == 0

    def test_zero_values_never_contribute(self):
        store, feed = by_change()
        feed.collect("sgx/epc", 1.0, [("n", "p", 0.0)])
        store.report("sgx/epc", 1.0, [("n", "q", 0.0)])
        assert store.node_states("sgx/epc", now=2.0) == {}
        assert store.changes == {}

    def test_unknown_measurement_is_empty(self):
        store = WindowedAggregateCache()
        assert store.node_states("memory/usage", now=1.0) == {}


class TestStandaloneStore:
    def test_ingest_batches_feed_window_maxima(self):
        store, feed = by_change()
        feed.collect("sgx/epc", 1.0, [("n1", "a", 4.0), ("n1", "b", 0.0)])
        feed.collect("sgx/epc", 11.0, [("n1", "a", 2.0), ("n2", "c", 7.0)])
        assert window_maxima(store, "sgx/epc", now=12.0) == [
            ("n1", "a", 4.0), ("n2", "c", 7.0),
        ]
        assert window_maxima(store, "sgx/epc", now=30.0) == [
            ("n1", "a", 2.0), ("n2", "c", 7.0),
        ]

    def test_query_before_absorbed_data_names_both_times(self):
        store, feed = by_change()
        feed.collect("sgx/epc", 10.0, [("n1", "a", 4.0)])
        with pytest.raises(MonitoringError, match=r"'sgx/epc'.*t=5.0.*t=10"):
            store.node_states("sgx/epc", now=5.0)
        with pytest.raises(MonitoringError, match="t=9.0"):
            store.node_states("sgx/epc", now=9.0)

    def test_query_before_an_earlier_expiry_raises(self):
        store, feed = by_change()
        feed.collect("sgx/epc", 1.0, [("n1", "a", 4.0)])
        assert store.node_states("sgx/epc", now=20.0) is not None
        with pytest.raises(MonitoringError, match=r"t=15.0.*t=20"):
            store.node_states("sgx/epc", now=15.0)

    def test_out_of_order_sample_raises(self):
        store, feed = by_change()
        feed.collect("sgx/epc", 10.0, [("n1", "a", 4.0)])
        with pytest.raises(MonitoringError, match="older"):
            feed.collect("sgx/epc", 9.0, [("n1", "a", 5.0)])
        # The last collection is still t=10: equal times add to it.
        feed.collect("sgx/epc", 10.0, [("n1", "a", 1.0)])
        feed.collect("sgx/epc", 20.0, [("n1", "a", 1.0)])
        # Newer than the window maximum's t=10, older than the newest.
        with pytest.raises(MonitoringError, match="t=20"):
            feed.collect("sgx/epc", 15.0, [("n1", "a", 5.0)])
        assert window_maxima(store, "sgx/epc", now=20.0) == [
            ("n1", "a", 4.0)
        ]

    def test_database_ingest_writes_tagged_points(self):
        """The reference database takes the per-tick batches, as points
        tagged the way Listing 1 groups them."""
        db, (store, feed) = TimeSeriesDatabase(), by_change()
        rows = [("n1", "a", 4.0), ("n2", "b", 0.0)]
        db.ingest("sgx/epc", 3.0, rows)
        feed.collect("sgx/epc", 3.0, rows)
        assert db.scan("sgx/epc") == [
            Point.make(3.0, 4.0, {"nodename": "n1", "pod_name": "a"}),
            Point.make(3.0, 0.0, {"nodename": "n2", "pod_name": "b"}),
        ]
        assert listing_1_rows(db, "sgx/epc", 3.0) == window_maxima(
            store, "sgx/epc", now=3.0
        )


class TestReport:
    """What a collection hands the store, and what it refuses."""

    def test_a_collection_without_changes_hands_over_no_row(self):
        store, feed = by_change()
        assert feed.collect("sgx/epc", 0.0, [("n", "a", 4.0)]) == [
            ("n", "a", 4.0)
        ]
        assert store.changes == {"n": {"a": None}}
        store.changes.clear()
        for now in (10.0, 20.0, 30.0, 40.0):
            assert feed.collect("sgx/epc", now, [("n", "a", 4.0)]) == []
        # Still live: sampled at every collection, never expired, and
        # its head, the newest entry, is not indexed.
        assert window_maxima(store, "sgx/epc", now=45.0) == [
            ("n", "a", 4.0)
        ]
        assert store.changes == {}
        assert indexed(store) == {}

    def test_a_report_earlier_than_the_last_collection_raises(self):
        store = WindowedAggregateCache()
        store.report("sgx/epc", 10.0, [])
        with pytest.raises(MonitoringError, match=r"t=9.5.*t=10"):
            store.report("sgx/epc", 9.5, [("n", "a", 1.0)])
        # Refused before anything is absorbed.
        assert store.node_states("sgx/epc", now=10.0) == {}

    def test_an_end_dates_the_value_at_the_previous_collection(self):
        store = WindowedAggregateCache()
        store.report("sgx/epc", 0.0, [("n", "a", 4.0)])
        store.report("sgx/epc", 10.0, [])
        store.report("sgx/epc", 20.0, [("n", "a", 0.0)])
        # Last sampled at t=10: served until t=35, gone after.
        assert window_maxima(store, "sgx/epc", now=35.0) == [
            ("n", "a", 4.0)
        ]
        # The end indexed the head at that date.
        assert indexed(store) == {("n", "a"): 10.0}
        store.report("sgx/epc", 35.5, [])
        assert window_maxima(store, "sgx/epc", now=35.5) == []

    def test_a_pause_longer_than_the_window_restarts_live_series(self):
        """Sampling every pod: the last samples expire 25 s after the
        last collection and the next collection starts the series
        anew, each filed in the change log."""
        store = WindowedAggregateCache()
        store.report("sgx/epc", 0.0, [("n", "a", 4.0), ("n", "b", 2.0)])
        assert named(store) == {("n", "a"), ("n", "b")}
        assert store.node_states("sgx/epc", now=40.0) == {}
        assert store.live_series("sgx/epc") == 0
        # The pause files every series it expires.
        assert named(store) == {("n", "a"), ("n", "b")}
        # The next collection reports b's new value; a is unchanged.
        store.report("sgx/epc", 50.0, [("n", "b", 3.0)])
        assert named(store) == {("n", "b")}
        (node,) = store.node_states("sgx/epc", now=50.0).values()
        assert node.maxima() == {"b": 3.0, "a": 4.0}
        # a restarts once that collection is over.
        assert named(store) == {("n", "a")}
        assert store.node_states("sgx/epc", now=70.0)["n"] is node
        assert named(store) == set()


# -- randomised equivalence -------------------------------------------------

_PODS = st.sampled_from(["pod-a", "pod-b", "pod-c"])
_NODES = st.sampled_from(["node-1", "node-2"])
_TIMES = st.integers(min_value=0, max_value=200).map(lambda i: i / 2.0)
_VALUES = st.integers(min_value=-3, max_value=6).map(float)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), _TIMES, _VALUES, _PODS, _NODES),
        st.tuples(st.just("query"), _TIMES),
    ),
    max_size=60,
)


class TestEquivalenceProperty:
    @given(ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_cached_rows_equal_full_scan_rows(self, ops):
        """Adversarial interleavings: collections earlier than the
        last one, queries earlier than the last collection or than an
        earlier query.  The store answers with the full scan's rows or
        refuses loudly, and a refused collection is never absorbed."""
        (store, feed), db = by_change(), TimeSeriesDatabase()
        last = hwm = -_INF
        # Queries record their time once the store has seen a batch.
        seen_batch = False
        for op in ops:
            if op[0] == "ingest":
                _, time, value, pod, node = op
                seen_batch = True
                try:
                    feed.collect("sgx/epc", time, [(node, pod, value)])
                except MonitoringError:
                    assert time < last
                    continue
                db.ingest("sgx/epc", time, [(node, pod, value)])
                last = time
                continue
            now = op[1]
            if now < max(last, hwm):
                with pytest.raises(MonitoringError, match="too early"):
                    store.node_states("sgx/epc", now)
                continue
            assert window_maxima(store, "sgx/epc", now) == listing_1_rows(
                db, "sgx/epc", now
            )
            if seen_batch:
                hwm = now

    @given(
        samples=st.lists(
            st.tuples(_TIMES, _VALUES, _PODS, _NODES), max_size=50
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_replay_never_falls_back(self, samples):
        """The simulation's access pattern: samples in time order and
        a query at the write frontier after each, every one answered
        with Listing 1's rows."""
        (store, feed), db = by_change(), TimeSeriesDatabase()
        for time, value, pod, node in sorted(samples, key=lambda s: s[0]):
            feed.collect("sgx/epc", time, [(node, pod, value)])
            db.ingest("sgx/epc", time, [(node, pod, value)])
            assert window_maxima(store, "sgx/epc", time) == listing_1_rows(
                db, "sgx/epc", time
            )

    @given(
        samples=st.lists(
            st.tuples(_TIMES, _VALUES, _PODS, _NODES), max_size=50
        ),
        lag=st.integers(min_value=0, max_value=60).map(lambda i: i / 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_full_listing_1_equivalence(self, samples, lag):
        """The paper's nested query: per node, the SUM of the window
        maxima is the sum of the store's node maxima."""
        (store, feed), db = by_change(), TimeSeriesDatabase()
        now = 0.0
        for time, value, pod, node in sorted(samples, key=lambda s: s[0]):
            feed.collect("sgx/epc", time, [(node, pod, value)])
            db.ingest("sgx/epc", time, [(node, pod, value)])
            now = time
        now += lag
        expected = {
            row["nodename"]: row["epc"]
            for row in execute_query(LISTING_1, db, now)
        }
        assert {
            name: sum(node.maxima().values())
            for name, node in store.node_states("sgx/epc", now).items()
        } == expected


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
        st.tuples(st.just("node_states"), _OFFSETS, _MEASUREMENTS),
    ),
    max_size=60,
)


def head_times(db, measurement, now, live):
    """Per ``(nodename, pod_name)``, the time of each window maximum
    that can expire: a series' newest sample holding its maximum value
    (the store's max-deque head), unless the series is *live* with that
    value (the head is then its newest entry, sampled at every
    collection)."""
    heads = {}
    for point in db.scan(measurement, start=now - WINDOW, end=now):
        if point.value == 0.0:
            continue
        key = (point.tag("nodename"), point.tag("pod_name"))
        if key not in heads or point.value >= heads[key][0]:
            heads[key] = (point.value, point.time)
    return {
        key: time
        for key, (value, time) in heads.items()
        if live.get(key) != value
    }


class TestBatchedIngestEquivalence:
    def test_trimming_keeps_the_head_that_decides_version_bumps(self):
        """An expired window max still masks smaller samples until a
        query expires it: trimming on ingest must not file the series
        before that query does."""
        store, feed = by_change()
        filed = []
        for time, value in ((0.0, 6.0), (20.0, 2.0), (30.0, 3.0),
                            (40.0, 4.0)):
            feed.collect("sgx/epc", time, [("n", "p", value)])
            filed.append(named(store))
        assert filed == [{("n", "p")}, set(), set(), set()]
        (node,) = store.node_states("sgx/epc", 40.0).values()
        assert node.maxima() == {"p": 4.0}
        assert named(store) == {("n", "p")}

    @given(ops=_INGEST_OPS)
    @settings(max_examples=300, deadline=None)
    def test_batched_ingest_equals_per_point_absorption(self, ops):
        """Collections reported by change against one database point
        per sample: at every query the store reports Listing 1's rows
        (or refuses a query earlier than the last collection or an
        earlier query), the change log names every series whose row
        appeared, changed or vanished since the measurement's previous
        query, and the time index holds an entry at or before every
        window maximum that can expire."""
        (store, feed), db = by_change(), TimeSeriesDatabase()
        clock = 0.0
        # Per measurement, the last collection and the latest query
        # served; a measurement never collected answers every query.
        collected, queried = {}, {}
        # Per measurement, the rows of its previous query, and the
        # series the one log named since (either measurement's).
        seen = {}
        unseen = {"sgx/epc": set(), "memory/usage": set()}
        for op in ops:
            kind, offset, measurement = op[:3]
            if kind == "ingest":
                clock += offset
                feed.collect(measurement, clock, op[3])
                db.ingest(measurement, clock, op[3])
                queried.setdefault(measurement, -_INF)
                collected[measurement] = clock
                continue
            now = clock + offset
            if now < max(
                collected.get(measurement, -_INF),
                queried.get(measurement, -_INF),
            ):
                with pytest.raises(MonitoringError):
                    store.node_states(measurement, now)
                continue
            nodes = store.node_states(measurement, now)
            if measurement in queried:
                queried[measurement] = now
            rows = {
                (name, pod): value
                for name, pod, value in window_maxima(
                    store, measurement, now
                )
            }
            assert sorted(
                (*key, value) for key, value in rows.items()
            ) == listing_1_rows(db, measurement, now)
            before = seen.get(measurement, {})
            moved = {
                key
                for key in rows.keys() | before.keys()
                if rows.get(key) != before.get(key)
            }
            filed = named(store)
            for names in unseen.values():
                names |= filed
            assert moved <= unseen[measurement]
            unseen[measurement] = set()
            seen[measurement] = rows
            heads = head_times(db, measurement, now, feed.live(measurement))
            entries = indexed(store, measurement) if nodes else {}
            for key, time in heads.items():
                assert entries[key] <= time
            assert store.live_series(measurement) == len(
                listing_1_rows(db, measurement, now)
            )


#: Every series of the per-tick regime below, one value per series
#: per collection (0: not sampled).
_SERIES = [
    (node, pod)
    for node in ("node-1", "node-2")
    for pod in ("pod-a", "pod-b", "pod-c")
]
_COLLECTION = st.lists(
    st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 5.0]),
    min_size=len(_SERIES),
    max_size=len(_SERIES),
)
#: Collections 2.5–30 s apart; queries 0–40 s after the clock, so a
#: query may find the last collection more than a window old.
_TICK_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("collect"),
            st.sampled_from([2.5, 5.0, 10.0, 10.0, 30.0]),
            _COLLECTION,
        ),
        st.tuples(st.just("query"), st.sampled_from([0.0, 2.5, 20.0, 40.0])),
    ),
    max_size=40,
)


def series_maxima(store, now):
    """Per ``(nodename, pod_name)`` series: its window maximum."""
    return {
        (name, pod): value
        for name, node in store.node_states("sgx/epc", now).items()
        for pod, value in node.maxima().items()
    }


#: One live series falling 5 → 3 → 2, then holding: its maxima expire
#: one by one, each uncovering the next that can expire.
_FALLING = [
    ("collect", 10.0, [value, 0.0, 0.0, 0.0, 0.0, 0.0])
    for value in (5.0, 3.0, 2.0, 2.0)
] + [("query", 0.0), ("collect", 10.0, [2.0] + [0.0] * 5), ("query", 0.0)]


class TestPerTickEquivalence:
    @given(ops=_TICK_OPS)
    @example(ops=_FALLING)
    @settings(max_examples=300, deadline=None)
    def test_reported_changes_answer_as_every_sample(self, ops):
        """Series start, rise, fall, end (a zero or a missing sample),
        start again under the same name on the same node, and
        collections pause for longer than the window.  The per-tick
        store ingests every node's samples at every collection; the
        store under test hears only their changes.  At every query both
        give the same maxima, and the store's change log names exactly
        the series the per-tick store's log names: every series whose
        window maximum appeared, changed or vanished since the previous
        query, and those whose maximum moved and came back in between
        (a rise that expired, a series that started and died)."""
        ticked, (store, feed) = TickStore(), by_change()
        clock = 0.0
        before = {}
        for op in ops:
            if op[0] == "collect":
                clock += op[1]
                rows = [
                    (node, pod, value)
                    for (node, pod), value in zip(_SERIES, op[2])
                ]
                for name in ("node-1", "node-2"):
                    ticked.ingest(
                        "sgx/epc",
                        clock,
                        [row for row in rows if row[0] == name],
                    )
                feed.collect("sgx/epc", clock, rows)
                continue
            clock += op[1]
            maxima = series_maxima(ticked, clock)
            assert series_maxima(store, clock) == maxima
            filed = {
                (nodename, pod_name)
                for nodename, pods in ticked.drain_changes(
                    "sgx/epc"
                ).items()
                for pod_name in pods
            }
            assert named(store) == filed, clock
            assert {
                key
                for key in maxima.keys() | before.keys()
                if maxima.get(key) != before.get(key)
            } <= filed
            assert store.live_series("sgx/epc") == ticked.live_series(
                "sgx/epc"
            )
            before = maxima


class TestWindowMatchesSchedulerConstants:
    def test_default_window_matches_listing_1(self):
        assert METRICS_WINDOW_SECONDS == WINDOW

    def test_window_is_listing_1s_25_seconds(self):
        """``time >= now() - 25s``: a maximum is served while it is at
        most 25 s old, inclusive, and expires the moment it is older."""
        store, feed = by_change()
        for time, value in ((0.0, 100.0), (10.0, 1.0), (20.0, 1.0)):
            feed.collect("sgx/epc", time, [("n", "p", value)])
        assert window_maxima(store, "sgx/epc", 25.0) == [("n", "p", 100.0)]
        (node,) = store.node_states("sgx/epc", 25.5).values()
        assert node.maxima() == {"p": 1.0}
        for step in range(3, 20):
            feed.collect("sgx/epc", step * 10.0, [("n", "p", 1.0)])
        assert window_maxima(store, "sgx/epc", 190.0) == [("n", "p", 1.0)]
        assert store.live_series("sgx/epc") == 1
