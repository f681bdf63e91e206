"""Property-based tests: the InfluxQL executor against a Python oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influxql import execute_query, parse_query
from repro.monitoring.tsdb import TimeSeriesDatabase

sample_strategy = st.lists(
    st.tuples(
        st.sampled_from(["pod-a", "pod-b", "pod-c"]),  # pod
        st.sampled_from(["node-1", "node-2"]),  # node
        st.floats(min_value=0.0, max_value=100.0),  # time
        st.floats(min_value=0.0, max_value=1000.0),  # value
    ),
    max_size=60,
)


def populate(samples) -> TimeSeriesDatabase:
    db = TimeSeriesDatabase()
    for pod, node, time, value in samples:
        db.write(
            "sgx/epc",
            value=value,
            time=time,
            tags={"pod_name": pod, "nodename": node},
        )
    return db


LISTING_1 = (
    "SELECT SUM(epc) AS epc FROM "
    '(SELECT MAX(value) AS epc FROM "sgx/epc" '
    "WHERE value <> 0 AND time >= now() - 25s "
    "GROUP BY pod_name, nodename) GROUP BY nodename"
)


def oracle_listing_1(samples, now):
    """Straight-line Python re-implementation of Listing 1."""
    per_pod = {}
    for pod, node, time, value in samples:
        if value != 0 and time >= now - 25.0 and time <= now:
            key = (node, pod)
            per_pod[key] = max(per_pod.get(key, 0.0), value)
    per_node = {}
    for (node, _pod), peak in per_pod.items():
        per_node[node] = per_node.get(node, 0.0) + peak
    return per_node


class TestListing1Properties:
    @given(samples=sample_strategy, now=st.floats(0.0, 120.0))
    @settings(max_examples=150)
    def test_matches_python_oracle(self, samples, now):
        db = populate(samples)
        rows = execute_query(LISTING_1, db, now=now)
        got = {row["nodename"]: row["epc"] for row in rows}
        expected = oracle_listing_1(samples, now)
        # Sums may differ in the last ulp depending on addition order.
        assert got.keys() == expected.keys()
        for node, value in expected.items():
            assert got[node] == pytest.approx(value, rel=1e-12)

    @given(samples=sample_strategy)
    def test_inner_max_never_exceeds_global_max(self, samples):
        db = populate(samples)
        rows = execute_query(
            'SELECT MAX(value) AS peak FROM "sgx/epc" '
            "WHERE time >= now() - 1000s GROUP BY pod_name",
            db,
            now=100.0,
        )
        if rows:
            global_max = max(value for _, _, _, value in samples)
            assert all(row["peak"] <= global_max for row in rows)

    @given(samples=sample_strategy)
    def test_sum_equals_mean_times_count(self, samples):
        db = populate(samples)
        rows = execute_query(
            'SELECT SUM(value) AS s, MEAN(value) AS m, COUNT(value) AS c '
            'FROM "sgx/epc" WHERE time >= now() - 1000s',
            db,
            now=100.0,
        )
        for row in rows:
            if row.get("c"):
                assert row["s"] == row["m"] * row["c"] or abs(
                    row["s"] - row["m"] * row["c"]
                ) < 1e-6 * max(1.0, abs(row["s"]))


class TestParserProperties:
    @given(window=st.integers(min_value=1, max_value=86_400))
    def test_any_window_parses(self, window):
        query = parse_query(
            f"SELECT MAX(value) FROM m WHERE time >= now() - {window}s"
        )
        assert query.conditions[0].literal.offset_seconds == -float(window)

    @given(
        tags=st.lists(
            st.sampled_from(["a", "b", "c", "pod_name", "nodename"]),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    def test_group_by_round_trips(self, tags):
        query = parse_query(
            "SELECT MAX(value) FROM m GROUP BY " + ", ".join(tags)
        )
        assert list(query.group_by) == tags
