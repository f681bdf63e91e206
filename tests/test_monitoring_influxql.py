"""InfluxQL subset: lexer, parser, executor — including Listing 1."""

import pytest

from influxql import (
    InfluxQLError,
    SelectQuery,
    TimeExpr,
    execute_query,
    parse_query,
    tokenize,
)
from repro.monitoring.tsdb import TimeSeriesDatabase

#: The paper's Listing 1, verbatim.
LISTING_1 = """
SELECT SUM(epc) AS epc FROM
(SELECT MAX(value) AS epc FROM "sgx/epc"
WHERE value <> 0 AND time >= now() - 25s
GROUP BY pod_name, nodename
)
GROUP BY nodename
"""


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [t.kind for t in tokenize("select from where")]
        assert kinds == ["KEYWORD", "KEYWORD", "KEYWORD"]

    def test_quoted_measurement_is_ident(self):
        (token,) = tokenize('"sgx/epc"')
        assert token.kind == "IDENT"
        assert token.text == "sgx/epc"

    def test_single_quotes_are_strings(self):
        (token,) = tokenize("'hello'")
        assert token.kind == "STRING"

    def test_operators(self):
        kinds = {t.text for t in tokenize("= <> != <= >= < >")}
        assert kinds == {"=", "<>", "!=", "<=", ">=", "<", ">"}

    def test_unknown_character_rejected(self):
        with pytest.raises(InfluxQLError):
            tokenize("SELECT @")


class TestParser:
    def test_simple_select(self):
        query = parse_query("SELECT value FROM m")
        assert query.source == "m"
        assert query.items[0].column == "value"
        assert query.items[0].aggregate is None

    def test_aggregate_with_alias(self):
        query = parse_query("SELECT MAX(value) AS peak FROM m")
        item = query.items[0]
        assert item.aggregate == "MAX"
        assert item.column == "value"
        assert item.output_name == "peak"

    def test_where_now_minus_duration(self):
        query = parse_query(
            "SELECT value FROM m WHERE time >= now() - 25s"
        )
        (cond,) = query.conditions
        assert isinstance(cond.literal, TimeExpr)
        assert cond.literal.offset_seconds == -25.0

    def test_duration_units(self):
        query = parse_query("SELECT value FROM m WHERE time >= now() - 5m")
        assert query.conditions[0].literal.offset_seconds == -300.0

    def test_group_by_list(self):
        query = parse_query(
            "SELECT MAX(value) FROM m GROUP BY pod_name, nodename"
        )
        assert query.group_by == ("pod_name", "nodename")

    def test_subquery_source(self):
        query = parse_query(
            "SELECT SUM(x) FROM (SELECT MAX(value) AS x FROM m)"
        )
        assert isinstance(query.source, SelectQuery)

    def test_listing_1_parses(self):
        query = parse_query(LISTING_1)
        assert query.group_by == ("nodename",)
        inner = query.source
        assert isinstance(inner, SelectQuery)
        assert inner.source == "sgx/epc"
        assert len(inner.conditions) == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(InfluxQLError):
            parse_query("SELECT value FROM m extra")

    def test_missing_from_rejected(self):
        with pytest.raises(InfluxQLError):
            parse_query("SELECT value")

    def test_star_projection(self):
        query = parse_query("SELECT * FROM m")
        assert query.items[0].column == "*"


class TestExecutor:
    @pytest.fixture
    def populated(self, db) -> TimeSeriesDatabase:
        # Two pods across two nodes, samples at t=80..100.
        samples = [
            ("pod-a", "node-1", 80.0, 100.0),
            ("pod-a", "node-1", 90.0, 120.0),
            ("pod-b", "node-1", 95.0, 50.0),
            ("pod-c", "node-2", 99.0, 70.0),
            ("pod-c", "node-2", 60.0, 999.0),  # outside a 25 s window
        ]
        for pod, node, t, value in samples:
            db.write(
                "sgx/epc",
                value=value,
                time=t,
                tags={"pod_name": pod, "nodename": node},
            )
        return db

    def test_listing_1_per_node_sums(self, populated):
        rows = execute_query(LISTING_1, populated, now=100.0)
        by_node = {row["nodename"]: row["epc"] for row in rows}
        # node-1: max(pod-a)=120 + max(pod-b)=50; node-2: max(pod-c)=70
        assert by_node == {"node-1": 170.0, "node-2": 70.0}

    def test_listing_1_under_a_probe_load(self, db):
        """Two SGX nodes of 30 pods, each probed every 10 s for 600 s:
        one row per node, summing its pods' window maxima."""
        for node in ("sgx-worker-0", "sgx-worker-1"):
            for pod in range(30):
                for sample in range(60):
                    db.write(
                        "sgx/epc",
                        value=float(100 + pod),
                        time=sample * 10.0,
                        tags={
                            "pod_name": f"pod-{node}-{pod}",
                            "nodename": node,
                        },
                    )
        rows = execute_query(parse_query(LISTING_1), db, 600.0)
        assert {row["nodename"] for row in rows} == {
            "sgx-worker-0",
            "sgx-worker-1",
        }
        for row in rows:
            assert row["epc"] == sum(range(100, 130))

    def test_window_excludes_old_samples(self, populated):
        rows = execute_query(LISTING_1, populated, now=100.0)
        node2 = next(r for r in rows if r["nodename"] == "node-2")
        assert node2["epc"] == 70.0  # the 999 sample at t=60 is out

    def test_value_filter(self, db):
        db.write("m", value=0.0, time=1.0, tags={"pod_name": "a"})
        db.write("m", value=5.0, time=2.0, tags={"pod_name": "a"})
        rows = execute_query(
            'SELECT MAX(value) AS v FROM m WHERE value <> 0 '
            "GROUP BY pod_name",
            db,
            now=10.0,
        )
        assert rows[0]["v"] == 5.0

    def test_projection_without_aggregates(self, db):
        db.write("m", value=3.0, time=1.0, tags={"pod_name": "a"})
        rows = execute_query("SELECT value FROM m", db, now=10.0)
        assert rows == [{"time": 1.0, "value": 3.0}]

    def test_aggregates(self, db):
        for value in (1.0, 2.0, 3.0):
            db.write("m", value=value, time=value)
        for agg, expected in [
            ("SUM", 6.0),
            ("MIN", 1.0),
            ("MAX", 3.0),
            ("MEAN", 2.0),
            ("COUNT", 3.0),
            ("FIRST", 1.0),
            ("LAST", 3.0),
        ]:
            rows = execute_query(
                f"SELECT {agg}(value) AS x FROM m", db, now=10.0
            )
            assert rows[0]["x"] == expected, agg

    def test_empty_result_no_groups(self, db):
        rows = execute_query(
            "SELECT MAX(value) AS x FROM m GROUP BY pod", db, now=1.0
        )
        assert rows == []

    def test_group_time_is_max_member_time(self, db):
        db.write("m", value=1.0, time=5.0, tags={"g": "x"})
        db.write("m", value=2.0, time=9.0, tags={"g": "x"})
        rows = execute_query(
            "SELECT MAX(value) AS v FROM m GROUP BY g", db, now=10.0
        )
        assert rows[0]["time"] == 9.0

    def test_string_equality_filter(self, db):
        db.write("m", value=1.0, time=1.0, tags={"pod_name": "a"})
        db.write("m", value=2.0, time=2.0, tags={"pod_name": "b"})
        rows = execute_query(
            "SELECT MAX(value) AS v FROM m WHERE pod_name = 'b'",
            db,
            now=10.0,
        )
        assert rows[0]["v"] == 2.0

    def test_missing_column_in_where_filters_row(self, db):
        db.write("m", value=1.0, time=1.0)  # no tags at all
        rows = execute_query(
            "SELECT MAX(value) AS v FROM m WHERE pod_name = 'a'",
            db,
            now=10.0,
        )
        assert rows == []

    def test_unknown_aggregate_rejected(self, db):
        db.write("m", value=1.0, time=1.0)
        # FOO( parses as an identifier followed by junk.
        with pytest.raises(InfluxQLError):
            execute_query("SELECT FOO(value) FROM m", db, now=1.0)


class TestOrderAndLimit:
    def test_order_by_time_desc(self, db):
        for t in (3.0, 1.0, 2.0):
            db.write("m", value=t, time=t)
        rows = execute_query(
            "SELECT value FROM m ORDER BY time DESC", db, now=10.0
        )
        assert [r["time"] for r in rows] == [3.0, 2.0, 1.0]

    def test_order_by_time_asc_explicit(self, db):
        for t in (3.0, 1.0, 2.0):
            db.write("m", value=t, time=t)
        rows = execute_query(
            "SELECT value FROM m ORDER BY time ASC", db, now=10.0
        )
        assert [r["time"] for r in rows] == [1.0, 2.0, 3.0]

    def test_limit_truncates(self, db):
        for t in (1.0, 2.0, 3.0):
            db.write("m", value=t, time=t)
        rows = execute_query(
            "SELECT value FROM m ORDER BY time DESC LIMIT 2", db, now=10.0
        )
        assert len(rows) == 2
        assert rows[0]["time"] == 3.0

    def test_limit_zero(self, db):
        db.write("m", value=1.0, time=1.0)
        rows = execute_query("SELECT value FROM m LIMIT 0", db, now=10.0)
        assert rows == []

    def test_limit_on_grouped_query(self, db):
        for pod in ("a", "b", "c"):
            db.write("m", value=1.0, time=1.0, tags={"pod_name": pod})
        rows = execute_query(
            "SELECT MAX(value) AS v FROM m GROUP BY pod_name LIMIT 2",
            db,
            now=10.0,
        )
        assert len(rows) == 2

    def test_order_by_non_time_rejected(self, db):
        with pytest.raises(InfluxQLError, match="ORDER BY time"):
            parse_query("SELECT value FROM m ORDER BY value")


class TestShowMeasurements:
    def test_lists_measurements(self, db):
        db.write("b", value=1.0, time=0.0)
        db.write("a", value=1.0, time=0.0)
        rows = execute_query("SHOW MEASUREMENTS", db, now=0.0)
        assert rows == [{"name": "a"}, {"name": "b"}]

    def test_empty_database(self, db):
        assert execute_query("SHOW MEASUREMENTS", db, now=0.0) == []

    def test_trailing_garbage_rejected(self):
        with pytest.raises(InfluxQLError):
            parse_query("SHOW MEASUREMENTS extra")
