"""Listing 1 bench: parsing the paper's sliding-window InfluxQL query.

Times the InfluxQL parser on Listing 1 over many rounds.  The engine is
the monitoring test oracle (``tests/influxql.py``); no replay runs it,
since the window-max store answers the scheduler's query.  Executing
Listing 1 against a probe load is checked by
``tests/test_monitoring_influxql.py``.
"""

from influxql import parse_query

LISTING_1 = (
    "SELECT SUM(epc) AS epc FROM "
    '(SELECT MAX(value) AS epc FROM "sgx/epc" '
    "WHERE value <> 0 AND time >= now() - 25s "
    "GROUP BY pod_name, nodename) GROUP BY nodename"
)


def test_listing1_parse(benchmark):
    query = benchmark(parse_query, LISTING_1)
    assert query.group_by == ("nodename",)
