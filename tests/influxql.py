"""An InfluxQL subset: lexer, parser and executor.

The paper's scheduler drives InfluxDB with sliding-window queries; its
Listing 1 is::

    SELECT SUM(epc) AS epc FROM
    (SELECT MAX(value) AS epc FROM "sgx/epc"
    WHERE value <> 0 AND time >= now() - 25s
    GROUP BY pod_name, nodename
    )
    GROUP BY nodename

This module implements exactly the language features such queries need —
aggregate projections with aliases, measurement and sub-query sources,
conjunctive ``WHERE`` clauses with ``now() - <duration>`` arithmetic, and
``GROUP BY`` over tags — as a classic pipeline:

* :func:`tokenize` produces a token stream;
* :func:`parse_query` builds a :class:`SelectQuery` AST;
* :func:`execute_query` evaluates the AST against a
  :class:`~repro.monitoring.tsdb.TimeSeriesDatabase` at an explicit
  ``now`` timestamp (the simulator's clock, never the wall clock).

It is the test oracle for the scheduler's monitoring input: the
window-max store must report exactly the rows Listing 1's inner query
returns from a full scan of the same samples (``view_reference.py``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import QueryError
from repro.monitoring.tsdb import TimeSeriesDatabase


class InfluxQLError(QueryError):
    """Raised on lexing, parsing or execution failures."""


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "AS",
    "AND",
    "NOW",
    "ORDER",
    "LIMIT",
    "ASC",
    "DESC",
    "SHOW",
    "MEASUREMENTS",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<dquote>"[^"]*")
  | (?P<squote>'[^']*')
  | (?P<op><>|!=|<=|>=|=|<|>)
  | (?P<punct>[(),*+-])
  | (?P<word>[A-Za-z_][A-Za-z0-9_./-]*)
    """,
    re.VERBOSE,
)

#: Duration suffixes accepted after a number, in seconds.
_DURATION_UNITS = {
    "ns": 1e-9,
    "us": 1e-6,
    "ms": 1e-3,
    "s": 1.0,
    "m": 60.0,
    "h": 3600.0,
    "d": 86400.0,
    "w": 7 * 86400.0,
}


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # KEYWORD | IDENT | STRING | NUMBER | OP | PUNCT
    text: str


def tokenize(query: str) -> List[Token]:
    """Lex *query* into tokens, raising on unrecognised input."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(query):
        match = _TOKEN_RE.match(query, pos)
        if match is None:
            raise InfluxQLError(
                f"unexpected character {query[pos]!r} at offset {pos}"
            )
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        text = match.group()
        if match.lastgroup == "number":
            tokens.append(Token("NUMBER", text))
        elif match.lastgroup == "dquote":
            tokens.append(Token("IDENT", text[1:-1]))
        elif match.lastgroup == "squote":
            tokens.append(Token("STRING", text[1:-1]))
        elif match.lastgroup == "op":
            tokens.append(Token("OP", text))
        elif match.lastgroup == "punct":
            tokens.append(Token("PUNCT", text))
        else:  # word
            upper = text.upper()
            if upper in _KEYWORDS:
                tokens.append(Token("KEYWORD", upper))
            else:
                tokens.append(Token("IDENT", text))
    return tokens


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    """One projection: ``AGG(column) AS alias`` or a bare column."""

    column: str
    aggregate: Optional[str] = None  # MAX | MIN | SUM | MEAN | COUNT | ...
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        """Column name of this item in the result rows."""
        if self.alias:
            return self.alias
        if self.aggregate:
            return self.aggregate.lower()
        return self.column


@dataclass(frozen=True)
class TimeExpr:
    """``now()`` plus a constant offset in seconds."""

    offset_seconds: float = 0.0

    def resolve(self, now: float) -> float:
        """The concrete timestamp at evaluation time."""
        return now + self.offset_seconds


Literal = Union[float, str, TimeExpr]


@dataclass(frozen=True)
class Condition:
    """A comparison ``column <op> literal``."""

    column: str
    op: str
    literal: Literal


@dataclass(frozen=True)
class SelectQuery:
    """A parsed SELECT statement."""

    items: Sequence[SelectItem]
    source: Union[str, "SelectQuery"]
    conditions: Sequence[Condition] = ()
    group_by: Sequence[str] = ()
    #: ``ORDER BY time`` direction: "asc", "desc" or None (unordered).
    order_time: Optional[str] = None
    #: ``LIMIT n``; None means unlimited.
    limit: Optional[int] = None


@dataclass(frozen=True)
class ShowMeasurements:
    """A parsed SHOW MEASUREMENTS statement."""


# --------------------------------------------------------------------------
# Parser (recursive descent)
# --------------------------------------------------------------------------

_AGGREGATES = {"MAX", "MIN", "SUM", "MEAN", "COUNT", "FIRST", "LAST"}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self) -> Optional[Token]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise InfluxQLError("unexpected end of query")
        self._pos += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise InfluxQLError(
                f"expected {wanted}, got {token.text!r}"
            )
        return token

    def _accept(
        self, kind: str, text: Optional[str] = None
    ) -> Optional[Token]:
        token = self._peek()
        if (
            token is not None
            and token.kind == kind
            and (text is None or token.text == text)
        ):
            self._pos += 1
            return token
        return None

    # -- grammar ---------------------------------------------------------

    def parse(self) -> Union[SelectQuery, ShowMeasurements]:
        if self._accept("KEYWORD", "SHOW"):
            self._expect("KEYWORD", "MEASUREMENTS")
            statement: Union[SelectQuery, ShowMeasurements] = (
                ShowMeasurements()
            )
        else:
            statement = self._select()
        if self._peek() is not None:
            raise InfluxQLError(
                f"trailing input starting at {self._peek().text!r}"
            )
        return statement

    def _select(self) -> SelectQuery:
        self._expect("KEYWORD", "SELECT")
        items = [self._select_item()]
        while self._accept("PUNCT", ","):
            items.append(self._select_item())
        self._expect("KEYWORD", "FROM")
        source = self._source()
        conditions: List[Condition] = []
        if self._accept("KEYWORD", "WHERE"):
            conditions.append(self._condition())
            while self._accept("KEYWORD", "AND"):
                conditions.append(self._condition())
        group_by: List[str] = []
        if self._accept("KEYWORD", "GROUP"):
            self._expect("KEYWORD", "BY")
            group_by.append(self._expect("IDENT").text)
            while self._accept("PUNCT", ","):
                group_by.append(self._expect("IDENT").text)
        order_time = None
        if self._accept("KEYWORD", "ORDER"):
            self._expect("KEYWORD", "BY")
            column = self._expect("IDENT").text
            if column != "time":
                raise InfluxQLError(
                    f"can only ORDER BY time, got {column!r}"
                )
            order_time = "asc"
            if self._accept("KEYWORD", "DESC"):
                order_time = "desc"
            else:
                self._accept("KEYWORD", "ASC")
        limit = None
        if self._accept("KEYWORD", "LIMIT"):
            token = self._expect("NUMBER")
            limit = int(float(token.text))
            if limit < 0:
                raise InfluxQLError(f"negative LIMIT: {limit}")
        return SelectQuery(
            items=tuple(items),
            source=source,
            conditions=tuple(conditions),
            group_by=tuple(group_by),
            order_time=order_time,
            limit=limit,
        )

    def _select_item(self) -> SelectItem:
        if self._accept("PUNCT", "*"):
            return SelectItem(column="*")
        name = self._expect("IDENT").text
        aggregate = None
        column = name
        if name.upper() in _AGGREGATES and self._accept("PUNCT", "("):
            aggregate = name.upper()
            if self._accept("PUNCT", "*"):
                column = "*"
            else:
                column = self._expect("IDENT").text
            self._expect("PUNCT", ")")
        alias = None
        if self._accept("KEYWORD", "AS"):
            alias = self._expect("IDENT").text
        return SelectItem(column=column, aggregate=aggregate, alias=alias)

    def _source(self) -> Union[str, SelectQuery]:
        if self._accept("PUNCT", "("):
            inner = self._select()
            self._expect("PUNCT", ")")
            return inner
        token = self._next()
        if token.kind not in ("IDENT", "STRING"):
            raise InfluxQLError(f"bad FROM source {token.text!r}")
        return token.text

    def _condition(self) -> Condition:
        column = self._expect("IDENT").text
        op_token = self._next()
        if op_token.kind != "OP":
            raise InfluxQLError(f"expected comparison, got {op_token.text!r}")
        literal = self._literal()
        return Condition(column=column, op=op_token.text, literal=literal)

    def _literal(self) -> Literal:
        if self._accept("KEYWORD", "NOW"):
            self._expect("PUNCT", "(")
            self._expect("PUNCT", ")")
            offset = 0.0
            sign_token = self._peek()
            if sign_token is not None and sign_token.kind == "PUNCT" and (
                sign_token.text in "+-"
            ):
                self._next()
                magnitude = self._duration()
                offset = magnitude if sign_token.text == "+" else -magnitude
            return TimeExpr(offset_seconds=offset)
        token = self._next()
        if token.kind == "NUMBER":
            # A bare number may be a duration if a unit ident follows with
            # no separator; the lexer splits "25s" into NUMBER + IDENT only
            # when the unit starts a word, so we re-join here.
            unit = self._peek()
            if (
                unit is not None
                and unit.kind == "IDENT"
                and unit.text in _DURATION_UNITS
            ):
                self._next()
                return float(token.text) * _DURATION_UNITS[unit.text]
            return float(token.text)
        if token.kind == "STRING":
            return token.text
        raise InfluxQLError(f"bad literal {token.text!r}")

    def _duration(self) -> float:
        number = self._expect("NUMBER").text
        unit_token = self._peek()
        if (
            unit_token is not None
            and unit_token.kind == "IDENT"
            and unit_token.text in _DURATION_UNITS
        ):
            self._next()
            return float(number) * _DURATION_UNITS[unit_token.text]
        return float(number)


def parse_query(query: str) -> Union[SelectQuery, ShowMeasurements]:
    """Parse an InfluxQL statement: SELECT or SHOW MEASUREMENTS."""
    return _Parser(tokenize(query)).parse()


# --------------------------------------------------------------------------
# Executor
# --------------------------------------------------------------------------

Row = Dict[str, Any]

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _aggregate(name: str, values: List[float]) -> Optional[float]:
    if name == "COUNT":
        return float(len(values))
    if not values:
        return None
    if name == "MAX":
        return max(values)
    if name == "MIN":
        return min(values)
    if name == "SUM":
        return sum(values)
    if name == "MEAN":
        return sum(values) / len(values)
    if name == "FIRST":
        return values[0]
    if name == "LAST":
        return values[-1]
    raise InfluxQLError(f"unknown aggregate {name}")


def _source_rows(
    source: Union[str, SelectQuery],
    db: TimeSeriesDatabase,
    now: float,
    time_hint: Optional[float],
) -> List[Row]:
    if isinstance(source, SelectQuery):
        return _execute(source, db, now)
    start = time_hint  # pruned scan when WHERE gives a lower bound
    rows: List[Row] = []
    for point in db.scan(source, start=start, end=now):
        row: Row = {"time": point.time, "value": point.value}
        row.update(point.tag_dict)
        rows.append(row)
    return rows


def _time_lower_bound(
    conditions: Sequence[Condition], now: float
) -> Optional[float]:
    """Extract a ``time >=`` bound so measurement scans can be pruned."""
    bound: Optional[float] = None
    for cond in conditions:
        if cond.column == "time" and cond.op in (">", ">="):
            literal = cond.literal
            value = (
                literal.resolve(now)
                if isinstance(literal, TimeExpr)
                else float(literal)  # type: ignore[arg-type]
            )
            bound = value if bound is None else max(bound, value)
    return bound


def _matches(row: Row, conditions: Sequence[Condition], now: float) -> bool:
    for cond in conditions:
        actual = row.get(cond.column)
        if actual is None:
            return False
        expected: Any = cond.literal
        if isinstance(expected, TimeExpr):
            expected = expected.resolve(now)
        op = _OPS.get(cond.op)
        if op is None:
            raise InfluxQLError(f"unknown operator {cond.op!r}")
        try:
            if not op(actual, expected):
                return False
        except TypeError as exc:
            raise InfluxQLError(
                f"cannot compare {actual!r} {cond.op} {expected!r}"
            ) from exc
    return True


def _finalize(query: SelectQuery, rows: List[Row]) -> List[Row]:
    """Apply ORDER BY time and LIMIT to the result rows."""
    if query.order_time is not None:
        rows = sorted(
            rows,
            key=lambda r: r.get("time", 0.0),
            reverse=query.order_time == "desc",
        )
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def _execute(
    query: SelectQuery, db: TimeSeriesDatabase, now: float
) -> List[Row]:
    time_hint = _time_lower_bound(query.conditions, now)
    rows = _source_rows(query.source, db, now, time_hint)
    rows = [r for r in rows if _matches(r, query.conditions, now)]

    has_aggregates = any(item.aggregate for item in query.items)
    if not has_aggregates:
        # Plain projection: keep requested columns (or all for '*').
        output: List[Row] = []
        for row in rows:
            if any(item.column == "*" for item in query.items):
                output.append(dict(row))
                continue
            projected: Row = {}
            if "time" in row:
                projected["time"] = row["time"]
            for item in query.items:
                if item.column in row:
                    projected[item.output_name] = row[item.column]
            for key in query.group_by:
                if key in row:
                    projected[key] = row[key]
            output.append(projected)
        return _finalize(query, output)

    # Aggregation path: group rows, then fold each select item.
    groups: Dict[tuple, List[Row]] = {}
    for row in rows:
        key = tuple(row.get(tag) for tag in query.group_by)
        groups.setdefault(key, []).append(row)

    output = []
    for key, members in groups.items():
        out: Row = dict(zip(query.group_by, key, strict=True))
        times = [r["time"] for r in members if "time" in r]
        if times:
            out["time"] = max(times)
        for item in query.items:
            if item.aggregate is None:
                raise InfluxQLError(
                    "mixing aggregated and bare fields is unsupported "
                    f"(field {item.column!r})"
                )
            if item.column == "*":
                values = [
                    float(v)
                    for r in members
                    for k, v in r.items()
                    if k == "value" and isinstance(v, (int, float))
                ]
            else:
                values = [
                    float(r[item.column])
                    for r in members
                    if isinstance(r.get(item.column), (int, float))
                ]
            result = _aggregate(item.aggregate, values)
            if result is not None:
                out[item.output_name] = result
        output.append(out)
    return _finalize(query, output)


def execute_query(
    query: Union[str, SelectQuery, ShowMeasurements],
    db: TimeSeriesDatabase,
    now: float,
) -> List[Row]:
    """Run *query* against *db* with the clock fixed at *now*.

    Returns a list of result rows (dicts mixing group tags and aggregated
    fields), in group-discovery order unless ``ORDER BY time`` applies.
    ``SHOW MEASUREMENTS`` returns one ``{"name": ...}`` row per
    measurement.  Every query scans the stored points.
    """
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(query, ShowMeasurements):
        return [{"name": name} for name in db.measurements()]
    return _execute(query, db, now)
