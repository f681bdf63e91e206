"""Deterministic observability: decision ledger, spans, metrics.

See :mod:`repro.obs.ledger` for the ``repro.ledger/v2`` schema, and
the ``repro record`` / ``repro diff`` / ``repro explain`` CLI commands
for the workflow built on top of it.
"""

from .diff import (
    Divergence,
    LedgerDiff,
    LedgerFile,
    diff_ledgers,
    format_diff,
    load_ledger,
)
from .explain import explain_pod, format_explain, pod_events
from .ledger import (
    LEDGER_EVENT_KINDS,
    LEDGER_SCHEMA,
    NULL_LEDGER,
    DecisionLedger,
    NullLedger,
    ObserveConfig,
    config_signature,
)
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
)
from .observer import NULL_OBSERVER, NullObserver, RunObserver, build_observer
from .spans import NULL_SPANS, NullSpanRecorder, SpanRecorder

__all__ = [
    "DEFAULT_BUCKETS",
    "LEDGER_EVENT_KINDS",
    "LEDGER_SCHEMA",
    "NULL_LEDGER",
    "NULL_METRICS",
    "NULL_OBSERVER",
    "NULL_SPANS",
    "DecisionLedger",
    "Divergence",
    "LedgerDiff",
    "LedgerFile",
    "MetricsRegistry",
    "NullLedger",
    "NullMetrics",
    "NullObserver",
    "NullSpanRecorder",
    "ObserveConfig",
    "RunObserver",
    "SpanRecorder",
    "build_observer",
    "config_signature",
    "diff_ledgers",
    "explain_pod",
    "format_diff",
    "format_explain",
    "load_ledger",
    "pod_events",
]
