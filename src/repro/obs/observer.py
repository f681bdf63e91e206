"""The per-run observer bundle threaded through a replay.

A :class:`RunObserver` groups the three exporters — decision ledger,
span recorder, metrics registry — behind one object the replay hands
to the orchestrator, state service, schedulers and preemption
policy.  Each component keeps only the piece it emits to and guards
every emission on that piece's ``enabled`` flag.

An unobserved replay carries :data:`NULL_OBSERVER` instead: a single
shared object whose components are the null ledger / null spans /
null metrics, so the disabled path is one attribute read per decision
site and zero allocations.
"""

from __future__ import annotations

from .ledger import (
    LEDGER_EVENT_KINDS,
    LEDGER_SCHEMA,
    NULL_LEDGER,
    DecisionLedger,
    ObserveConfig,
    config_signature,
)
from .metrics import NULL_METRICS, MetricsRegistry
from .spans import NULL_SPANS, SpanRecorder


class RunObserver:
    """The live observer: real exporters for each configured path."""

    enabled = True

    __slots__ = ("config", "ledger", "spans", "metrics")

    def __init__(self, config: ObserveConfig):
        self.config = config
        if config.ledger_path is not None:
            self.ledger = DecisionLedger(config.ledger_path)
        else:
            self.ledger = NULL_LEDGER
        self.spans = SpanRecorder() if config.trace_path else NULL_SPANS
        self.metrics = (
            MetricsRegistry() if config.metrics_path else NULL_METRICS
        )


class NullObserver:
    """The disabled observer shared by every unobserved replay."""

    enabled = False

    __slots__ = ()

    config = None
    ledger = NULL_LEDGER
    spans = NULL_SPANS
    metrics = NULL_METRICS


#: The shared disabled observer.
NULL_OBSERVER = NullObserver()


def build_observer(scenario):
    """Build the observer for one replay of *scenario*; open its ledger.

    Returns :data:`NULL_OBSERVER` when ``scenario.observe`` is off.
    When a ledger is configured its header line — schema tag, seed,
    primitive config signature and the declared kinds — is written
    immediately, so even a replay that dies mid-run leaves a
    self-describing file.
    """
    observe = scenario.observe
    if observe is None or not observe.active:
        return NULL_OBSERVER
    observer = RunObserver(observe)
    ledger = observer.ledger
    if ledger.enabled:
        ledger.open({
            "schema": LEDGER_SCHEMA,
            "seed": scenario.seed,
            "config": config_signature(scenario),
            "kinds": sorted(LEDGER_EVENT_KINDS),
        })
    return observer
