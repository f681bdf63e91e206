"""The non-reusing scheduling pass: the oracle for pass reuse.

:meth:`repro.orchestrator.controller.Orchestrator._schedule` answers a
pass over an unchanged queue and cluster with the previous pass's
all-deferred outcome instead of calling ``Scheduler.schedule``.  The
oracle overrides that one hook so every pass recomputes, which is what
the engine did before reuse existed; a reusing run must match it bit
for bit (signature, queue series, ledger body).
"""

from __future__ import annotations

import contextlib
from typing import Iterator
from unittest import mock

from repro.api import scenario as scenario_module
from repro.obs.spans import NULL_SPANS
from repro.orchestrator.controller import Orchestrator
from repro.simulation.runner import run_replay
from scheduling_reference import RecordingLedger


class RecomputingOrchestrator(Orchestrator):
    """An orchestrator whose every pass calls ``Scheduler.schedule``."""

    def _schedule(self, scheduler, pending, views, now):
        return scheduler.schedule(pending, views, now)


class RecordingObserver:
    """An observer bundle whose ledger keeps every record in memory,
    for orchestrators driven pass by pass."""

    enabled = True

    def __init__(self):
        self.ledger = RecordingLedger()
        self.spans = NULL_SPANS


@contextlib.contextmanager
def recomputing() -> Iterator[None]:
    """Every orchestrator built or used inside the block recomputes
    every pass (forked sweep workers inherit the override)."""
    reusing = Orchestrator.__dict__["_schedule"]
    Orchestrator._schedule = RecomputingOrchestrator._schedule
    try:
        yield
    finally:
        Orchestrator._schedule = reusing


def run_recomputing(scenario):
    """``scenario.run()`` on the non-reusing pass."""
    with recomputing():
        return scenario.run()


def ledger_body(path) -> bytes:
    """A ledger file without its header line (which snapshots the
    scenario's config, not the run)."""
    with open(path, "rb") as handle:
        handle.readline()
        return handle.read()


def run_with_replay(scenario):
    """``scenario.run()`` plus the live replay behind it (whose
    orchestrator counts the reused passes)."""
    replays = []

    def keep(replayed):
        replay = run_replay(replayed)
        replays.append(replay)
        return replay

    with mock.patch.object(scenario_module, "run_replay", keep):
        result = scenario.run()
    return result, replays[0]
