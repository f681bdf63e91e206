"""The observability subsystem's equivalence gate.

Three claims, the first two hypothesis-checked on random bursty
traces:

* **observed == unobserved** — turning the decision ledger on changes
  nothing: whole-replay signatures are bit-for-bit identical with and
  without a ledger, across the periodic, event-driven, indexed and
  sharded (cells) engines, with preemption on and off.
* **cells=1 == flat, decision for decision** — the sharded runner at
  one cell emits the *identical* event stream the flat oracle emits
  (:func:`repro.obs.diff.diff_ledgers` reports zero divergences), not
  just the same outcomes.
* **the file format is deterministic** — replaying one scenario twice
  produces byte-identical ledgers, ordered by sim time with a dense
  sequence counter, under the declared ``repro.ledger/v1`` header.
"""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ObserveConfig, Scenario
from repro.errors import SimulationError
from repro.obs import (
    LEDGER_EVENT_KINDS,
    LEDGER_SCHEMA,
    NULL_LEDGER,
    DecisionLedger,
    diff_ledgers,
    load_ledger,
)
from repro.trace.borg import synthetic_scaled_trace
from repro.units import mib

replay_settings = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def bursty_trace(trace_seed, n_jobs):
    return synthetic_scaled_trace(
        seed=trace_seed,
        n_jobs=n_jobs,
        overallocators=max(1, n_jobs // 10),
        window_seconds=120.0,
    )


def record(scenario, directory, name):
    """Run *scenario* with the ledger on; return (path, result)."""
    path = os.path.join(directory, name + ".jsonl")
    result = scenario.with_(
        observe=ObserveConfig(ledger_path=path)
    ).run()
    assert result.ledger_path == path
    return path, result


@given(
    trace_seed=st.integers(min_value=0, max_value=1_000),
    seed=st.integers(min_value=0, max_value=1_000),
    n_jobs=st.integers(min_value=10, max_value=30),
    sgx_fraction=st.sampled_from([0.5, 1.0]),
    engine=st.sampled_from(
        ["periodic", "event", "indexed", "cells", "preempting"]
    ),
)
@replay_settings
def test_observation_never_changes_the_run(
    trace_seed, seed, n_jobs, sgx_fraction, engine
):
    toggles = {
        "periodic": {},
        "event": {"event_driven": True},
        "indexed": {"indexed_scheduling": True},
        "cells": {"cells": 2},
        "preempting": {
            "epc_total_bytes": mib(64),
            "workload": "priority-mix",
            "workload_options": {
                "high_fraction": 0.25,
                "high_priority": "latency-critical",
            },
            "preemption_policy": "cheapest-victims",
        },
    }[engine]
    scenario = Scenario(
        trace=bursty_trace(trace_seed, n_jobs),
        sgx_fraction=sgx_fraction,
        seed=seed,
        **toggles,
    )
    plain = scenario.run()
    with tempfile.TemporaryDirectory() as directory:
        _, observed = record(scenario, directory, "run")
    assert observed.signature() == plain.signature()
    assert plain.ledger_path is None


@given(
    trace_seed=st.integers(min_value=0, max_value=1_000),
    seed=st.integers(min_value=0, max_value=1_000),
    n_jobs=st.integers(min_value=10, max_value=30),
)
@replay_settings
def test_cells1_ledger_is_decision_for_decision_the_oracle(
    trace_seed, seed, n_jobs
):
    scenario = Scenario(
        trace=bursty_trace(trace_seed, n_jobs),
        sgx_fraction=0.5,
        seed=seed,
    )
    with tempfile.TemporaryDirectory() as directory:
        flat_path, _ = record(scenario, directory, "flat")
        cells_path, _ = record(
            scenario.with_(cells=1), directory, "cells1"
        )
        diff = diff_ledgers(
            load_ledger(flat_path), load_ledger(cells_path)
        )
    # The headers differ (the cells knob); the decisions must not.
    assert diff.identical, diff.first_divergence
    assert diff.diffs == 0
    assert diff.only_left == 0 and diff.only_right == 0
    assert ("config.cells", None, 1) in diff.header_diffs


#: The engine knobs the header's ``config`` snapshots: every scenario
#: field except ``name``, ``trace`` and ``observe``.
HEADER_CONFIG_KEYS = frozenset((
    "cell_policy", "cell_spillover_after", "cells", "enforce_epc_limits",
    "epc_allow_overcommit", "epc_total_bytes", "event_driven",
    "indexed_scheduling", "malicious", "max_sim_seconds",
    "metrics_period", "node_failures", "preemption_policy",
    "preemption_priority_threshold", "preserve_sgx_nodes",
    "priority_classes", "rebalance_period", "requeue_backoff_seconds",
    "scheduler", "scheduler_options", "scheduler_period", "seed",
    "sgx_fraction", "sgx_workers", "standard_workers", "strict_fcfs",
    "use_measured", "use_state_cache", "workload", "workload_options",
))


def test_repeat_runs_write_byte_identical_ledgers(tmp_path):
    scenario = Scenario(
        trace="borg-synth:seed=7,jobs=40", sgx_fraction=0.5, seed=3
    )
    paths = []
    for name in ("a", "b"):
        path, _ = record(scenario, str(tmp_path), name)
        paths.append(path)
    first, second = (open(p, "rb").read() for p in paths)
    assert first == second
    # An explicit Trace object per recording: two distinct objects
    # (their default reprs differ) must still write identical files.
    object_paths = []
    for name in ("c", "d"):
        trace = synthetic_scaled_trace(seed=7, n_jobs=40, overallocators=3)
        path, _ = record(
            Scenario(trace=trace, sgx_fraction=0.5, seed=3),
            str(tmp_path),
            name,
        )
        object_paths.append(path)
    third, fourth = (open(p, "rb").read() for p in object_paths)
    assert third == fourth
    for path in paths + object_paths:
        assert set(load_ledger(path).header["config"]) == HEADER_CONFIG_KEYS


def test_ledger_header_and_ordering(tmp_path):
    scenario = Scenario(
        trace="borg-synth:seed=7,jobs=40", sgx_fraction=0.5, seed=3
    )
    path, result = record(scenario, str(tmp_path), "run")
    ledger = load_ledger(path)
    assert ledger.header["schema"] == LEDGER_SCHEMA
    assert ledger.header["seed"] == 3
    assert ledger.header["kinds"] == sorted(LEDGER_EVENT_KINDS)
    assert ledger.header["config"]["sgx_fraction"] == 0.5
    # Sim-time ordered, dense sequence numbers, declared kinds only.
    times = [event["t"] for event in ledger.events]
    assert times == sorted(times)
    assert [event["i"] for event in ledger.events] == list(
        range(len(ledger.events))
    )
    kinds = {event["kind"] for event in ledger.events}
    assert kinds <= set(LEDGER_EVENT_KINDS)
    # The run_end summary record agrees with the result counters.
    last = ledger.events[-1]
    assert last["kind"] == "run_end"
    assert last["passes"] == result.passes_executed
    assert last["makespan_s"] == result.metrics.makespan_seconds
    # Every payload value is a JSON primitive (no serialised objects).
    for event in ledger.events:
        for value in event.values():
            assert value is None or isinstance(
                value, (str, int, float, bool)
            )


def test_event_driven_ledger_records_skips(tmp_path):
    scenario = Scenario(
        trace="borg-synth:seed=7,jobs=40", sgx_fraction=0.5, seed=3
    )
    path, result = record(
        scenario.with_(event_driven=True), str(tmp_path), "event"
    )
    skips = [
        event
        for event in load_ledger(path).events
        if event["kind"] == "pass_skipped"
    ]
    assert len(skips) == result.passes_skipped > 0


def test_emit_validates_against_the_schema_table(tmp_path):
    ledger = DecisionLedger(str(tmp_path / "x.jsonl"))
    ledger.open({"schema": LEDGER_SCHEMA})
    with pytest.raises(SimulationError, match="not declared"):
        ledger.emit(0.0, "teleportation")
    with pytest.raises(SimulationError, match="payload mismatch"):
        ledger.emit(0.0, "deferral", pod="p", mood="gloomy")
    with pytest.raises(SimulationError, match="payload mismatch"):
        ledger.emit(0.0, "deferral", pod="p")  # missing: reason
    ledger.emit(0.0, "deferral", pod="p", reason="epc")
    ledger.close()
    assert ledger.events_emitted == 1


def test_observe_config_validates():
    with pytest.raises(SimulationError, match="buffer_records"):
        ObserveConfig(ledger_path="x.jsonl", buffer_records=0)
    assert not ObserveConfig().active
    assert ObserveConfig(trace_path="t.json").active


def test_null_ledger_is_inert():
    assert NULL_LEDGER.enabled is False
    assert NULL_LEDGER.path is None
    # No-ops, no validation, no state: safe on every hot path.
    NULL_LEDGER.emit(0.0, "not-even-a-kind", anything="goes")
    NULL_LEDGER.close()
    assert NULL_LEDGER.events_emitted == 0


def test_load_ledger_rejects_garbage(tmp_path):
    missing = tmp_path / "absent.jsonl"
    with pytest.raises(SimulationError, match="cannot read"):
        load_ledger(str(missing))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(SimulationError):
        load_ledger(str(empty))
    alien = tmp_path / "alien.jsonl"
    alien.write_text(json.dumps({"schema": "other/v9"}) + "\n")
    with pytest.raises(SimulationError, match="header"):
        load_ledger(str(alien))
