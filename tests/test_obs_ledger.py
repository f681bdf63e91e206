"""The observability subsystem's equivalence gate.

Two claims, the first hypothesis-checked on random bursty traces:

* **observed == unobserved** — turning the decision ledger on changes
  nothing: whole-replay signatures are bit-for-bit identical with and
  without a ledger, on the default (pass-reusing) and the recomputing
  pass, with preemption on and off.
* **the file format is deterministic** — replaying one scenario twice
  produces byte-identical ledgers, ordered by sim time with a dense
  sequence counter, under the declared ``repro.ledger/v1`` header.
"""

import contextlib
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pass_reuse_reference import recomputing
from repro.api import ObserveConfig, Scenario
from repro.errors import SimulationError
from repro.obs import (
    LEDGER_EVENT_KINDS,
    LEDGER_SCHEMA,
    NULL_LEDGER,
    DecisionLedger,
    load_ledger,
)
from repro.registry import SCHEDULERS, register_scheduler
from repro.scheduler.binpack import BinpackScheduler
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
        ["periodic", "recomputing", "preempting"]
    ),
)
@replay_settings
def test_observation_never_changes_the_run(
    trace_seed, seed, n_jobs, sgx_fraction, engine
):
    toggles = {
        "periodic": {},
        "recomputing": {},
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
    engine_context = (
        recomputing()
        if engine == "recomputing"
        else contextlib.nullcontext()
    )
    with engine_context, tempfile.TemporaryDirectory() as directory:
        plain = scenario.run()
        _, observed = record(scenario, directory, "run")
    assert observed.signature() == plain.signature()
    assert plain.ledger_path is None


#: The engine knobs the header's ``config`` snapshots: every scenario
#: field except ``name``, ``trace`` and ``observe``.
HEADER_CONFIG_KEYS = frozenset((
    "enforce_epc_limits", "epc_allow_overcommit", "epc_total_bytes",
    "malicious", "max_sim_seconds", "preemption_policy",
    "preemption_priority_threshold", "scheduler", "seed",
    "sgx_fraction", "sgx_workers", "standard_workers", "workload",
    "workload_options",
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


def test_a_replay_that_raises_keeps_its_records(tmp_path):
    # Everything emitted before the failure is flushed, not left in
    # the ledger's buffer (or the header in the file object's).
    @register_scheduler("test-fails-at-pass-40")
    class FailsAtPass40(BinpackScheduler):
        passes = 0

        def schedule(self, pending, views, now):
            self.passes += 1
            if self.passes == 40:
                raise RuntimeError("scheduler failed at pass 40")
            return super().schedule(pending, views, now)

    path = tmp_path / "failed.jsonl"
    try:
        with pytest.raises(RuntimeError, match="pass 40"):
            Scenario(
                scheduler="test-fails-at-pass-40",
                trace="borg-synth:jobs=200",
                sgx_fraction=0.5,
                seed=1,
                observe=ObserveConfig(ledger_path=str(path)),
            ).run()
    finally:
        SCHEDULERS.unregister("test-fails-at-pass-40")
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["schema"] == LEDGER_SCHEMA
    records = [json.loads(line) for line in lines[1:]]
    # The file ends in the failing pass's pass_begin; a reused pass
    # also begins without calling the scheduler.
    assert records[-1]["kind"] == "pass_begin"
    assert sum(r["kind"] == "pass_begin" for r in records) >= 40
    assert [r["i"] for r in records] == list(range(len(records)))


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


def test_observe_config_is_active_with_any_exporter():
    assert not ObserveConfig().active
    assert ObserveConfig(ledger_path="x.jsonl").active
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
