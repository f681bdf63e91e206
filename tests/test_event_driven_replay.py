"""Pass reuse: bit-for-bit equivalence with the recomputing oracle.

In a backlog most periodic passes see the same queue against the same
measured state, and the orchestrator answers them from the previous
pass's all-deferred outcome (``Orchestrator._schedule``).  A reused
pass must be indistinguishable from a recomputed one: the same pod
lifecycles, queue series and pass counters (the whole
``RunResult.signature()``) and a byte-identical ledger body, against
the non-reusing pass kept in ``tests/pass_reuse_reference.py``.  The
configurations are the ones the event-driven skip, which reuse
replaced, was checked on.
"""

import contextlib
import os

import pytest

from pass_reuse_reference import (
    ledger_body,
    recomputing,
    run_with_replay,
)
from repro.api import ObserveConfig, Scenario
from repro.obs import load_ledger
from repro.simulation.runner import run_replay
from repro.trace.borg import synthetic_scaled_trace
from repro.units import mib


@pytest.fixture(scope="module")
def small_trace():
    return synthetic_scaled_trace(seed=7, n_jobs=40, overallocators=4)


@pytest.fixture(scope="module")
def saturated_trace():
    # Burst submissions: the queue stays backed up for a long stretch,
    # so many passes see an unchanged queue and cluster.
    return synthetic_scaled_trace(
        seed=7, n_jobs=60, overallocators=6, window_seconds=60.0
    )


def assert_matches_oracle(scenario, directory):
    """Run *scenario* reusing and recomputing, both with a ledger on;
    require equal signatures, queue series and ledger bodies.  Returns
    the reusing run's live replay."""

    def record(name, engine):
        path = os.path.join(str(directory), name + ".jsonl")
        observed = scenario.with_(observe=ObserveConfig(ledger_path=path))
        with engine:
            result, replay = run_with_replay(observed)
        return result, ledger_body(path), replay

    reused, reused_ledger, replay = record(
        "reusing", contextlib.nullcontext()
    )
    oracle, oracle_ledger, _ = record("recomputing", recomputing())
    assert reused.signature() == oracle.signature()
    assert reused.metrics.queue_series == oracle.metrics.queue_series
    assert reused_ledger == oracle_ledger
    return replay


EQUIVALENCE_CONFIGS = [
    dict(sgx_fraction=0.5, seed=1),
    dict(sgx_fraction=1.0, seed=1),
    dict(
        sgx_fraction=1.0,
        seed=1,
        enforce_epc_limits=True,
        epc_allow_overcommit=False,
    ),
    dict(sgx_fraction=1.0, seed=2, epc_allow_overcommit=False),
    dict(sgx_fraction=1.0, seed=1, epc_allow_overcommit=False),
]


class TestEquivalence:
    @pytest.mark.parametrize(
        "kwargs", EQUIVALENCE_CONFIGS,
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bit_for_bit_with_fewer_passes(
        self, small_trace, saturated_trace, kwargs, tmp_path
    ):
        # The 40-job trace never backs up (every pass places or finds
        # the queue empty); the burst trace does, and reuses passes.
        for trace in (small_trace, saturated_trace):
            replay = assert_matches_oracle(
                Scenario(trace=trace, scheduler="binpack", **kwargs),
                tmp_path,
            )
        reused = replay.orchestrator.passes_reused
        assert 0 < reused < replay.passes_executed

    def test_saturated_queue_equivalence(self, saturated_trace, tmp_path):
        replay = assert_matches_oracle(
            Scenario(
                trace=saturated_trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                epc_total_bytes=mib(64),
            ),
            tmp_path,
        )
        assert replay.orchestrator.passes_reused > 0
        # The backlog keeps the queue non-empty for a long stretch;
        # reuse there comes from the state-unchanged proof.
        assert replay.metrics.max_waiting_seconds() > 100.0

    def test_spread_scheduler_equivalence(self, small_trace, tmp_path):
        assert_matches_oracle(
            Scenario(
                trace=small_trace, scheduler="spread",
                sgx_fraction=0.5, seed=4,
            ),
            tmp_path,
        )

    def test_periodic_mode_logs_no_skips(self, saturated_trace, tmp_path):
        """Every wake-up runs its pass: reused passes are executed
        passes."""
        path = str(tmp_path / "run.jsonl")
        result = run_replay(
            Scenario(
                trace=saturated_trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                observe=ObserveConfig(ledger_path=path),
            )
        )
        assert result.orchestrator.passes_reused > 0
        # One queue sample per wake-up, taken right after its pass.
        assert len(result.metrics.queue_series) == result.passes_executed
        events = load_ledger(path).events
        assert events[-1]["kind"] == "run_end"
        assert events[-1]["passes"] == result.passes_executed

    def test_reuse_is_deterministic(self, saturated_trace):
        scenario = Scenario(
            trace=saturated_trace,
            scheduler="binpack",
            sgx_fraction=1.0,
            seed=5,
        )
        a, a_replay = run_with_replay(scenario)
        b, b_replay = run_with_replay(scenario)
        assert a.signature() == b.signature()
        assert a_replay.orchestrator.passes_reused == (
            b_replay.orchestrator.passes_reused
        ) > 0
