"""Integration: the paper's headline result shapes on the full workload.

These are the claims EXPERIMENTS.md records; each test replays the full
663-job trace, so this file is the slow end of the suite (~30 s total).
Absolute numbers are simulator-dependent; orderings and rough ratios are
what the paper's conclusions rest on.
"""

import pytest

from repro.api import Scenario
from repro.experiments.common import default_trace
from repro.simulation.runner import run_replay
from repro.units import mib
from repro.workload.malicious import MaliciousConfig

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def trace():
    return default_trace()


@pytest.fixture(scope="module")
def runs(trace):
    """The replays shared across assertions (computed once)."""
    def run(**kwargs):
        return run_replay(Scenario(trace=trace, seed=1, **kwargs))

    return {
        "std": run(scheduler="binpack", sgx_fraction=0.0),
        "mix50": run(scheduler="binpack", sgx_fraction=0.5),
        "sgx": run(scheduler="binpack", sgx_fraction=1.0),
        "spread-sgx": run(scheduler="spread", sgx_fraction=1.0),
    }


class TestFig8Shapes:
    def test_no_sgx_run_waits_little(self, runs):
        assert runs["std"].metrics.mean_waiting_seconds() < 30.0

    def test_half_sgx_close_to_no_sgx(self, runs):
        # "incorporating a reasonable number of SGX jobs has close to
        # zero impact on the scheduling"
        assert runs["mix50"].metrics.mean_waiting_seconds() < 60.0

    def test_pure_sgx_run_goes_off_the_chart(self, runs):
        sgx = runs["sgx"].metrics
        std = runs["std"].metrics
        assert sgx.mean_waiting_seconds() > 10 * std.mean_waiting_seconds()
        # Paper: longest wait 4696 s; ours lands in the same regime.
        assert 1000.0 < sgx.max_waiting_seconds() < 10_000.0


class TestFig10Shapes:
    def test_turnaround_ordering(self, trace, runs):
        trace_hours = trace.total_duration_seconds / 3600.0
        std = runs["std"].metrics.total_turnaround_hours()
        sgx = runs["sgx"].metrics.total_turnaround_hours()
        assert trace_hours < std < sgx

    def test_sgx_roughly_twice_standard(self, runs):
        ratio = (
            runs["sgx"].metrics.total_turnaround_hours()
            / runs["std"].metrics.total_turnaround_hours()
        )
        # Paper: 210/111 ~= 1.9 under binpack.
        assert 1.4 < ratio < 3.0

    def test_spread_not_better_than_binpack_for_sgx(self, runs):
        assert (
            runs["spread-sgx"].metrics.total_turnaround_hours()
            >= 0.95 * runs["sgx"].metrics.total_turnaround_hours()
        )


class TestFig7Shapes:
    @pytest.fixture(scope="class")
    def makespans(self, trace):
        spans = {}
        for size in (32, 64, 128, 256):
            result = run_replay(
                Scenario(
                    trace=trace,
                    scheduler="binpack",
                    sgx_fraction=1.0,
                    seed=1,
                    epc_total_bytes=mib(size),
                )
            )
            spans[size] = result.metrics.makespan_seconds
        return spans

    def test_makespan_monotone_decreasing_in_epc(self, makespans):
        assert makespans[32] > makespans[64] > makespans[128]
        assert makespans[128] >= makespans[256]

    def test_256mib_shows_no_contention(self, makespans):
        # Paper: the batch finishes in the trace hour at 256 MiB.
        assert makespans[256] < 1.25 * 3600.0

    def test_128mib_matches_papers_regime(self, makespans):
        # Paper: 1 h 22 min at 128 MiB (~1.37 h).
        assert 3600.0 < makespans[128] < 2.2 * 3600.0

    def test_halving_epc_roughly_doubles_drain(self, makespans):
        assert 1.5 < makespans[64] / makespans[128] < 3.0
        assert 1.3 < makespans[32] / makespans[64] < 3.0


class TestFig11Shapes:
    @pytest.fixture(scope="class")
    def fig11_runs(self, trace):
        def run(enforce, occupancy):
            malicious = (
                MaliciousConfig(epc_occupancy=occupancy)
                if occupancy
                else None
            )
            return run_replay(
                Scenario(
                    trace=trace,
                    scheduler="binpack",
                    sgx_fraction=0.5,
                    seed=1,
                    enforce_epc_limits=enforce,
                    epc_allow_overcommit=not enforce,
                    malicious=malicious,
                )
            )

        return {
            "reference": run(False, 0.0),
            "squat25": run(False, 0.25),
            "squat50": run(False, 0.5),
            "enforced": run(True, 0.5),
        }

    def test_waits_grow_with_squatter_size(self, fig11_runs):
        reference = fig11_runs["reference"].metrics.mean_waiting_seconds()
        squat25 = fig11_runs["squat25"].metrics.mean_waiting_seconds()
        squat50 = fig11_runs["squat50"].metrics.mean_waiting_seconds()
        assert reference < squat25 < squat50

    def test_enforcement_annihilates_squatters(self, fig11_runs):
        enforced = fig11_runs["enforced"].metrics.mean_waiting_seconds()
        squat50 = fig11_runs["squat50"].metrics.mean_waiting_seconds()
        assert enforced < 0.25 * squat50

    def test_enforcement_beats_reference_by_killing_overallocators(
        self, fig11_runs
    ):
        # Paper: the limits-enabled run beats even the trace-only run
        # because the 44 over-allocators are killed at launch.
        enforced = fig11_runs["enforced"]
        assert len(enforced.metrics.failed) >= 20
        assert (
            enforced.metrics.mean_waiting_seconds()
            <= fig11_runs["reference"].metrics.mean_waiting_seconds()
        )


class TestMeasuredVsDeclaredAblation:
    def test_measured_usage_beats_declared_only(self, trace):
        """The paper's central design point: scheduling on *measured*
        usage reclaims the headroom that inflated declarations waste.

        The declared-only baseline reserves each job's (over-)declared
        request for its whole life, under-packing the scarce EPC; the
        measured scheduler re-packs from live probe data and turns the
        reclaimed capacity into shorter queues and an earlier finish.
        """
        measured = run_replay(
            Scenario(
                trace=trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        declared = run_replay(
            Scenario(
                trace=trace,
                scheduler="kube-default",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        assert (
            measured.metrics.mean_waiting_seconds()
            < 0.8 * declared.metrics.mean_waiting_seconds()
        )
        assert (
            measured.metrics.makespan_seconds
            < declared.metrics.makespan_seconds
        )
