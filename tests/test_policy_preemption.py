"""Preemption planners and the orchestrator's eviction wiring."""

import itertools
import statistics

import pytest

from repro.api import ObserveConfig, Scenario
from repro.cluster.resources import ResourceVector
from repro.cluster.topology import paper_cluster
from repro.obs import load_ledger
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.pod import Pod
from repro.policy import (
    CheapestVictims,
    EvictionCandidate,
    LowestPriorityFirst,
    NoPreemption,
)
from repro.registry import PREEMPTION_POLICIES
from repro.scheduler.base import NodeView
from repro.scheduler.binpack import BinpackScheduler
from repro.simulation.events import EventKind
from repro.simulation.runner import run_replay
from repro.trace.borg import synthetic_scaled_trace
from repro.units import gib, mib, pages
from scheduling_reference import RecordingLedger


#: Pod uids in creation order, as an orchestrator numbers its pods.
_uids = itertools.count(1)


def view(name, mem_capacity, mem_used, sgx=False, epc_capacity=0, epc_used=0):
    return NodeView(
        name=name,
        sgx_capable=sgx,
        capacity=ResourceVector(
            memory_bytes=mem_capacity, epc_pages=epc_capacity
        ),
        used=ResourceVector(memory_bytes=mem_used, epc_pages=epc_used),
        committed=ResourceVector(
            memory_bytes=mem_used, epc_pages=epc_used
        ),
    )


def candidate(name, node, mem=0, epc_pages=0, priority=0,
              submitted_at=0.0, lost=0.0):
    pod = Pod(
        make_pod_spec(name, 60.0, declared_memory_bytes=mem,
                      priority=priority),
        submitted_at=submitted_at,
        uid=f"{next(_uids):08d}",
    )
    return EvictionCandidate(
        pod=pod,
        node_name=node,
        freed=ResourceVector(memory_bytes=mem, epc_pages=epc_pages),
        measured_epc_pages=epc_pages,
        lost_work_seconds=lost,
    )


def preemptor(name="vip", mem=0, epc=0, priority=100):
    return Pod(
        make_pod_spec(name, 60.0, declared_memory_bytes=mem,
                      declared_epc_bytes=epc, priority=priority),
        submitted_at=10.0,
        uid=f"{next(_uids):08d}",
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert set(PREEMPTION_POLICIES.names()) >= {
            "none", "lowest-priority-first", "cheapest-victims",
        }

    def test_factories_build_policies(self):
        assert PREEMPTION_POLICIES.get("none")().never_preempts
        assert not PREEMPTION_POLICIES.get("cheapest-victims")(
        ).never_preempts


class TestNoPreemption:
    def test_always_declines(self):
        v = view("n0", gib(10), gib(10))
        plan = NoPreemption().plan(
            preemptor(mem=gib(4)),
            {"n0": v},
            {"n0": [candidate("a", "n0", mem=gib(5))]},
            now=10.0,
        )
        assert plan is None


class TestCheapestVictims:
    def test_prefers_smallest_measured_enclave(self):
        v = view("sgx-0", gib(8), 0, sgx=True,
                 epc_capacity=23000, epc_used=22000)
        small = candidate("small", "sgx-0", epc_pages=6000)
        large = candidate("large", "sgx-0", epc_pages=16000)
        plan = CheapestVictims().plan(
            preemptor(epc=mib(20)),  # 5120 pages; 1000 free
            {"sgx-0": v},
            {"sgx-0": [large, small]},
            now=10.0,
        )
        assert plan is not None
        assert [c.pod.name for c in plan.victims] == ["small"]

    def test_lost_work_makes_a_victim_expensive(self):
        v = view("sgx-0", gib(8), 0, sgx=True,
                 epc_capacity=23000, epc_used=22000)
        fresh = candidate("fresh", "sgx-0", epc_pages=8000, lost=0.0)
        veteran = candidate(
            "veteran", "sgx-0", epc_pages=6000, lost=5000.0
        )
        plan = CheapestVictims().plan(
            preemptor(epc=mib(20)),
            {"sgx-0": v},
            {"sgx-0": [veteran, fresh]},
            now=10.0,
        )
        assert plan is not None
        # 6000 pages + 5000 s of discarded work outprices 8000 pages.
        assert [c.pod.name for c in plan.victims] == ["fresh"]

    def test_zero_victim_plan_when_node_already_fits(self):
        fits = view("n0", gib(10), gib(2))
        full = view("n1", gib(10), gib(9))
        plan = CheapestVictims().plan(
            preemptor(mem=gib(4)),
            {"n0": fits, "n1": full},
            {"n0": [], "n1": [candidate("a", "n1", mem=gib(5))]},
            now=10.0,
        )
        assert plan is not None
        assert plan.node_name == "n0"
        assert plan.victims == ()
        assert plan.cost == 0.0

    def test_greedy_set_is_pruned(self):
        # Cheapest-first greedy picks 1 GiB + 2 GiB + 4 GiB before the
        # demand fits; the backward prune then drops the 1 GiB victim
        # whose contribution the 4 GiB one made redundant.
        v = view("n0", gib(10), gib(9))
        c1 = candidate("one", "n0", mem=gib(1))
        c2 = candidate("two", "n0", mem=gib(2))
        c4 = candidate("four", "n0", mem=gib(4))
        plan = CheapestVictims().plan(
            preemptor(mem=gib(7)),
            {"n0": v},
            {"n0": [c1, c2, c4]},
            now=10.0,
        )
        assert plan is not None
        assert sorted(c.pod.name for c in plan.victims) == ["four", "two"]

    def test_infeasible_everywhere_returns_none(self):
        v = view("n0", gib(10), gib(9))
        plan = CheapestVictims().plan(
            preemptor(mem=gib(20)),  # exceeds capacity outright
            {"n0": v},
            {"n0": [candidate("a", "n0", mem=gib(9))]},
            now=10.0,
        )
        assert plan is None


class TestLowestPriorityFirst:
    def test_evicts_lowest_tier_youngest_first(self):
        v = view("n0", gib(10), gib(9))
        older = candidate(
            "older", "n0", mem=gib(3), priority=0, submitted_at=1.0
        )
        younger = candidate(
            "younger", "n0", mem=gib(3), priority=0, submitted_at=5.0
        )
        mid = candidate(
            "mid", "n0", mem=gib(3), priority=10, submitted_at=0.0
        )
        plan = LowestPriorityFirst().plan(
            preemptor(mem=gib(3)),
            {"n0": v},
            {"n0": [mid, older, younger]},
            now=10.0,
        )
        assert plan is not None
        assert [c.pod.name for c in plan.victims] == ["younger"]

    def test_prefers_node_with_most_junior_victims(self):
        cheap = view("n0", gib(10), gib(9))
        noble = view("n1", gib(10), gib(9))
        plan = LowestPriorityFirst().plan(
            preemptor(mem=gib(3)),
            {"n0": cheap, "n1": noble},
            {
                "n0": [candidate("junior", "n0", mem=gib(3), priority=0)],
                "n1": [candidate("senior", "n1", mem=gib(3), priority=50)],
            },
            now=10.0,
        )
        assert plan is not None
        assert plan.node_name == "n0"


@pytest.fixture
def contended():
    """Both SGX nodes full of low-priority enclaves, one pass executed."""
    cluster = paper_cluster()
    orchestrator = Orchestrator(
        cluster,
        preemption_policy=CheapestVictims(),
        preemption_priority_threshold=100,
    )
    scheduler = BinpackScheduler()
    victims = [
        orchestrator.submit(
            make_pod_spec(
                f"batch-{i}", 600.0, declared_epc_bytes=mib(80)
            ),
            now=float(i),
        )
        for i in range(2)
    ]
    first = orchestrator.scheduling_pass(scheduler, now=2.0)
    assert len(first.launched) == 2
    return orchestrator, scheduler, victims


class TestOrchestratorPreemption:
    def test_high_priority_pod_evicts_and_places_in_one_pass(
        self, contended
    ):
        orchestrator, scheduler, victims = contended
        vip = orchestrator.submit(
            make_pod_spec(
                "vip", 60.0, declared_epc_bytes=mib(80), priority=100
            ),
            now=5.0,
        )
        result = orchestrator.scheduling_pass(scheduler, now=6.0)
        assert result.preemptions == 1
        assert len(result.evicted) == 1
        victim, replacement = result.evicted[0]
        assert victim in victims
        assert victim.phase.value == "Failed"
        assert "preempted by vip" in (victim.failure_reason or "")
        # The replacement keeps the victim's original FCFS slot.
        assert replacement.submitted_at == victim.submitted_at
        assert replacement in orchestrator.queue
        # The preemptor landed on the vacated node, same pass.
        assert vip.node_name == victim.node_name
        assert [pod.name for pod, _ in result.launched] == ["vip"]

    def test_below_threshold_pod_never_preempts(self, contended):
        orchestrator, scheduler, _ = contended
        orchestrator.submit(
            make_pod_spec(
                "meek", 60.0, declared_epc_bytes=mib(80), priority=10
            ),
            now=5.0,
        )
        result = orchestrator.scheduling_pass(scheduler, now=6.0)
        assert result.preemptions == 0
        assert result.evicted == []
        assert [pod.name for pod in result.deferred] == ["meek"]

    def test_none_policy_defers_like_the_paper(self):
        cluster = paper_cluster()
        orchestrator = Orchestrator(cluster)  # no policy at all
        scheduler = BinpackScheduler()
        orchestrator.submit(
            make_pod_spec("batch", 600.0, declared_epc_bytes=mib(80)),
            now=0.0,
        )
        orchestrator.scheduling_pass(scheduler, now=1.0)
        orchestrator.submit(
            make_pod_spec(
                "vip", 60.0, declared_epc_bytes=mib(80), priority=100
            ),
            now=2.0,
        )
        result = orchestrator.scheduling_pass(scheduler, now=3.0)
        # One SGX node is still free: the pod places normally; fill it
        # and the next vip defers rather than evicting.
        orchestrator.submit(
            make_pod_spec(
                "vip-2", 60.0, declared_epc_bytes=mib(80), priority=100
            ),
            now=4.0,
        )
        result = orchestrator.scheduling_pass(scheduler, now=5.0)
        assert result.preemptions == 0
        assert [pod.name for pod in result.deferred] == ["vip-2"]
        assert result.wait_reasons == {"epc": 1}

    def test_eviction_publishes_trigger_events(self, contended):
        orchestrator, scheduler, _ = contended
        orchestrator.submit(
            make_pod_spec(
                "vip", 60.0, declared_epc_bytes=mib(80), priority=100
            ),
            now=5.0,
        )
        # Record only what the pass records.
        ledger = orchestrator.ledger = RecordingLedger()
        orchestrator.scheduling_pass(scheduler, now=6.0)
        kinds = {
            payload["event"]
            for _, kind, payload in ledger.records
            if kind == "trigger"
        }
        # The eviction recorded kill + resubmission events, each a
        # ``trigger`` ledger record.
        assert "pod-killed" in kinds
        assert "pod-submitted" in kinds

    def test_same_pass_placements_are_not_thrashed(self):
        # A pass that just placed a low-priority pod must not evict it
        # for a high-priority pod deferred in the same pass.
        cluster = paper_cluster()
        orchestrator = Orchestrator(
            cluster,
            preemption_policy=CheapestVictims(),
            preemption_priority_threshold=100,
        )
        scheduler = BinpackScheduler()
        for i in range(2):
            orchestrator.submit(
                make_pod_spec(
                    f"batch-{i}", 600.0, declared_epc_bytes=mib(80)
                ),
                now=0.0,
            )
        orchestrator.submit(
            make_pod_spec(
                "vip", 60.0, declared_epc_bytes=mib(160), priority=100
            ),
            now=0.5,
        )
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        # vip (160 MiB) fits no node even empty-of-victims-bound-now;
        # batch pods placed this pass are protected.
        assert result.evicted == []
        launched = {pod.name for pod, _ in result.launched}
        assert launched == {"batch-0", "batch-1"}

    def test_strict_fcfs_head_blocks_younger_preemptors(self):
        # Under strict FCFS an unplaceable queue head blocks every
        # younger pod — preemption must not let a younger high-priority
        # pod (deferred as head_of_line, never examined) jump past it,
        # not even via a zero-victim plan onto free capacity.
        from repro.orchestrator.api import (
            PodSpec,
            ResourceRequirements,
            WorkloadProfile,
        )

        cluster = paper_cluster()
        orchestrator = Orchestrator(
            cluster,
            preemption_policy=CheapestVictims(),
            preemption_priority_threshold=100,
        )
        scheduler = BinpackScheduler(strict_fcfs=True)
        requests = ResourceVector(epc_pages=pages(mib(80)))
        for i in range(2):  # guaranteed: nothing is ever evictable
            orchestrator.submit(
                PodSpec(
                    name=f"guaranteed-{i}",
                    resources=ResourceRequirements(
                        requests=requests, limits=requests
                    ),
                    workload=WorkloadProfile(
                        duration_seconds=600.0,
                        epc_pages=pages(mib(80)),
                    ),
                ),
                now=float(i),
            )
        orchestrator.scheduling_pass(scheduler, now=2.0)
        orchestrator.submit(
            make_pod_spec(
                "vip-huge", 60.0, declared_epc_bytes=mib(90),
                priority=100,
            ),
            now=3.0,
        )
        orchestrator.submit(
            make_pod_spec(
                "vip-small", 60.0, declared_epc_bytes=mib(5),
                priority=100,
            ),
            now=4.0,
        )
        result = orchestrator.scheduling_pass(scheduler, now=5.0)
        # The head cannot be helped (victims are guaranteed); the
        # younger vip-small would fit the leftover EPC, but strict
        # FCFS keeps it behind the head.
        assert result.preemptions == 0
        assert result.evicted == []
        assert [pod.name for pod in result.deferred] == [
            "vip-huge", "vip-small",
        ]
        assert result.wait_reasons == {"epc": 1, "head_of_line": 1}

    def test_guaranteed_victims_are_never_evicted(self):
        cluster = paper_cluster()
        orchestrator = Orchestrator(
            cluster,
            preemption_policy=CheapestVictims(),
            preemption_priority_threshold=100,
        )
        scheduler = BinpackScheduler()
        from repro.orchestrator.api import (
            PodSpec,
            ResourceRequirements,
            WorkloadProfile,
        )

        requests = ResourceVector(epc_pages=pages(mib(80)))
        for i in range(2):
            orchestrator.submit(
                PodSpec(
                    name=f"guaranteed-{i}",
                    resources=ResourceRequirements(
                        requests=requests, limits=requests
                    ),
                    workload=WorkloadProfile(
                        duration_seconds=600.0,
                        epc_pages=pages(mib(80)),
                    ),
                ),
                now=float(i),
            )
        orchestrator.scheduling_pass(scheduler, now=2.0)
        orchestrator.submit(
            make_pod_spec(
                "vip", 60.0, declared_epc_bytes=mib(80), priority=100
            ),
            now=3.0,
        )
        result = orchestrator.scheduling_pass(scheduler, now=4.0)
        assert result.evicted == []
        assert [pod.name for pod in result.deferred] == ["vip"]


class TestLaunchOutcomesInTheLedger:
    def test_a_preemptor_killed_at_launch_is_recorded(self, tmp_path):
        """Regression: a pod placed by preemption and then killed by
        EPC limit enforcement at launch left no ``launch_killed``
        record (10 of 60 kills were missing at seed 1)."""
        path = str(tmp_path / "run.jsonl")
        replay = run_replay(
            Scenario(
                trace=(
                    "borg-synth:seed=7,jobs=300,overallocators=60,"
                    "window=900"
                ),
                sgx_fraction=1.0,
                epc_total_bytes=mib(64),
                workload="priority-mix",
                workload_options={
                    "high_fraction": 0.3,
                    "high_priority": "latency-critical",
                },
                preemption_policy="cheapest-victims",
                enforce_epc_limits=True,
                standard_workers=2,
                sgx_workers=2,
                seed=1,
                observe=ObserveConfig(ledger_path=path),
            )
        )
        events = load_ledger(path).events
        records = [e for e in events if e["kind"] == "launch_killed"]
        killed = sum(e["killed"] for e in events if e["kind"] == "pass_end")
        assert len(records) == killed == 60
        kills = replay.log.of_kind(EventKind.LAUNCH_KILLED)
        assert [(e.pod_name, e.node_name) for e in kills] == [
            (r["pod"], r["node"]) for r in records
        ]
        preemptors = {e["pod"] for e in events if e["kind"] == "preemption"}
        assert preemptors & {r["pod"] for r in records}


class TestHighTierWaits:
    """The preemption headline on a contended two-tier mix, pinned.

    120 pods of a scaled Borg trace, 15% of them latency-critical, all
    SGX on 2 + 2 workers with 64 MiB of EPC: the queue backs up, so
    without preemption the high tier waits behind the batch tier, and
    ``cheapest-victims`` evicts its way in.
    """

    @staticmethod
    def run(policy):
        return Scenario(
            trace=synthetic_scaled_trace(
                seed=7, n_jobs=120, overallocators=12, window_seconds=900.0
            ),
            scheduler="binpack",
            sgx_fraction=1.0,
            seed=1,
            epc_total_bytes=mib(64),
            standard_workers=2,
            sgx_workers=2,
            workload="priority-mix",
            workload_options={
                "high_fraction": 0.15,
                "high_priority": "latency-critical",
            },
            preemption_policy=policy,
        ).run()

    @staticmethod
    def high_tier_p50(result):
        waits = [
            pod.waiting_seconds
            for pod in result.metrics.succeeded
            if pod.spec.labels.get("tier") == "high"
        ]
        assert len(waits) == 17
        return statistics.median(waits)

    def test_cheapest_victims_cuts_the_high_tier_median_wait(self):
        waiting = self.run("none")
        preempting = self.run("cheapest-victims")
        before = self.high_tier_p50(waiting)
        after = self.high_tier_p50(preempting)
        assert round(before, 3) == 9.128
        assert round(after, 3) == 2.47
        assert round(before / after, 1) == 3.7
        assert waiting.preemption_count == waiting.eviction_count == 0
        assert preempting.preemption_count == 9
        assert preempting.eviction_count == 42
        # Two enclaves never fit the 64 MiB EPC; the rest complete.
        assert len(waiting.metrics.succeeded) == 118
        assert len(preempting.metrics.succeeded) == 118
