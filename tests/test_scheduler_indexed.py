"""Indexed batch scheduling: bit-for-bit equivalence with the reference.

The claim of the candidate-index layer: answering each pod from the
per-resource indexes (capacity classes, availability bounds, name
order, dominant-utilisation order, load cache) with incremental
updates between batch placements reproduces the literal per-pod scan
of ``scheduling_reference.py`` exactly — same assignments, same
rejections, same deferrals and wait reasons, same view mutations, same
ledger records — across every strategy and flag combination, as the
default full-scan pass does.  End to end, whole replays (requeues,
node churn, rebalancer migrations) are identical on both passes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.cluster.resources import ResourceVector
from repro.orchestrator.api import PodSpec, ResourceRequirements
from repro.orchestrator.pod import Pod
from repro.scheduler import (
    BinpackScheduler,
    KubeDefaultScheduler,
    NodeView,
    Scheduler,
    SpreadScheduler,
)
from repro.scheduler.index import NodeCandidateIndex, SelectionStats
from repro.simulation.runner import run_replay
from repro.trace.borg import synthetic_scaled_trace
from repro.units import gib, mib
from scheduling_reference import RecordingLedger, reference_schedule


def make_view(
    name, sgx=False, cpu=8000, mem=gib(64), epc=0, used=None, committed=None
):
    return NodeView(
        name=name,
        sgx_capable=sgx,
        capacity=ResourceVector(cpu, mem, epc),
        used=used or ResourceVector.zero(),
        committed=committed or ResourceVector.zero(),
    )


def make_pod(name, cpu=0, mem=0, epc=0, submitted_at=0.0):
    spec = PodSpec(
        name=name,
        resources=ResourceRequirements(
            requests=ResourceVector(cpu, mem, epc)
        ),
    )
    return Pod(spec, submitted_at=submitted_at, uid=name)


def clone_views(views):
    return [
        NodeView(
            name=view.name,
            sgx_capable=view.sgx_capable,
            capacity=view.capacity,
            used=view.used,
            committed=view.committed,
        )
        for view in views
    ]


def outcome_signature(outcome):
    return (
        [(a.pod.name, a.node_name) for a in outcome.assignments],
        [pod.name for pod in outcome.unschedulable],
        [pod.name for pod in outcome.deferred],
        list(outcome.wait_reasons.items()),
    )


def views_signature(views):
    return [(v.name, v.used, v.committed) for v in views]


def ledger_signature(ledger, runner_ups=True):
    """The ledger's records; *runner_ups* False drops that placement
    field, which the indexed pass reports as -1 (not counted)."""
    return [
        (
            now,
            kind,
            {
                key: value
                for key, value in payload.items()
                if runner_ups or key != "runner_ups"
            },
        )
        for now, kind, payload in ledger.records
    ]


# -- hypothesis: one pass, adversarial views and queues ------------------

_vec = st.builds(
    ResourceVector,
    cpu_millicores=st.integers(0, 4000),
    memory_bytes=st.sampled_from([0, mib(512), gib(1), gib(4), gib(64)]),
    epc_pages=st.integers(0, 4096),
)

_view_strategy = st.builds(
    dict,
    sgx=st.booleans(),
    capacity=_vec,
    used=_vec,
    committed=_vec,
)

_pod_strategy = st.builds(
    dict,
    cpu=st.integers(0, 4000),
    mem=st.sampled_from([0, mib(512), gib(1), gib(4), gib(32)]),
    epc=st.integers(0, 4096),
)


class DecliningScheduler(Scheduler):
    """A custom strategy that defers odd-CPU pods despite candidates."""

    name = "declining"

    def _select(self, pod, candidates, views):
        if pod.spec.resources.requests.cpu_millicores % 2:
            return None
        return candidates[-1]


def build_schedulers(kind, use_measured, strict, preserve, indexed):
    if kind == "kube-default":
        scheduler = KubeDefaultScheduler(
            strict_fcfs=strict, indexed=indexed
        )
        # Not a constructor knob of the baseline; toggled to cover the
        # merged-pool fallback of the indexed path too.
        scheduler.preserve_sgx_nodes = preserve
        return scheduler
    cls = {
        "binpack": BinpackScheduler,
        "spread": SpreadScheduler,
        "declining": DecliningScheduler,
    }[kind]
    return cls(
        use_measured=use_measured,
        strict_fcfs=strict,
        preserve_sgx_nodes=preserve,
        indexed=indexed,
    )


class TestPassEquivalence:
    """Both passes against the literal per-pod scan of the reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(
            ["binpack", "spread", "kube-default", "declining"]
        ),
        use_measured=st.booleans(),
        strict=st.booleans(),
        preserve=st.booleans(),
        raw_views=st.lists(_view_strategy, min_size=0, max_size=8),
        raw_pods=st.lists(_pod_strategy, min_size=0, max_size=10),
    )
    def test_single_pass_bit_for_bit(
        self, kind, use_measured, strict, preserve, raw_views, raw_pods
    ):
        views = [
            NodeView(
                name=f"n{i:03d}",
                sgx_capable=raw["sgx"],
                capacity=raw["capacity"],
                used=raw["used"],
                committed=raw["committed"],
            )
            for i, raw in enumerate(raw_views)
        ]
        pods = [
            make_pod(f"p{i:03d}", submitted_at=float(i), **raw)
            for i, raw in enumerate(raw_pods)
        ]
        reference = build_schedulers(
            kind, use_measured, strict, preserve, indexed=False
        )
        reference.ledger = RecordingLedger()
        reference_views = clone_views(views)
        expected = reference_schedule(
            reference, pods, reference_views, now=100.0
        )
        for indexed in (False, True):
            scheduler = build_schedulers(
                kind, use_measured, strict, preserve, indexed=indexed
            )
            scheduler.ledger = RecordingLedger()
            scheduler_views = clone_views(views)
            outcome = scheduler.schedule(pods, scheduler_views, now=100.0)
            # Deferral order and wait reasons included: the reference's
            # fresh scan, the default pass's per-class free maxima and
            # the index's tree-root maxima name the same binding
            # dimension for every deferred pod.
            assert outcome_signature(outcome) == outcome_signature(expected)
            assert views_signature(scheduler_views) == views_signature(
                reference_views
            )
            assert ledger_signature(
                scheduler.ledger, runner_ups=not indexed
            ) == ledger_signature(reference.ledger, runner_ups=not indexed)
        assert reference.last_selection_stats is None
        stats = scheduler.last_selection_stats
        assert stats is not None and stats.pods == len(pods)
        assert stats.placements == len(outcome.assignments)
        assert stats.wait_reasons == outcome.wait_reasons

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(
            ["binpack", "spread", "kube-default", "declining"]
        ),
        raw_views=st.lists(_view_strategy, min_size=1, max_size=6),
        batches=st.lists(
            st.lists(_pod_strategy, min_size=0, max_size=5),
            min_size=2,
            max_size=4,
        ),
    )
    def test_consecutive_batches_reuse_statics(
        self, kind, raw_views, batches
    ):
        """Multi-pass runs stay equivalent while the membership statics
        are served from the scheduler's cross-pass cache."""
        views = [
            NodeView(
                name=f"n{i:03d}",
                sgx_capable=raw["sgx"],
                capacity=raw["capacity"],
                used=raw["used"],
                committed=raw["committed"],
            )
            for i, raw in enumerate(raw_views)
        ]
        reference = build_schedulers(kind, True, False, True, indexed=False)
        indexed = build_schedulers(kind, True, False, True, indexed=True)
        reference_views = clone_views(views)
        indexed_views = clone_views(views)
        counter = 0
        for round_number, batch in enumerate(batches):
            pods = []
            for raw in batch:
                pods.append(
                    make_pod(
                        f"p{counter:03d}",
                        submitted_at=float(counter),
                        **raw,
                    )
                )
                counter += 1
            a = reference_schedule(
                reference, pods, reference_views, now=100.0
            )
            b = indexed.schedule(pods, indexed_views, now=100.0)
            assert outcome_signature(b) == outcome_signature(a)
            assert views_signature(indexed_views) == views_signature(
                reference_views
            )
            stats = indexed.last_selection_stats
            assert stats.statics_reused == (round_number > 0)


# -- targeted index behaviour --------------------------------------------

class TestIndexInternals:
    def test_capacity_classes_answer_can_ever_fit(self):
        views = [
            make_view("a", cpu=1000, mem=gib(1)),
            make_view("b", cpu=1000, mem=gib(1)),
            make_view("sgx-a", sgx=True, cpu=1000, mem=gib(1), epc=100),
        ]
        index = NodeCandidateIndex(views)
        assert index.can_ever_fit(make_pod("std", mem=gib(1)))
        assert not index.can_ever_fit(make_pod("huge", mem=gib(2)))
        assert index.can_ever_fit(make_pod("enclave", epc=100))
        assert not index.can_ever_fit(make_pod("too-big", epc=101))
        # Only SGX capacities count for an SGX pod, however roomy the
        # standard nodes are.
        assert not index.can_ever_fit(
            make_pod("enclave-ram", mem=gib(1), epc=101)
        )

    def test_tree_roots_answer_saturated_queries_in_o1(self):
        views = [
            make_view("a", cpu=100, mem=mib(512)),
            make_view("b", cpu=100, mem=mib(512)),
        ]
        stats = SelectionStats()
        index = NodeCandidateIndex(views, stats=stats)
        pod = make_pod("big", mem=gib(1))
        assert index.candidates(pod, preserve=True) == []
        checks_after_first = stats.feasibility_checks
        assert index.candidates(pod, preserve=True) == []
        # Both queries are answered from the availability-tree roots
        # without touching any per-node state.
        assert stats.feasibility_checks == checks_after_first
        assert stats.bound_skips >= 1

    def test_tree_tracks_in_batch_reservations(self):
        views = [make_view("a", cpu=1000, mem=gib(1))]
        index = NodeCandidateIndex(views)
        pod = make_pod("filler", mem=gib(1))
        chosen = index.first_fit(pod, preserve=True)
        assert chosen is views[0]
        chosen.reserve(pod.spec.resources.requests)
        index.note_reserved(chosen)
        # The reservation propagated to the tree root: the next query
        # is rejected outright, without any per-node feasibility work.
        checks_before = index.stats.feasibility_checks
        assert index.first_fit(make_pod("late", mem=gib(1)), True) is None
        assert index.stats.feasibility_checks == checks_before
        assert index.stats.bound_skips >= 1

    def test_first_fit_backtracks_across_split_maxima(self):
        """A parent's per-dimension maxima can come from different
        children; the descent must not trust an inner admit."""
        views = [
            make_view("a", cpu=4000, mem=mib(512)),
            make_view("b", cpu=100, mem=gib(8)),
            make_view("c", cpu=4000, mem=gib(8)),
        ]
        index = NodeCandidateIndex(views)
        pod = make_pod("picky", cpu=2000, mem=gib(4))
        assert index.first_fit(pod, preserve=True) is views[2]

    def test_selection_stats_reach_pass_result(self):
        from repro.cluster.topology import paper_cluster
        from repro.orchestrator.api import make_pod_spec
        from repro.orchestrator.controller import Orchestrator

        orchestrator = Orchestrator(paper_cluster())
        scheduler = BinpackScheduler(indexed=True)
        orchestrator.submit(
            make_pod_spec(
                "only",
                duration_seconds=10.0,
                declared_memory_bytes=gib(1),
            ),
            now=0.0,
        )
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert result.selection is not None
        assert result.selection.pods == 1
        oracle_result = orchestrator.scheduling_pass(
            BinpackScheduler(), now=2.0
        )
        assert oracle_result.selection is None


# -- whole replays -------------------------------------------------------

@pytest.fixture(scope="module")
def small_trace():
    return synthetic_scaled_trace(seed=7, n_jobs=40, overallocators=4)


def pod_signature(result):
    return [
        (
            pod.name,
            pod.phase.value,
            pod.submitted_at,
            pod.bound_at,
            pod.started_at,
            pod.finished_at,
            pod.node_name,
        )
        for pod in result.metrics.pods
    ]


REPLAY_CONFIGS = [
    dict(scheduler="binpack", sgx_fraction=0.5, seed=1),
    dict(scheduler="spread", sgx_fraction=0.5, seed=4),
    dict(scheduler="kube-default", sgx_fraction=0.5, seed=1),
    dict(
        scheduler="binpack",
        sgx_fraction=1.0,
        seed=1,
        enforce_epc_limits=True,
        epc_allow_overcommit=False,
    ),
    # Transient launch failures: requeues with FCFS-preserving backoff.
    dict(
        scheduler="binpack",
        sgx_fraction=1.0,
        seed=1,
        epc_allow_overcommit=False,
        requeue_backoff_seconds=30.0,
    ),
    # Node churn: the index statics cache must turn over cleanly.
    dict(
        scheduler="binpack",
        sgx_fraction=1.0,
        seed=1,
        node_failures=((600.0, "sgx-worker-0"),),
    ),
    dict(
        scheduler="spread",
        sgx_fraction=1.0,
        seed=2,
        node_failures=((400.0, "worker-1"), (900.0, "sgx-worker-1")),
    ),
    # Rebalancer live migrations change occupancy between passes.
    dict(scheduler="binpack", sgx_fraction=1.0, seed=1,
         rebalance_period=15.0),
    # The strict head-of-line variant defers whole tails.
    dict(scheduler="binpack", sgx_fraction=1.0, seed=3, strict_fcfs=True),
    # Ablations: no node preservation / declared-only feasibility.
    dict(scheduler="binpack", sgx_fraction=0.5, seed=1,
         preserve_sgx_nodes=False),
    dict(scheduler="spread", sgx_fraction=0.5, seed=1,
         use_measured=False),
]


class TestReplayEquivalence:
    @pytest.mark.parametrize(
        "kwargs", REPLAY_CONFIGS,
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bit_for_bit_replay(self, small_trace, kwargs):
        oracle = run_replay(Scenario(trace=small_trace, **kwargs))
        indexed = run_replay(
            Scenario(trace=small_trace, indexed_scheduling=True, **kwargs)
        )
        assert pod_signature(indexed) == pod_signature(oracle)
        assert (
            indexed.metrics.makespan_seconds
            == oracle.metrics.makespan_seconds
        )
        assert indexed.metrics.queue_series == oracle.metrics.queue_series
        assert indexed.passes_executed == oracle.passes_executed

    def test_indexed_replay_is_deterministic(self, small_trace):
        scenario = Scenario(
            trace=small_trace,
            scheduler="binpack",
            sgx_fraction=1.0,
            seed=5,
            indexed_scheduling=True,
        )
        a = run_replay(scenario)
        b = run_replay(scenario)
        assert pod_signature(a) == pod_signature(b)


class TestUnplacement:
    """O(log n) un-placement: the preemption step's index updates."""

    def _sgx_views(self):
        return [
            make_view(f"sgx-{i}", sgx=True, epc=4096) for i in range(4)
        ]

    def test_note_released_restores_first_fit(self):
        views = self._sgx_views()
        index = NodeCandidateIndex(views)
        pod = make_pod("enclave", epc=4096)
        big = ResourceVector(epc_pages=4096)
        # Saturate the first two nodes in name order.
        for view in views[:2]:
            view.reserve(big)
            index.note_reserved(view)
        assert index.first_fit(pod, True).name == "sgx-2"
        # Evict from sgx-0: first fit must return to it.
        views[0].release(big)
        index.note_released(views[0])
        assert index.first_fit(pod, True).name == "sgx-0"

    def test_released_index_equals_freshly_built(self):
        views = self._sgx_views()
        index = NodeCandidateIndex(views)
        delta = ResourceVector(epc_pages=1000)
        for view in views:
            view.reserve(delta)
            index.note_reserved(view)
        views[2].release(delta)
        index.note_released(views[2])
        fresh = NodeCandidateIndex(clone_views(views))
        pod = make_pod("probe", epc=3500)
        assert index.sgx.root == fresh.sgx.root
        assert (
            index.first_fit(pod, True).name
            == fresh.first_fit(pod, True).name
        )
        assert [v.name for v in index.candidates(pod, True)] == [
            v.name for v in fresh.candidates(pod, True)
        ]

    def test_release_updates_load_order(self):
        views = self._sgx_views()
        index = NodeCandidateIndex(views)
        delta = ResourceVector(epc_pages=2048)
        views[0].reserve(delta)
        index.note_reserved(views[0])
        by_load = [name for _, v in index.sgx.iter_by_load()
                   for name in [v.name]]
        assert by_load[-1] == "sgx-0"
        views[0].release(delta)
        index.note_released(views[0])
        loads = dict(
            (v.name, load) for load, v in index.sgx.iter_by_load()
        )
        assert loads["sgx-0"] == 0.0

    def test_availability_maxima_matches_linear_scan(self):
        views = [
            make_view("std-0", mem=gib(64)),
            make_view("sgx-0", sgx=True, mem=gib(8), epc=4096),
            make_view("sgx-1", sgx=True, mem=gib(8), epc=4096),
        ]
        views[1].reserve(ResourceVector(epc_pages=3000))
        index = NodeCandidateIndex(views)
        sgx_pod = make_pod("enclave", epc=1)
        std_pod = make_pod("standard", mem=1)

        def scan(requires_sgx):
            eligible = [
                v for v in views if v.sgx_capable or not requires_sgx
            ]
            return (
                max(v.available.cpu_millicores for v in eligible),
                max(v.available.memory_bytes for v in eligible),
                max(v.available.epc_pages for v in eligible),
            )

        assert index.availability_maxima(sgx_pod) == scan(True)
        assert index.availability_maxima(std_pod) == scan(False)
