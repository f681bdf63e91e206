"""Per-node view rebuilds equal the whole-cluster build.

``ClusterStateService.build_views`` keeps each admitted pod's share of
its node's view and updates only the pods named in the one change log
the window-max store and the kubelets file into, rebuilding only their
nodes' views; it serves its own views and puts back, at the next
build, what a pass rebound on them.  Every build here is compared,
field for field and in kubelet order, with ``tests/view_reference.py``,
which rebuilds every view from a full Listing 1 scan over every pod's
sample at every collection: over replays that requeue, kill at the EPC
limit and evict, over SGX 2 bursts that grow and shrink enclaves
through the kubelet, and over orchestrators driven op by op through
submissions, completions, SGX 2 resizes and collections that pause for
longer than the window.  The last tests pin how many views the
benchmark's scenarios build and how often they serve the retained
snapshot, and how many time-index entries the store's expiry pops.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pass_reuse_reference import run_with_replay
from repro.api import ObserveConfig, Scenario
from repro.cluster.resources import ResourceVector
from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import paper_cluster
from repro.errors import NodeError, SchedulingError, SgxError
from repro.experiments.ext_sgx2 import _BurstyRun, generate_bursty_jobs
from repro.monitoring import aggregate
from repro.monitoring.aggregate import WindowedAggregateCache
from repro.monitoring.probe import MEASUREMENT_EPC
from repro.obs import load_ledger
from repro.orchestrator.api import PodPhase, make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.kubelet import Kubelet
from repro.orchestrator.pod import Pod
from repro.scheduler.base import ClusterStateService, NodeView
from repro.scheduler.binpack import BinpackScheduler
from repro.scheduler.kube_default import KubeDefaultScheduler
from repro.scheduler.spread import SpreadScheduler
from repro.simulation.runner import run_replay
from repro.trace.borg import synthetic_scaled_trace
from repro.units import gib, mib
from view_reference import checking


def replay_scenario(
    trace_seed, seed, n_jobs, sgx_fraction, scheduler, preempting,
    limits, overcommit,
):
    """A small contended replay on two SGX nodes and one standard one."""
    knobs = dict(
        trace=synthetic_scaled_trace(
            seed=trace_seed,
            n_jobs=n_jobs,
            overallocators=max(1, n_jobs // 10),
            window_seconds=120.0,
        ),
        sgx_fraction=sgx_fraction,
        seed=seed,
        scheduler=scheduler,
        epc_total_bytes=mib(64),
        standard_workers=1,
        sgx_workers=2,
        enforce_epc_limits=limits,
        epc_allow_overcommit=overcommit,
    )
    if preempting:
        knobs.update(
            workload="priority-mix",
            workload_options={
                "high_fraction": 0.25,
                "high_priority": "latency-critical",
            },
            preemption_policy="cheapest-victims",
        )
    return Scenario(**knobs)


REPLAYS = dict(
    trace_seed=st.integers(min_value=0, max_value=1_000),
    seed=st.integers(min_value=0, max_value=1_000),
    n_jobs=st.integers(min_value=8, max_value=24),
    sgx_fraction=st.sampled_from([0.5, 1.0]),
    # kube-default builds its passes from declared commitments only.
    scheduler=st.sampled_from(["binpack", "spread", "kube-default"]),
    preempting=st.booleans(),
    limits=st.booleans(),
    overcommit=st.booleans(),
)


def checked_replay(scenario):
    """Replay *scenario* with every view build checked; returns the
    live replay and the number of builds checked."""
    with checking() as checked:
        _, replay = run_with_replay(scenario)
    return replay, checked[0]


@given(**REPLAYS)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_replayed_builds_equal_the_reference(**knobs):
    _, checked = checked_replay(replay_scenario(**knobs))
    assert checked > 0


def test_the_replay_regime_exercises_every_input():
    """Guard: the regime above really kills at the EPC limit and evicts,
    and rebuilds only some of the nodes per build."""
    knobs = dict(
        trace_seed=7, seed=1, n_jobs=24, sgx_fraction=1.0,
        scheduler="binpack",
    )
    requeuing, _ = checked_replay(
        replay_scenario(
            **knobs, preempting=False, limits=True, overcommit=False,
        ),
    )
    assert any(
        pod.phase is PodPhase.FAILED
        and pod.failure_reason.startswith("EPC limit enforcement")
        for pod in requeuing.orchestrator.all_pods
    )
    evicting, builds = checked_replay(
        replay_scenario(
            **knobs, preempting=True, limits=False, overcommit=True,
        ),
    )
    assert evicting.eviction_count > 0
    service = evicting.orchestrator.state_service
    rebuilding = builds - service.snapshots_reused
    assert rebuilding > 0
    assert service.nodes_rebuilt < 3 * rebuilding


def test_requeues_happen_without_overcommit(tmp_path):
    """Guard for the ``overcommit=False`` half of the regime."""
    path = str(tmp_path / "run.jsonl")
    checked_replay(
        replay_scenario(
            trace_seed=7, seed=1, n_jobs=24, sgx_fraction=1.0,
            scheduler="binpack", preempting=False, limits=True,
            overcommit=False,
        ).with_(observe=ObserveConfig(ledger_path=path)),
    )
    events = load_ledger(path).events
    assert any(event["kind"] == "requeue" for event in events)


@given(
    seed=st.integers(min_value=0, max_value=1_000),
    n_jobs=st.integers(min_value=4, max_value=16),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sgx2_bursts_equal_the_reference(seed, n_jobs):
    """``ext-sgx2``'s bursty jobs grow their enclaves through the
    kubelet (EAUG, retried while the EPC is full) and shrink them
    back: every live value change reaches the views, and the store
    files every job's EPC series in the one change log."""
    jobs = generate_bursty_jobs(
        n_jobs=n_jobs, seed=seed, window_seconds=300.0
    )
    named = set()
    # The measurement of the store call under way; the kubelets' own
    # filings (admissions, teardowns) happen outside any.
    measuring = [None]
    file_change = aggregate.file_change

    def filing(changes, nodename, pod_name):
        if measuring[0] == MEASUREMENT_EPC:
            named.add(pod_name)
        file_change(changes, nodename, pod_name)

    def measured(method):
        def call(store, measurement, *args):
            measuring[0] = measurement
            try:
                return method(store, measurement, *args)
            finally:
                measuring[0] = None

        return call

    store = WindowedAggregateCache
    with checking() as checked, mock.patch.object(
        aggregate, "file_change", filing
    ), mock.patch.object(
        store, "report", measured(store.report)
    ), mock.patch.object(
        store, "node_states", measured(store.node_states)
    ):
        run = _BurstyRun(jobs, sgx_version=2)
        run.run()
        assert run.orchestrator.aggregate_cache.changes is (
            run.orchestrator.state_service.changes
        )
    assert checked[0] > 0
    assert named == {job.name for job in jobs}


# -- orchestrators driven op by op -------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.booleans(), st.integers(1, 40)),
        st.tuples(st.just("tick"), st.sampled_from([2.5, 5.0, 10.0, 30.0])),
        # Time passes without a collection: a later query may find the
        # last collection more than a window old.
        st.tuples(st.just("wait"), st.sampled_from([5.0, 20.0, 40.0])),
        st.tuples(st.just("pass"), st.integers(0, 2)),
        st.tuples(st.just("views")),
        st.tuples(st.just("finish"), st.integers(0, 50)),
        st.tuples(st.just("grow"), st.integers(0, 50), st.integers(1, 12)),
        st.tuples(st.just("shrink"), st.integers(0, 50), st.integers(1, 12)),
    ),
    max_size=40,
)


def _placed(orchestrator):
    return [
        pod
        for pod in orchestrator.all_pods
        if pod.phase in (PodPhase.BOUND, PodPhase.RUNNING)
    ]


@given(ops=_OPS)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_driven_builds_equal_the_reference(ops):
    orchestrator = Orchestrator(
        paper_cluster(
            epc_total_bytes=mib(64), standard_workers=1, sgx_version=2
        )
    )
    schedulers = [
        BinpackScheduler(),
        SpreadScheduler(),
        KubeDefaultScheduler(),
    ]
    now = 0.0
    submitted = 0
    with checking() as checked:
        for op in ops:
            kind = op[0]
            if kind == "submit":
                submitted += 1
                spec = (
                    make_pod_spec(
                        f"sgx-{submitted}",
                        duration_seconds=60.0,
                        declared_epc_bytes=mib(op[2]),
                        actual_epc_bytes=mib(op[2] // 2 + 1),
                    )
                    if op[1]
                    else make_pod_spec(
                        f"std-{submitted}",
                        duration_seconds=60.0,
                        declared_memory_bytes=gib(op[2] % 8 + 1),
                    )
                )
                orchestrator.submit(spec, now)
            elif kind == "tick":
                now += op[1]
                orchestrator.collect_metrics(now)
            elif kind == "wait":
                now += op[1]
            elif kind == "pass":
                orchestrator.scheduling_pass(schedulers[op[1]], now)
            elif kind == "views":
                orchestrator.state_service.build_views(now)
            elif kind == "finish":
                placed = _placed(orchestrator)
                if placed:
                    pod = placed[op[1] % len(placed)]
                    if pod.phase is PodPhase.BOUND:
                        orchestrator.start_pod(pod, now)
                    orchestrator.complete_pod(pod, now)
            else:
                # An SGX 2 resize through the kubelet (EAUG or
                # EREMOVE): a grown maximum outlives the shrink by a
                # window, then the smaller value resurfaces.  A resize
                # past the pod's limit, the free EPC or its pages fails
                # and changes nothing.
                placed = [
                    pod for pod in _placed(orchestrator) if pod.requires_sgx
                ]
                if placed:
                    pod = placed[op[1] % len(placed)]
                    kubelet = orchestrator.kubelets[pod.node_name]
                    resize = (
                        kubelet.grow_pod_epc
                        if kind == "grow"
                        else kubelet.shrink_pod_epc
                    )
                    try:
                        resize(pod, op[2] * 64)
                    except (NodeError, SgxError):
                        pass
        # Let every sample taken so far age out of the window, then
        # pause collections past it and resume them.
        for _ in range(3):
            orchestrator.state_service.build_views(now)
            now += 15.0
            orchestrator.collect_metrics(now)
        now += 40.0
        orchestrator.state_service.build_views(now)
        orchestrator.collect_metrics(now)
        orchestrator.state_service.build_views(now)
    assert checked[0] > 0


# -- exactly the moved nodes ------------------------------------------------


@pytest.fixture
def placed():
    """An orchestrator with one running pod on each of two SGX 2 nodes
    (4 of their 8 MiB in use) and a first build behind it; every build
    is checked."""
    with checking():
        orchestrator = Orchestrator(paper_cluster(sgx_version=2))
        for index in range(2):
            orchestrator.submit(
                make_pod_spec(
                    f"sgx-{index}",
                    duration_seconds=600.0,
                    declared_epc_bytes=mib(8),
                    actual_epc_bytes=mib(4),
                ),
                now=0.0,
            )
        orchestrator.scheduling_pass(SpreadScheduler(), now=0.0)
        pods = orchestrator.all_pods
        for pod in pods:
            orchestrator.start_pod(pod, now=0.5)
        assert pods[0].node_name != pods[1].node_name
        orchestrator.collect_metrics(now=1.0)
        orchestrator.state_service.build_views(1.0)
        yield orchestrator, pods


def test_a_change_to_one_node_rebuilds_exactly_that_node(placed):
    orchestrator, (kept, finished) = placed
    service = orchestrator.state_service
    before = {view.name: view for view in service._last_views}
    rebuilt = service.nodes_rebuilt

    # Nothing moved: the retained snapshot is served again.
    service.build_views(2.0)
    assert service.snapshots_reused == 1
    assert service.nodes_rebuilt == rebuilt

    # One commitment moved: only its node is rebuilt.
    orchestrator.complete_pod(finished, now=3.0)
    service.build_views(3.0)
    assert service.nodes_rebuilt == rebuilt + 1
    after = {view.name: view for view in service._last_views}
    assert after[finished.node_name] is not before[finished.node_name]
    assert all(
        after[name] is before[name]
        for name in before
        if name != finished.node_name
    )

    # One window maximum rose (an SGX 2 burst): only its node is
    # rebuilt; the finished pod's series ends without a change.
    kubelet = orchestrator.kubelets[kept.node_name]
    kubelet.grow_pod_epc(kept, 1024)
    orchestrator.collect_metrics(4.0)
    service.build_views(4.0)
    assert service.nodes_rebuilt == rebuilt + 2
    latest = {view.name: view for view in service._last_views}
    assert latest[kept.node_name].used.epc_pages == 2048
    assert all(
        latest[name] is after[name]
        for name in after
        if name != kept.node_name
    )

    # The burst ends and ages out of the window, and the finished
    # pod's series die: exactly those two nodes are rebuilt, at a walk.
    kubelet.shrink_pod_epc(kept, 1024)
    for now in (10.0, 20.0, 30.0):
        orchestrator.collect_metrics(now)
    service.build_views(30.0)
    assert service.nodes_rebuilt == rebuilt + 4
    final = {view.name: view for view in service._last_views}
    assert final[kept.node_name].used == after[kept.node_name].used
    moved = {kept.node_name, finished.node_name}
    assert all(
        final[name] is latest[name] for name in latest if name not in moved
    )


# -- served views, no clones -------------------------------------------------


def test_a_served_view_is_reset_at_the_next_build(placed):
    """The service serves its own view objects.  Each way a pass
    rebinds one — a placement's reserve, a preemption's release,
    kube-default's declared-only pass and a reused pass — is put back
    by the next build, which serves the same objects again with their
    pristine vectors, without rebuilding a node."""
    orchestrator, _ = placed
    service = orchestrator.state_service
    served = service.build_views(2.0)
    pristine = [(view.used, view.committed) for view in served]
    rebuilt = service.nodes_rebuilt
    sgx = next(
        index for index, view in enumerate(served) if view.used.epc_pages
    )
    freed = ResourceVector(epc_pages=64)
    # A pod no node can take now (8 of 93.5 MiB committed on each SGX
    # node): kube-default defers it, then reuses that outcome.
    orchestrator.submit(
        make_pod_spec("waits", 600.0, declared_epc_bytes=mib(90)), now=2.0
    )
    kube_default = KubeDefaultScheduler()
    rebinds = [
        ("reserve", lambda now: service.build_views(now)[sgx].reserve(freed)),
        ("release", lambda now: service.build_views(now)[sgx].release(freed)),
        ("kube-default", lambda now: orchestrator.scheduling_pass(
            kube_default, now
        )),
        ("reused pass", lambda now: orchestrator.scheduling_pass(
            kube_default, now
        )),
    ]
    now = 3.0
    for name, rebind in rebinds:
        rebind(now)
        assert [
            (view.used, view.committed) for view in served
        ] != pristine, name
        now += 1.0
        again = service.build_views(now)
        assert all(
            view is kept for view, kept in zip(again, served, strict=True)
        ), name
        assert [(view.used, view.committed) for view in again] == pristine
        now += 1.0
    assert orchestrator.passes_reused == 1
    assert service.nodes_rebuilt == rebuilt


# -- the one log -------------------------------------------------------------


def test_the_service_refuses_a_kubelet_with_its_own_log():
    """A kubelet that files into a log of its own would leave the
    service deaf to its admissions and teardowns (a pod too young for
    samples would not count at its declared requests), so a service
    built from default-constructed parts raises.  Kubelets built on
    the store's log are heard."""
    with pytest.raises(SchedulingError, match="'sgx-0'"):
        ClusterStateService(
            [Kubelet(Node(NodeSpec.sgx("sgx-0")))], WindowedAggregateCache()
        )
    store = WindowedAggregateCache()
    kubelet = Kubelet(Node(NodeSpec.sgx("sgx-0")), changes=store.changes)
    service = ClusterStateService([kubelet], store)
    (empty,) = service.build_views(0.0)
    assert empty.used == empty.committed == ResourceVector.zero()
    spec = make_pod_spec("young", 60.0, declared_epc_bytes=mib(8))
    pod = Pod(spec, submitted_at=0.0, uid="1")
    pod.mark_bound("sgx-0", 0.0)
    assert kubelet.admit(pod).success
    (young,) = service.build_views(1.0)
    assert young.committed == spec.resources.requests
    assert young.used.epc_pages == spec.resources.requests.epc_pages
    kubelet.terminate(pod)
    (gone,) = service.build_views(2.0)
    assert gone.used == gone.committed == ResourceVector.zero()


# -- the counts a change to the service must keep ---------------------------


def test_view_build_counters_are_pinned():
    """How many node views the benchmark scenarios rebuild and how
    often they serve the retained snapshot (or reuse a pass on it), at
    seed 1: ``borg-steady``'s cluster, where a few of 48 nodes move per
    pass, and ``epc-contended``'s two EPC sizes, where most passes see
    nothing move."""
    steady = run_replay(
        Scenario(
            trace="borg-synth:seed=1,jobs=3000,overallocators=300",
            sgx_fraction=0.5,
            standard_workers=24,
            sgx_workers=24,
            seed=1,
        )
    ).orchestrator
    service = steady.state_service
    assert (service.nodes_rebuilt, service.snapshots_reused) == (4432, 0)
    contended = [
        run_replay(
            Scenario(
                trace="borg-synth:seed=42,jobs=500,window=5m",
                sgx_fraction=0.9,
                epc_total_bytes=mib(epc),
                standard_workers=1,
                sgx_workers=1,
                seed=1,
            )
        ).orchestrator
        for epc in (64, 128)
    ]
    assert [
        (
            orchestrator.state_service.nodes_rebuilt,
            orchestrator.state_service.snapshots_reused,
        )
        for orchestrator in contended
    ] == [(1062, 2025), (846, 635)]
    assert sum(orchestrator.passes_reused for orchestrator in contended) == (
        2660
    )


def test_steady_work_follows_change():
    """``borg-steady`` at seed 1: the service builds a view only for a
    node the change log names (no per-pass copies of the 48), and the
    store's expiry pops one time-index entry per series it moves,
    visiting no other series."""
    built, popped, moved, expiring = [0], [0], [0], [False]
    init = NodeView.__init__
    heappop = aggregate.heappop
    file_change = aggregate.file_change
    expire = WindowedAggregateCache._expire

    def building(view, *args, **kwargs):
        built[0] += 1
        init(view, *args, **kwargs)

    def popping(heap):
        popped[0] += 1
        return heappop(heap)

    def filing(changes, nodename, pod_name):
        moved[0] += expiring[0]
        file_change(changes, nodename, pod_name)

    def expiry(store, state, cutoff):
        expiring[0] = True
        try:
            expire(store, state, cutoff)
        finally:
            expiring[0] = False

    with mock.patch.object(
        NodeView, "__init__", building
    ), mock.patch.object(
        aggregate, "heappop", popping
    ), mock.patch.object(
        aggregate, "file_change", filing
    ), mock.patch.object(
        WindowedAggregateCache, "_expire", expiry
    ):
        service = run_replay(
            Scenario(
                trace="borg-synth:seed=1,jobs=3000,overallocators=300",
                sgx_fraction=0.5,
                standard_workers=24,
                sgx_workers=24,
                seed=1,
            )
        ).orchestrator.state_service
    assert built[0] == service.nodes_rebuilt == 4432
    assert popped[0] == moved[0] == 2819
