"""Property-based tests: scheduler safety invariants.

Whatever the workload, no strategy may (a) place an SGX pod on a node
without SGX, (b) over-commit any node dimension within a pass, or
(c) violate FCFS priority among same-feasibility pods.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.orchestrator.api import PodSpec, ResourceRequirements
from repro.orchestrator.pod import Pod
from repro.scheduler.base import NodeView
from repro.scheduler.binpack import BinpackScheduler
from repro.scheduler.kube_default import KubeDefaultScheduler
from repro.scheduler.spread import SpreadScheduler
from repro.units import gib

pod_strategy = st.builds(
    lambda name, mem_gib, epc: Pod(
        PodSpec(
            name=name,
            resources=ResourceRequirements(
                requests=ResourceVector(
                    memory_bytes=gib(mem_gib), epc_pages=epc
                )
            ),
        ),
        submitted_at=0.0,
        uid=name,
    ),
    name=st.uuids().map(str),
    mem_gib=st.integers(min_value=0, max_value=70),
    epc=st.integers(min_value=0, max_value=30_000),
)

scheduler_strategy = st.sampled_from(
    [BinpackScheduler(), SpreadScheduler(), KubeDefaultScheduler()]
)


def fresh_views():
    return [
        NodeView(
            name="worker-0",
            sgx_capable=False,
            capacity=ResourceVector(
                cpu_millicores=8000, memory_bytes=gib(64)
            ),
        ),
        NodeView(
            name="worker-1",
            sgx_capable=False,
            capacity=ResourceVector(
                cpu_millicores=8000, memory_bytes=gib(64)
            ),
        ),
        NodeView(
            name="sgx-worker-0",
            sgx_capable=True,
            capacity=ResourceVector(
                cpu_millicores=8000, memory_bytes=gib(8), epc_pages=23_936
            ),
        ),
        NodeView(
            name="sgx-worker-1",
            sgx_capable=True,
            capacity=ResourceVector(
                cpu_millicores=8000, memory_bytes=gib(8), epc_pages=23_936
            ),
        ),
    ]


@given(
    pods=st.lists(pod_strategy, max_size=25),
    scheduler=scheduler_strategy,
)
@settings(max_examples=100)
def test_no_sgx_pod_on_standard_node(pods, scheduler):
    outcome = scheduler.schedule(pods, fresh_views(), now=0.0)
    for assignment in outcome.assignments:
        if assignment.pod.requires_sgx:
            assert assignment.node_name.startswith("sgx-")


@given(
    pods=st.lists(pod_strategy, max_size=25),
    scheduler=scheduler_strategy,
)
@settings(max_examples=100)
def test_no_dimension_overcommitted_in_one_pass(pods, scheduler):
    views = fresh_views()
    capacities = {v.name: v.capacity for v in views}
    outcome = scheduler.schedule(pods, views, now=0.0)
    placed = {}
    for assignment in outcome.assignments:
        total = placed.get(assignment.node_name, ResourceVector.zero())
        placed[assignment.node_name] = (
            total + assignment.pod.spec.resources.requests
        )
    for node_name, total in placed.items():
        assert total.fits_within(capacities[node_name]), node_name


@given(
    pods=st.lists(pod_strategy, max_size=25),
    scheduler=scheduler_strategy,
)
@settings(max_examples=100)
def test_every_pod_accounted_exactly_once(pods, scheduler):
    outcome = scheduler.schedule(pods, fresh_views(), now=0.0)
    assigned = {a.pod.uid for a in outcome.assignments}
    deferred = {p.uid for p in outcome.deferred}
    unschedulable = {p.uid for p in outcome.unschedulable}
    assert assigned | deferred | unschedulable == {p.uid for p in pods}
    assert not (assigned & deferred)
    assert not (assigned & unschedulable)
    assert not (deferred & unschedulable)


@given(pods=st.lists(pod_strategy, max_size=25))
@settings(max_examples=100)
def test_binpack_fcfs_priority(pods):
    """If an older pod was deferred, no younger identical pod ran."""
    scheduler = BinpackScheduler()
    outcome = scheduler.schedule(pods, fresh_views(), now=0.0)
    deferred_requests = [
        p.spec.resources.requests for p in outcome.deferred
    ]
    order = {p.uid: i for i, p in enumerate(pods)}
    for assignment in outcome.assignments:
        for deferred_pod in outcome.deferred:
            if order[assignment.pod.uid] > order[deferred_pod.uid]:
                # A younger pod ran while an older one waited: the
                # younger one must be strictly easier to place in some
                # dimension (smaller in at least one resource).
                younger = assignment.pod.spec.resources.requests
                older = deferred_pod.spec.resources.requests
                assert not older.fits_within(younger) or younger == older
    assert deferred_requests is not None  # silence lint on unused var
