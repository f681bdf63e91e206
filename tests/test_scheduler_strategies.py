"""Binpack, spread and the Kubernetes-default baseline."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.errors import SchedulingError
from repro.orchestrator.api import PodSpec, ResourceRequirements
from repro.orchestrator.pod import Pod
from repro.scheduler.base import NodeView
from repro.scheduler.binpack import BinpackScheduler
from repro.scheduler.kube_default import KubeDefaultScheduler
from repro.scheduler.spread import SpreadScheduler
from repro.units import gib


def make_pod(name="p", epc=0, mem=0) -> Pod:
    spec = PodSpec(
        name=name,
        resources=ResourceRequirements(
            requests=ResourceVector(memory_bytes=mem, epc_pages=epc)
        ),
    )
    return Pod(spec, submitted_at=0.0, uid=name)


def std_view(name, used_mem=0):
    return NodeView(
        name=name,
        sgx_capable=False,
        capacity=ResourceVector(cpu_millicores=8000, memory_bytes=gib(64)),
        used=ResourceVector(memory_bytes=used_mem),
        committed=ResourceVector(memory_bytes=used_mem),
    )


def sgx_view(name, used_epc=0):
    return NodeView(
        name=name,
        sgx_capable=True,
        capacity=ResourceVector(
            cpu_millicores=8000, memory_bytes=gib(8), epc_pages=23_936
        ),
        used=ResourceVector(epc_pages=used_epc),
        committed=ResourceVector(epc_pages=used_epc),
    )


def paper_views():
    return [
        std_view("worker-0"),
        std_view("worker-1"),
        sgx_view("sgx-worker-0"),
        sgx_view("sgx-worker-1"),
    ]


class TestBinpack:
    def test_fills_first_node_until_insufficient(self):
        scheduler = BinpackScheduler()
        pods = [make_pod(f"p{i}", mem=gib(30)) for i in range(3)]
        outcome = scheduler.schedule(pods, paper_views(), now=0.0)
        nodes = [a.node_name for a in outcome.assignments]
        # Two 30 GiB pods fit worker-0 (64 GiB); the third spills over.
        assert nodes == ["worker-0", "worker-0", "worker-1"]

    def test_standard_jobs_use_sgx_nodes_last(self):
        scheduler = BinpackScheduler()
        views = paper_views()
        # Saturate both standard nodes.
        views[0].used = ResourceVector(memory_bytes=gib(64))
        views[1].used = ResourceVector(memory_bytes=gib(64))
        outcome = scheduler.schedule(
            [make_pod(mem=gib(4))], views, now=0.0
        )
        assert outcome.assignments[0].node_name == "sgx-worker-0"

    def test_sgx_job_lands_on_sgx_node(self):
        scheduler = BinpackScheduler()
        outcome = scheduler.schedule(
            [make_pod(epc=100)], paper_views(), now=0.0
        )
        assert outcome.assignments[0].node_name == "sgx-worker-0"

    def test_never_overcommits_within_one_pass(self):
        scheduler = BinpackScheduler()
        views = [sgx_view("sgx-0")]
        pods = [make_pod(f"p{i}", epc=12_000) for i in range(3)]
        outcome = scheduler.schedule(pods, views, now=0.0)
        assert len(outcome.assignments) == 1  # 2 x 12 000 > 23 936
        assert len(outcome.deferred) == 2

    def test_unschedulable_pod_reported(self):
        scheduler = BinpackScheduler()
        outcome = scheduler.schedule(
            [make_pod(epc=30_000)], paper_views(), now=0.0
        )
        assert len(outcome.unschedulable) == 1


class TestSpread:
    def test_balances_load_across_nodes(self):
        scheduler = SpreadScheduler()
        views = [std_view("w0", used_mem=gib(20)), std_view("w1")]
        outcome = scheduler.schedule(
            [make_pod(mem=gib(4))], views, now=0.0
        )
        assert outcome.assignments[0].node_name == "w1"

    def test_alternates_between_equal_nodes(self):
        scheduler = SpreadScheduler()
        views = [sgx_view("s0"), sgx_view("s1")]
        pods = [make_pod(f"p{i}", epc=1000) for i in range(4)]
        outcome = scheduler.schedule(pods, views, now=0.0)
        nodes = [a.node_name for a in outcome.assignments]
        assert nodes == ["s0", "s1", "s0", "s1"]

    def test_standard_jobs_avoid_sgx_nodes(self):
        scheduler = SpreadScheduler()
        views = paper_views()
        views[0].used = ResourceVector(memory_bytes=gib(32))
        views[1].used = ResourceVector(memory_bytes=gib(32))
        # SGX nodes are idle (load 0) and would minimise the stddev, but
        # preservation keeps the standard pod off them.
        outcome = scheduler.schedule(
            [make_pod(mem=gib(4))], views, now=0.0
        )
        assert outcome.assignments[0].node_name.startswith("worker")


class TestKubeDefault:
    def test_uses_declared_not_measured(self):
        scheduler = KubeDefaultScheduler()
        view = sgx_view("s0")
        # Measured says full; declared says empty.  The baseline trusts
        # declarations and schedules anyway.
        view.used = ResourceVector(epc_pages=23_936)
        view.committed = ResourceVector.zero()
        outcome = scheduler.schedule(
            [make_pod(epc=20_000)], [view], now=0.0
        )
        assert len(outcome.assignments) == 1

    def test_measured_scheduler_defers_same_case(self):
        scheduler = BinpackScheduler()
        view = sgx_view("s0")
        view.used = ResourceVector(epc_pages=23_936)
        view.committed = ResourceVector.zero()
        outcome = scheduler.schedule(
            [make_pod(epc=20_000)], [view], now=0.0
        )
        assert outcome.assignments == []
        assert len(outcome.deferred) == 1

    def test_least_requested_spreading(self):
        scheduler = KubeDefaultScheduler()
        views = [std_view("w0", used_mem=gib(30)), std_view("w1")]
        outcome = scheduler.schedule(
            [make_pod(mem=gib(1))], views, now=0.0
        )
        assert outcome.assignments[0].node_name == "w1"


class TestFcfsSemantics:
    def test_fcfs_priority_oldest_first(self):
        scheduler = BinpackScheduler()
        views = [sgx_view("s0")]
        old = make_pod("old", epc=20_000)
        new = make_pod("new", epc=20_000)
        outcome = scheduler.schedule([old, new], views, now=0.0)
        assert outcome.assignments[0].pod.name == "old"
        assert outcome.deferred == [new]

    def test_skip_allows_younger_smaller_jobs(self):
        scheduler = BinpackScheduler()
        views = [sgx_view("s0", used_epc=20_000)]
        blocked = make_pod("blocked", epc=10_000)
        small = make_pod("small", epc=1_000)
        outcome = scheduler.schedule([blocked, small], views, now=0.0)
        assert [a.pod.name for a in outcome.assignments] == ["small"]

    def test_declared_only_mode_resets_views(self):
        scheduler = KubeDefaultScheduler()
        view = sgx_view("s0")
        view.used = ResourceVector(epc_pages=23_936)  # measured: full
        view.committed = ResourceVector.zero()  # declared: empty
        outcome = scheduler.schedule([make_pod(epc=100)], [view], now=0.0)
        assert len(outcome.assignments) == 1
        # The view's usage became its declared commitments plus the
        # placement: the measured full EPC is gone.
        assert view.used == ResourceVector(epc_pages=100)


class TestInvariantGuard:
    def test_selecting_saturated_node_raises(self):
        class BrokenScheduler(BinpackScheduler):
            def _select(self, pod, candidates, views):
                view = candidates[0]
                view.used = view.capacity  # saturate behind the filter
                return view

        scheduler = BrokenScheduler()
        with pytest.raises(SchedulingError):
            scheduler.schedule([make_pod(epc=10)], [sgx_view("s0")], 0.0)
