"""Feasibility filter and node-preservation rule.

The rule itself (:func:`scheduling_reference.prefer_non_sgx`) lives with
the literal reference pass; ``Scheduler.schedule`` applies it by
filtering a standard pod's non-SGX views before the SGX ones.
"""

from repro.cluster.resources import ResourceVector
from repro.orchestrator.api import PodSpec, ResourceRequirements
from repro.orchestrator.pod import Pod
from repro.scheduler.base import NodeView
from repro.scheduler.filtering import can_ever_fit, feasible_candidates
from repro.units import gib
from scheduling_reference import prefer_non_sgx


def make_pod(epc=0, mem=0) -> Pod:
    spec = PodSpec(
        name="p",
        resources=ResourceRequirements(
            requests=ResourceVector(memory_bytes=mem, epc_pages=epc)
        ),
    )
    return Pod(spec, submitted_at=0.0, uid="1")


def make_view(name, sgx, mem_cap=gib(64), epc_cap=0, mem_used=0, epc_used=0):
    return NodeView(
        name=name,
        sgx_capable=sgx,
        capacity=ResourceVector(
            cpu_millicores=8000, memory_bytes=mem_cap, epc_pages=epc_cap
        ),
        used=ResourceVector(memory_bytes=mem_used, epc_pages=epc_used),
    )


STD = make_view("std", sgx=False)
SGX = make_view("sgx", sgx=True, mem_cap=gib(8), epc_cap=23_936)


def names(views):
    return [view.name for view in views]


class TestFeasibility:
    def test_sgx_pod_filtered_from_standard_node(self):
        candidates = feasible_candidates(make_pod(epc=10), [STD, SGX])
        assert names(candidates) == ["sgx"]

    def test_saturating_request_filtered(self):
        view = make_view("busy", sgx=True, epc_cap=100, epc_used=95)
        assert feasible_candidates(make_pod(epc=10), [view]) == []

    def test_exact_fit_is_feasible(self):
        view = make_view("node", sgx=True, epc_cap=100, epc_used=90)
        assert names(feasible_candidates(make_pod(epc=10), [view])) == [
            "node"
        ]

    def test_standard_pod_sees_both_kinds(self):
        candidates = feasible_candidates(make_pod(mem=gib(1)), [STD, SGX])
        assert names(candidates) == ["std", "sgx"]

    def test_zero_request_fits_an_overcommitted_dimension(self):
        # Measured usage can exceed capacity (a job allocating more
        # than it declared); a request of zero in that dimension still
        # fits, while any positive request there does not.
        memory_over = make_view(
            "memory-over", sgx=True, mem_cap=gib(8), epc_cap=100,
            mem_used=gib(9),
        )
        epc_over = make_view("epc-over", sgx=True, epc_cap=100, epc_used=101)
        views = [memory_over, epc_over]
        assert names(feasible_candidates(make_pod(epc=10), views)) == [
            "memory-over"
        ]
        assert names(feasible_candidates(make_pod(mem=gib(1)), views)) == [
            "epc-over"
        ]
        assert names(feasible_candidates(make_pod(), views)) == [
            "memory-over", "epc-over",
        ]
        assert feasible_candidates(make_pod(epc=10, mem=1), views) == []


class TestCanEverFit:
    def test_fits_capacity_even_if_busy(self):
        view = make_view("busy", sgx=True, epc_cap=100, epc_used=100)
        assert can_ever_fit(make_pod(epc=50), [view])

    def test_never_fits_any_node(self):
        assert not can_ever_fit(make_pod(epc=24_000), [STD, SGX])

    def test_sgx_pod_ignores_standard_capacity(self):
        big_std = make_view("std", sgx=False, mem_cap=gib(512))
        assert not can_ever_fit(make_pod(epc=10), [big_std])


class TestPreferNonSgx:
    def test_standard_pod_prefers_standard_nodes(self):
        pod = make_pod(mem=gib(1))
        preferred = prefer_non_sgx(pod, [SGX, STD])
        assert [v.name for v in preferred] == ["std"]

    def test_standard_pod_falls_back_to_sgx(self):
        pod = make_pod(mem=gib(1))
        preferred = prefer_non_sgx(pod, [SGX])
        assert [v.name for v in preferred] == ["sgx"]

    def test_sgx_pod_unaffected(self):
        pod = make_pod(epc=10)
        preferred = prefer_non_sgx(pod, [SGX])
        assert [v.name for v in preferred] == ["sgx"]
