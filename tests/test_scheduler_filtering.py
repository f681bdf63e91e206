"""Feasibility filter and node-preservation rule."""

from repro.cluster.resources import ResourceVector
from repro.orchestrator.api import PodSpec, ResourceRequirements
from repro.orchestrator.pod import Pod
from repro.scheduler.base import NodeView
from repro.scheduler.filtering import (
    FilterReason,
    can_ever_fit,
    feasible_nodes,
    prefer_non_sgx,
)
from repro.units import gib


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


class TestFeasibility:
    def test_sgx_pod_filtered_from_standard_node(self):
        candidates, rejections = feasible_nodes(make_pod(epc=10), [STD, SGX])
        assert [v.name for v in candidates] == ["sgx"]
        assert rejections == {"std": FilterReason.HARDWARE_INCOMPATIBLE}

    def test_saturating_request_filtered(self):
        view = make_view("busy", sgx=True, epc_cap=100, epc_used=95)
        candidates, rejections = feasible_nodes(make_pod(epc=10), [view])
        assert candidates == []
        assert rejections == {"busy": FilterReason.WOULD_SATURATE}

    def test_exact_fit_is_feasible(self):
        view = make_view("node", sgx=True, epc_cap=100, epc_used=90)
        candidates, _ = feasible_nodes(make_pod(epc=10), [view])
        assert [v.name for v in candidates] == ["node"]

    def test_standard_pod_sees_both_kinds(self):
        candidates, _ = feasible_nodes(make_pod(mem=gib(1)), [STD, SGX])
        assert [v.name for v in candidates] == ["std", "sgx"]


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
