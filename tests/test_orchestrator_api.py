"""API objects: specs, requirements, phases, workload profiles."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.errors import PodSpecError
from repro.orchestrator.api import (
    PodPhase,
    PodSpec,
    ResourceRequirements,
    WorkloadProfile,
    make_pod_spec,
)
from repro.units import gib, mib, pages


class TestResourceRequirements:
    def test_limits_default_to_requests(self):
        requests = ResourceVector(memory_bytes=gib(1))
        reqs = ResourceRequirements(requests=requests)
        assert reqs.effective_limits == requests

    def test_explicit_limits_kept(self):
        reqs = ResourceRequirements(
            requests=ResourceVector(epc_pages=10),
            limits=ResourceVector(epc_pages=20),
        )
        assert reqs.effective_limits.epc_pages == 20

    def test_negative_requests_rejected(self):
        with pytest.raises(PodSpecError):
            ResourceRequirements(
                requests=ResourceVector(memory_bytes=-1)
            )

    def test_requires_sgx(self):
        assert ResourceRequirements(
            requests=ResourceVector(epc_pages=1)
        ).requires_sgx


class TestWorkloadProfile:
    def test_uses_sgx(self):
        assert WorkloadProfile(10.0, epc_pages=1).uses_sgx
        assert not WorkloadProfile(10.0, memory_bytes=100).uses_sgx

    def test_negative_duration_rejected(self):
        with pytest.raises(PodSpecError):
            WorkloadProfile(-1.0)

    def test_negative_usage_rejected(self):
        with pytest.raises(PodSpecError):
            WorkloadProfile(1.0, memory_bytes=-5)


class TestPodSpec:
    def test_empty_name_rejected(self):
        with pytest.raises(PodSpecError):
            PodSpec(name="")


class TestMakePodSpec:
    def test_sgx_spec_round_trip(self):
        spec = make_pod_spec(
            "j",
            duration_seconds=60.0,
            declared_epc_bytes=mib(10),
            actual_epc_bytes=mib(12),
        )
        assert spec.requires_sgx
        assert spec.resources.requests.epc_pages == pages(mib(10))
        assert spec.workload.epc_pages == pages(mib(12))

    def test_actuals_default_to_declared(self):
        spec = make_pod_spec(
            "j", duration_seconds=5.0, declared_memory_bytes=gib(2)
        )
        assert spec.workload.memory_bytes == gib(2)

    def test_standard_spec_has_no_epc(self):
        spec = make_pod_spec(
            "j", duration_seconds=5.0, declared_memory_bytes=gib(1)
        )
        assert not spec.requires_sgx
        assert not spec.workload.uses_sgx


class TestPodPhase:
    def test_terminal_phases(self):
        assert PodPhase.SUCCEEDED.is_terminal
        assert PodPhase.FAILED.is_terminal

    def test_non_terminal_phases(self):
        for phase in (PodPhase.PENDING, PodPhase.BOUND, PodPhase.RUNNING):
            assert not phase.is_terminal
