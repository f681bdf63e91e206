"""Workload materialisation: stressors and malicious containers."""

import pytest

from repro.cluster.topology import paper_cluster
from repro.errors import TraceError
from repro.trace.borg import synthetic_scaled_trace
from repro.units import mib, pages
from repro.workload.malicious import MaliciousConfig, malicious_submissions
from repro.workload.stress import (
    EpcStressor,
    VmStressor,
    materialize_trace,
)


@pytest.fixture(scope="module")
def trace():
    return synthetic_scaled_trace(seed=3, n_jobs=100, overallocators=10)


class TestStressors:
    def test_vm_stressor_profile(self):
        profile = VmStressor(target_bytes=mib(100)).profile(30.0)
        assert profile.memory_bytes == mib(100)
        assert profile.epc_pages == 0
        assert not profile.uses_sgx

    def test_epc_stressor_profile(self):
        profile = EpcStressor(target_bytes=mib(10)).profile(30.0)
        assert profile.epc_pages == pages(mib(10))
        assert profile.memory_bytes == 0
        assert profile.uses_sgx


class TestMaterialization:
    def test_sgx_fraction_exact_count(self, trace):
        plans = materialize_trace(trace, sgx_fraction=0.25, seed=0)
        assert sum(1 for p in plans if p.is_sgx) == 25

    def test_all_standard(self, trace):
        plans = materialize_trace(trace, sgx_fraction=0.0, seed=0)
        assert not any(p.is_sgx for p in plans)
        assert all(
            p.spec.resources.requests.epc_pages == 0 for p in plans
        )

    def test_all_sgx(self, trace):
        plans = materialize_trace(trace, sgx_fraction=1.0, seed=0)
        assert all(p.is_sgx for p in plans)
        assert all(p.spec.resources.requests.memory_bytes == 0 for p in plans)

    def test_multipliers_applied(self, trace):
        plans = materialize_trace(trace, sgx_fraction=1.0, seed=0)
        job = trace[0]
        plan = next(p for p in plans if p.job_id == job.job_id)
        expected = pages(int(job.assigned_memory * mib(93.5)))
        assert plan.spec.resources.requests.epc_pages == expected

    def test_actual_usage_from_max_memory(self, trace):
        plans = materialize_trace(trace, sgx_fraction=0.0, seed=0)
        job = trace[0]
        plan = next(p for p in plans if p.job_id == job.job_id)
        assert plan.spec.workload.memory_bytes == int(
            job.max_memory * 32 * 2**30
        )

    def test_submit_times_preserved(self, trace):
        plans = materialize_trace(trace, sgx_fraction=0.5, seed=0)
        assert [p.submit_time for p in plans] == [
            j.submit_time for j in trace
        ]

    def test_deterministic_designation(self, trace):
        a = materialize_trace(trace, sgx_fraction=0.5, seed=9)
        b = materialize_trace(trace, sgx_fraction=0.5, seed=9)
        assert [p.is_sgx for p in a] == [p.is_sgx for p in b]

    def test_bad_fraction_rejected(self, trace):
        with pytest.raises(TraceError):
            materialize_trace(trace, sgx_fraction=1.5)


class TestMalicious:
    def test_one_pod_per_sgx_node(self):
        cluster = paper_cluster()
        plans = malicious_submissions(cluster, MaliciousConfig())
        assert len(plans) == len(cluster.sgx_nodes)

    def test_declares_one_page_uses_half_epc(self):
        cluster = paper_cluster()
        (first, _) = malicious_submissions(
            cluster, MaliciousConfig(epc_occupancy=0.5)
        )
        assert first.spec.resources.requests.epc_pages == 1
        assert first.spec.workload.epc_pages == 23_936 // 2

    def test_occupancy_validated(self):
        with pytest.raises(TraceError):
            MaliciousConfig(epc_occupancy=0.0)
        with pytest.raises(TraceError):
            MaliciousConfig(declared_pages=0)

    def test_labelled_malicious(self):
        plans = malicious_submissions(paper_cluster(), MaliciousConfig())
        assert all(
            p.spec.labels["origin"] == "malicious" for p in plans
        )
