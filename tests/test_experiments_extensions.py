"""Extension experiments: SGX 2 dynamic memory and kubelet resizing,
and the two extension tables at their defaults."""

import hashlib

import pytest

from repro.cluster.node import Node, NodeSpec
from repro.errors import DriverError
from repro.experiments.ext_hybrid import format_ext_hybrid, run_ext_hybrid
from repro.experiments.ext_sgx2 import (
    GROW_RETRY_SECONDS,
    _BurstyReplay,
    format_ext_sgx2,
    generate_bursty_jobs,
    run_ext_sgx2,
)
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.kubelet import Kubelet
from repro.orchestrator.pod import Pod
from repro.units import mib, pages


class TestBurstyJobs:
    def test_deterministic(self):
        assert generate_bursty_jobs(seed=3) == generate_bursty_jobs(seed=3)

    def test_peaks_fit_one_node(self):
        for job in generate_bursty_jobs(seed=0):
            assert job.peak_pages < 23_936
            assert job.baseline_pages < job.peak_pages
            assert (
                job.burst_start_fraction + job.burst_length_fraction < 1.0
            )


class TestKubeletResize:
    def make_sgx2_kubelet(self):
        return Kubelet(Node(NodeSpec.sgx("s0", sgx_version=2)))

    def admitted_pod(self, kubelet, declared_mib=40.0, actual_mib=8.0):
        spec = make_pod_spec(
            "bursty",
            duration_seconds=60.0,
            declared_epc_bytes=mib(declared_mib),
            actual_epc_bytes=mib(actual_mib),
        )
        pod = Pod(spec, submitted_at=0.0, uid="1")
        pod.mark_bound("s0", 1.0)
        assert kubelet.admit(pod).success
        return pod

    def test_grow_and_shrink_through_kubelet(self):
        kubelet = self.make_sgx2_kubelet()
        pod = self.admitted_pod(kubelet)
        before = kubelet.node.used_epc_pages()
        added = kubelet.grow_pod_epc(pod, pages(mib(16)))
        assert added == pages(mib(16))
        assert kubelet.node.used_epc_pages() == before + added
        kubelet.shrink_pod_epc(pod, pages(mib(16)))
        assert kubelet.node.used_epc_pages() == before

    def test_grow_on_sgx1_node_rejected(self):
        kubelet = Kubelet(Node(NodeSpec.sgx("s0", sgx_version=1)))
        pod = self.admitted_pod(kubelet)
        with pytest.raises(DriverError, match="dynamic"):
            kubelet.grow_pod_epc(pod, 100)

    def test_grow_unknown_pod_rejected(self):
        from repro.errors import NodeError

        kubelet = self.make_sgx2_kubelet()
        stranger = Pod(
            make_pod_spec("x", duration_seconds=1.0,
                          declared_epc_bytes=mib(1)),
            submitted_at=0.0,
            uid="2",
        )
        with pytest.raises(NodeError):
            kubelet.grow_pod_epc(stranger, 10)

    def test_grow_past_declared_limit_denied(self):
        from repro.errors import EnclaveLimitExceededError

        kubelet = self.make_sgx2_kubelet()
        pod = self.admitted_pod(kubelet, declared_mib=10.0, actual_mib=8.0)
        with pytest.raises(EnclaveLimitExceededError):
            kubelet.grow_pod_epc(pod, pages(mib(8)))


class TestExtSgx2Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ext_sgx2(n_jobs=40, seed=0)

    def test_sgx2_finishes_earlier(self, result):
        assert result.makespan_speedup > 1.0

    def test_sgx2_waits_less(self, result):
        assert (
            result.sgx2.mean_wait_seconds < result.sgx1.mean_wait_seconds
        )

    def test_all_jobs_complete_in_both_modes(self, result):
        assert result.sgx1.completed == 40
        assert result.sgx2.completed == 40

    def test_only_sgx2_stalls_on_growth(self, result):
        assert result.sgx1.total_stall_seconds == 0.0

    def test_format(self, result):
        text = format_ext_sgx2(result)
        assert "SGX 1" in text and "SGX 2" in text

    def test_bursty_jobs_finish_on_their_chained_schedule(self):
        # A finish is its job's phases added to its start, in order: on
        # SGX 1 the duration; on SGX 2 the run up to the burst, one
        # retry period per refused EAUG, the burst, then the tail.
        checked, stalled = 0, 0
        for seed in range(4):
            jobs = generate_bursty_jobs(n_jobs=80, seed=seed)
            bursts = {job.name: job for job in jobs}
            for sgx_version in (1, 2):
                replay = _BurstyReplay(jobs, sgx_version)
                for pod in replay.run().metrics.pods:
                    job = bursts[pod.name]
                    finish = pod.started_at
                    if sgx_version == 1:
                        finish += job.duration
                    else:
                        finish += job.burst_start_fraction * job.duration
                        stall = replay.stall_seconds.get(pod.name, 0.0)
                        for _ in range(round(stall / GROW_RETRY_SECONDS)):
                            finish += GROW_RETRY_SECONDS
                        stalled += stall > 0.0
                        finish += job.burst_length_fraction * job.duration
                        finish += max(
                            0.0,
                            (
                                1.0
                                - job.burst_start_fraction
                                - job.burst_length_fraction
                            )
                            * job.duration,
                        )
                    assert pod.finished_at == finish, (seed, pod.name)
                    checked += 1
        assert checked == 640
        assert stalled > 0


#: sha256 of each extension table with its experiment's default
#: arguments (seed 0); a change that means to move a table updates its
#: digest here and says so.
EXTENSION_TABLE_DIGESTS = {
    "ext-hybrid": (
        "6a8c922940bd2f3aa6d1765a248d5bb5ebe2b481f421fd37b1077b31dde76f56"
    ),
    "ext-sgx2": (
        "f30d4bd99c4b8b6de0437f7ef5856c9eeb554a523fac5260a75a0cc7729979c6"
    ),
    # A larger batch whose SGX 2 jobs stall on growth more often.
    "ext-sgx2-120-jobs-seed-3": (
        "8203a31f36262a9b0616cb1a11b7a9ce16a9e63e382b1dfde33c9908cafd6636"
    ),
}


@pytest.mark.parametrize(
    "name, table",
    [
        ("ext-hybrid", lambda: format_ext_hybrid(run_ext_hybrid())),
        ("ext-sgx2", lambda: format_ext_sgx2(run_ext_sgx2())),
        (
            "ext-sgx2-120-jobs-seed-3",
            lambda: format_ext_sgx2(run_ext_sgx2(n_jobs=120, seed=3)),
        ),
    ],
)
def test_extension_table_is_pinned(name, table):
    digest = hashlib.sha256(table().encode()).hexdigest()
    assert digest == EXTENSION_TABLE_DIGESTS[name]
