"""Kubelet: admission pipeline, limit relay, usage reporting."""

import itertools

import pytest

from repro.cluster.node import Node, NodeSpec
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.kubelet import Kubelet
from repro.orchestrator.pod import Pod
from repro.units import gib, mib, pages


#: Pod uids in creation order, as an orchestrator numbers its pods.
_uids = itertools.count(1)


def make_kubelet(node=None, **kwargs) -> Kubelet:
    return Kubelet(node or Node(NodeSpec.sgx("sgx-0")), **kwargs)


def sgx_pod(
    name="p",
    declared_mib=10.0,
    actual_mib=None,
    duration=30.0,
) -> Pod:
    spec = make_pod_spec(
        name,
        duration_seconds=duration,
        declared_epc_bytes=mib(declared_mib),
        actual_epc_bytes=mib(actual_mib if actual_mib else declared_mib),
    )
    return Pod(spec, submitted_at=0.0, uid=f"{next(_uids):08d}")


def standard_pod(name="p", declared_gib=1.0, actual_gib=None) -> Pod:
    spec = make_pod_spec(
        name,
        duration_seconds=30.0,
        declared_memory_bytes=gib(declared_gib),
        actual_memory_bytes=gib(actual_gib if actual_gib else declared_gib),
    )
    return Pod(spec, submitted_at=0.0, uid=f"{next(_uids):08d}")


class TestAdmission:
    def test_standard_pod_fast_startup(self):
        kubelet = make_kubelet(Node(NodeSpec.standard("w0")))
        pod = standard_pod()
        pod.mark_bound("w0", 1.0)
        result = kubelet.admit(pod)
        assert result.success
        assert result.startup_seconds <= 0.001

    def test_sgx_pod_startup_includes_psw_and_alloc(self):
        kubelet = make_kubelet()
        pod = sgx_pod(declared_mib=50)
        pod.mark_bound("sgx-0", 1.0)
        result = kubelet.admit(pod)
        assert result.success
        # 100 ms PSW + 50 MiB * 1.6 ms/MiB.
        assert result.startup_seconds == pytest.approx(
            0.100 + 50 * 0.0016, rel=1e-6
        )

    def test_admission_creates_cgroup_before_processes(self):
        kubelet = make_kubelet()
        pod = sgx_pod()
        pod.mark_bound("sgx-0", 1.0)
        kubelet.admit(pod)
        assert pod.cgroup_path is not None
        assert kubelet.node.cgroups.exists(pod.cgroup_path)

    def test_admission_relays_limit_to_driver(self):
        kubelet = make_kubelet()
        pod = sgx_pod(declared_mib=10)
        pod.mark_bound("sgx-0", 1.0)
        kubelet.admit(pod)
        assert kubelet.node.driver.pod_limit(pod.cgroup_path) == pages(
            mib(10)
        )

    def test_double_admission_rejected(self):
        kubelet = make_kubelet()
        pod = sgx_pod()
        pod.mark_bound("sgx-0", 1.0)
        kubelet.admit(pod)
        from repro.errors import NodeError

        with pytest.raises(NodeError):
            kubelet.admit(pod)

    def test_sgx_pod_on_non_sgx_node_fails(self):
        kubelet = make_kubelet(Node(NodeSpec.standard("w0")))
        pod = sgx_pod()
        pod.mark_bound("w0", 1.0)
        result = kubelet.admit(pod)
        assert not result.success
        assert "/dev/isgx" in result.failure_reason

    def test_pod_without_workload_rejected(self):
        from repro.errors import NodeError
        from repro.orchestrator.api import PodSpec

        kubelet = make_kubelet()
        pod = Pod(PodSpec(name="bare"), submitted_at=0.0, uid="1")
        pod.mark_bound("sgx-0", 1.0)
        with pytest.raises(NodeError):
            kubelet.admit(pod)


class TestLimitEnforcement:
    def test_overallocating_pod_killed_at_launch(self):
        kubelet = make_kubelet()
        pod = sgx_pod(declared_mib=1, actual_mib=20)
        pod.mark_bound("sgx-0", 1.0)
        result = kubelet.admit(pod)
        assert not result.success
        assert "limit" in result.failure_reason.lower()
        # Everything torn down: no cgroup, no EPC, no record.
        assert kubelet.pod_count == 0
        assert kubelet.node.used_epc_pages() == 0

    def test_overallocating_pod_survives_without_enforcement(self):
        node = Node(
            NodeSpec.sgx(
                "sgx-0", enforce_epc_limits=False, epc_allow_overcommit=True
            )
        )
        kubelet = make_kubelet(node)
        pod = sgx_pod(declared_mib=1, actual_mib=20)
        pod.mark_bound("sgx-0", 1.0)
        assert kubelet.admit(pod).success
        assert node.used_epc_pages() == pages(mib(20))

    def test_strict_epc_exhaustion_fails_admission(self):
        kubelet = make_kubelet()
        first = sgx_pod("a", declared_mib=90)
        first.mark_bound("sgx-0", 1.0)
        assert kubelet.admit(first).success
        second = sgx_pod("b", declared_mib=10)
        second.mark_bound("sgx-0", 1.0)
        result = kubelet.admit(second)
        assert not result.success
        assert "enclave creation failed" in result.failure_reason


class TestTermination:
    def test_terminate_frees_everything(self):
        kubelet = make_kubelet()
        pod = sgx_pod(declared_mib=10)
        pod.mark_bound("sgx-0", 1.0)
        kubelet.admit(pod)
        kubelet.terminate(pod)
        assert kubelet.pod_count == 0
        assert kubelet.node.used_epc_pages() == 0
        assert not kubelet.node.cgroups.exists(pod.cgroup_path)
        assert kubelet.node.driver.pod_limit(pod.cgroup_path) is None

    def test_terminate_unknown_pod_is_noop(self):
        make_kubelet().terminate(sgx_pod())


class TestReporting:
    def test_epc_pages_advertised_without_registration(self):
        # Each usable EPC page is one resource item (Section V-A): a
        # bare kubelet advertises its node's pages from construction.
        sgx = Kubelet(Node(NodeSpec.sgx("sgx-0")))
        standard = Kubelet(Node(NodeSpec.standard("w0")))
        assert sgx.advertised_epc_pages() == 23_936
        assert standard.advertised_epc_pages() == 0

    def test_committed_requests_sum(self):
        kubelet = make_kubelet()
        for name, size in (("a", 10), ("b", 20)):
            pod = sgx_pod(name, declared_mib=size)
            pod.mark_bound("sgx-0", 1.0)
            kubelet.admit(pod)
        assert kubelet.committed_requests().epc_pages == pages(
            mib(10)
        ) + pages(mib(20))

    def test_memory_log_reports_actuals(self):
        kubelet = make_kubelet(Node(NodeSpec.standard("w0")))
        pod = standard_pod(declared_gib=1, actual_gib=1.5)
        pod.mark_bound("w0", 1.0)
        kubelet.admit(pod)

        def read(record):
            return kubelet.node.cgroup_memory_bytes(record.cgroup_path)

        assert kubelet.memory_log.drain(read) == [
            ("w0", pod.name, float(gib(1.5)))
        ]
        assert kubelet.memory_log.drain(read) == []
        kubelet.terminate(pod)
        assert kubelet.memory_log.drain(read) == [("w0", pod.name, 0.0)]
        # A node without EPC has no probe, so no EPC log to fill.
        assert kubelet.epc_log is None

    def test_every_writer_touches_the_pod(self):
        kubelet = make_kubelet(Node(NodeSpec.sgx("sgx-0", sgx_version=2)))
        pod = sgx_pod("burst", declared_mib=10, actual_mib=4)
        pod.mark_bound("sgx-0", 1.0)
        kubelet.admit(pod)
        assert list(kubelet.memory_log.touched) == [pod.uid]
        assert list(kubelet.epc_log.touched) == [pod.uid]
        kubelet.memory_log.touched.clear()
        kubelet.epc_log.touched.clear()
        # An SGX 2 resize moves only the EPC reading.
        kubelet.grow_pod_epc(pod, 16)
        kubelet.shrink_pod_epc(pod, 8)
        assert kubelet.memory_log.touched == {}
        assert list(kubelet.epc_log.touched) == [pod.uid]
        kubelet.terminate(pod)
        assert list(kubelet.memory_log.touched) == [pod.uid]

    def test_every_admission_and_teardown_is_filed(self):
        """The change log names, under the node's name, each pod that
        came or went, and the name index returns the pod admitted
        under a name while it stays; a pod admitted and torn down
        before the log is read, as a failed launch is, is filed and
        gone from the index."""
        changes = {}
        kubelet = make_kubelet(changes=changes)
        assert kubelet.changes is changes
        kept, gone = sgx_pod("kept"), sgx_pod("gone")
        for pod in (kept, gone):
            pod.mark_bound("sgx-0", 1.0)
            kubelet.admit(pod)
        assert kubelet.by_name == {"kept": kept, "gone": gone}
        kubelet.terminate(gone)
        assert changes == {"sgx-0": {"kept": None, "gone": None}}
        assert kubelet.by_name == {"kept": kept}
        changes.clear()
        failed = sgx_pod("failed", declared_mib=1, actual_mib=20)
        failed.mark_bound("sgx-0", 1.0)
        assert not kubelet.admit(failed).success
        assert changes == {"sgx-0": {"failed": None}}
        assert kubelet.by_name == {"kept": kept}

    def test_admitted_pods_listing(self):
        kubelet = make_kubelet()
        pod = sgx_pod()
        pod.mark_bound("sgx-0", 1.0)
        kubelet.admit(pod)
        assert kubelet.admitted_pods() == [pod]

    def test_epc_overcommit_ratio_healthy(self):
        assert make_kubelet().epc_overcommit_ratio() == pytest.approx(
            0.0, abs=1e-9
        ) or make_kubelet().epc_overcommit_ratio() <= 1.0
