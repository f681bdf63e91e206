"""Orchestrator-level live migration of SGX pods."""

import pytest

from repro.cluster.topology import paper_cluster
from repro.errors import OrchestrationError
from repro.orchestrator.api import PodPhase, make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.scheduler.binpack import BinpackScheduler
from repro.units import mib, pages


@pytest.fixture
def orchestrator():
    return Orchestrator(paper_cluster())


def running_sgx_pod(orchestrator, name="svc", epc_mib=20.0, now=0.0):
    pod = orchestrator.submit(
        make_pod_spec(
            name, duration_seconds=600.0, declared_epc_bytes=mib(epc_mib)
        ),
        now=now,
    )
    result = orchestrator.scheduling_pass(BinpackScheduler(), now=now + 1.0)
    assert any(p is pod for p, _ in result.launched)
    orchestrator.start_pod(pod, now=now + 1.5)
    return pod


def other_sgx_node(pod):
    return (
        "sgx-worker-1"
        if pod.node_name == "sgx-worker-0"
        else "sgx-worker-0"
    )


class TestMigration:
    def test_pages_move_with_the_pod(self, orchestrator):
        pod = running_sgx_pod(orchestrator)
        source = pod.node_name
        target = other_sgx_node(pod)
        orchestrator.migrate_pod(pod, target, now=100.0)
        assert pod.node_name == target
        assert orchestrator.cluster.node(source).used_epc_pages() == 0
        assert orchestrator.cluster.node(target).used_epc_pages() == pages(
            mib(20)
        )

    def test_downtime_is_positive_and_bounded(self, orchestrator):
        pod = running_sgx_pod(orchestrator)
        downtime = orchestrator.migrate_pod(
            pod, other_sgx_node(pod), now=100.0
        )
        # PSW boot (~100 ms) + transfer + allocation: sub-second for a
        # 20 MiB enclave.
        assert 0.1 < downtime < 1.0

    def test_pod_stays_running_and_completes(self, orchestrator):
        pod = running_sgx_pod(orchestrator)
        orchestrator.migrate_pod(pod, other_sgx_node(pod), now=100.0)
        assert pod.phase is PodPhase.RUNNING
        orchestrator.complete_pod(pod, now=700.0)
        assert pod.phase is PodPhase.SUCCEEDED
        assert pod.turnaround_seconds == 700.0

    def test_monitoring_follows_the_pod(self, orchestrator):
        from repro.monitoring.probe import MEASUREMENT_EPC

        pod = running_sgx_pod(orchestrator)
        source = pod.node_name
        target = other_sgx_node(pod)
        orchestrator.collect_metrics(now=99.0)
        orchestrator.migrate_pod(pod, target, now=100.0)
        orchestrator.collect_metrics(now=101.0)
        store = orchestrator.aggregate_cache
        nodes = store.node_states(MEASUREMENT_EPC, now=101.0)
        assert pod.name in nodes[target].maxima()
        # The source's last sample ages out of the window.
        orchestrator.collect_metrics(now=130.0)
        nodes = store.node_states(MEASUREMENT_EPC, now=130.0)
        assert pod.name in nodes[target].maxima()
        assert source not in nodes

    def test_limits_travel_with_the_pod(self, orchestrator):
        pod = running_sgx_pod(orchestrator)
        source_node = orchestrator.cluster.node(pod.node_name)
        target = other_sgx_node(pod)
        orchestrator.migrate_pod(pod, target, now=100.0)
        target_driver = orchestrator.cluster.node(target).driver
        assert target_driver.pod_limit(pod.cgroup_path) == pages(mib(20))
        # Source forgot the old cgroup's limit.
        assert all(
            source_node.driver.pod_limit(path) is None
            for path in [pod.cgroup_path]
        )


class TestMigrationValidation:
    def test_migrate_to_same_node_rejected(self, orchestrator):
        pod = running_sgx_pod(orchestrator)
        with pytest.raises(OrchestrationError):
            orchestrator.migrate_pod(pod, pod.node_name, now=100.0)

    def test_migrate_to_unknown_node_rejected(self, orchestrator):
        pod = running_sgx_pod(orchestrator)
        with pytest.raises(OrchestrationError, match="no such node"):
            orchestrator.migrate_pod(pod, "ghost", now=100.0)

    def test_migrate_to_non_sgx_node_rejected(self, orchestrator):
        pod = running_sgx_pod(orchestrator)
        with pytest.raises(OrchestrationError, match="no SGX support"):
            orchestrator.migrate_pod(pod, "worker-0", now=100.0)

    def test_standard_pod_cannot_migrate(self, orchestrator):
        from repro.units import gib

        pod = orchestrator.submit(
            make_pod_spec(
                "std", duration_seconds=600.0,
                declared_memory_bytes=gib(1),
            ),
            now=0.0,
        )
        orchestrator.scheduling_pass(BinpackScheduler(), now=1.0)
        orchestrator.start_pod(pod, now=1.5)
        from repro.errors import NodeError

        with pytest.raises(NodeError, match="no enclave"):
            orchestrator.migrate_pod(pod, "sgx-worker-0", now=100.0)

    def test_migration_target_full_raises_and_fails_pod(self):
        # Fill the target completely; restore cannot fit.
        orchestrator = Orchestrator(paper_cluster())
        victim = running_sgx_pod(orchestrator, "victim", epc_mib=60.0)
        target = other_sgx_node(victim)
        blocker = orchestrator.submit(
            make_pod_spec(
                "blocker",
                duration_seconds=600.0,
                declared_epc_bytes=mib(90),
            ),
            now=2.0,
        )
        result = orchestrator.scheduling_pass(BinpackScheduler(), now=3.0)
        assert any(p is blocker for p, _ in result.launched)
        assert blocker.node_name == target
        orchestrator.start_pod(blocker, now=3.5)
        with pytest.raises(OrchestrationError, match="failed"):
            orchestrator.migrate_pod(victim, target, now=100.0)
        assert victim.phase is PodPhase.FAILED
