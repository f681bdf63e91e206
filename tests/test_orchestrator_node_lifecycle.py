"""Node add/remove: the paper's probe-follows-node behaviour (Sec. V-C)."""

import pytest

from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import paper_cluster
from repro.errors import OrchestrationError
from repro.orchestrator.api import PodPhase, make_pod_spec
from repro.orchestrator.controller import PROBE_DAEMONSET, Orchestrator
from repro.scheduler.binpack import BinpackScheduler
from repro.units import mib, pages


@pytest.fixture
def orchestrator():
    return Orchestrator(paper_cluster())


def probe_nodes(orchestrator):
    return {
        p.node_name
        for p in orchestrator.daemonsets.payloads(PROBE_DAEMONSET)
    }


class TestAddNode:
    def test_new_sgx_node_gets_a_probe(self, orchestrator):
        orchestrator.add_node(Node(NodeSpec.sgx("sgx-worker-9")), now=0.0)
        assert "sgx-worker-9" in probe_nodes(orchestrator)

    def test_new_standard_node_gets_no_probe(self, orchestrator):
        orchestrator.add_node(Node(NodeSpec.standard("worker-9")), now=0.0)
        assert "worker-9" not in probe_nodes(orchestrator)

    def test_new_node_is_schedulable(self, orchestrator):
        # Fill both existing SGX nodes, then join a third: the pending
        # pod lands there on the next pass.
        for index in range(2):
            orchestrator.submit(
                make_pod_spec(
                    f"big-{index}",
                    duration_seconds=600.0,
                    declared_epc_bytes=mib(90),
                ),
                now=0.0,
            )
        late = orchestrator.submit(
            make_pod_spec(
                "late", duration_seconds=60.0, declared_epc_bytes=mib(50)
            ),
            now=0.0,
        )
        scheduler = BinpackScheduler()
        first = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert late in first.deferred
        orchestrator.add_node(Node(NodeSpec.sgx("sgx-worker-9")), now=0.0)
        second = orchestrator.scheduling_pass(scheduler, now=6.0)
        assert any(p is late for p, _ in second.launched)
        assert late.node_name == "sgx-worker-9"

    def test_new_node_feeds_metrics(self):
        from repro.monitoring.probe import MEASUREMENT_EPC

        orchestrator = Orchestrator(paper_cluster(sgx_workers=0))
        assert orchestrator.collect_metrics(now=0.5) == 0
        orchestrator.add_node(Node(NodeSpec.sgx("sgx-worker-9")), now=0.5)
        # The new node runs no pod yet, so its probe takes no sample
        # ...
        assert orchestrator.collect_metrics(now=1.0) == 0
        pod = orchestrator.submit(
            make_pod_spec(
                "late", duration_seconds=60.0, declared_epc_bytes=mib(8)
            ),
            now=1.0,
        )
        orchestrator.scheduling_pass(BinpackScheduler(), now=2.0)
        orchestrator.start_pod(pod, now=2.5)
        # ... and its pods' samples reach the store.
        orchestrator.collect_metrics(now=3.0)
        nodes = orchestrator.aggregate_cache.node_states(
            MEASUREMENT_EPC, now=3.0
        )
        assert nodes["sgx-worker-9"].maxima() == {
            "late": float(pages(mib(8)))
        }


class TestLateJoinPolicyInheritance:
    def test_late_joined_kubelet_matches_bootstrap_flags(self):
        orchestrator = Orchestrator(paper_cluster())
        late = orchestrator.add_node(
            Node(NodeSpec.standard("worker-9")), now=0.0
        )
        bootstrap = orchestrator.kubelets["worker-0"]
        assert late.perf_model is bootstrap.perf_model


class TestRemoveNode:
    def test_crash_requeues_running_pods(self, orchestrator):
        scheduler = BinpackScheduler()
        pod = orchestrator.submit(
            make_pod_spec(
                "svc", duration_seconds=600.0, declared_epc_bytes=mib(10)
            ),
            now=0.0,
        )
        orchestrator.scheduling_pass(scheduler, now=1.0)
        orchestrator.start_pod(pod, now=1.5)
        crashed = pod.node_name
        requeued = orchestrator.remove_node(crashed, now=100.0)
        assert pod.phase is PodPhase.FAILED
        assert "lost" in pod.failure_reason
        assert len(requeued) == 1
        replacement = requeued[0]
        assert replacement.spec.name == pod.spec.name
        # The replacement schedules onto a surviving node.
        result = orchestrator.scheduling_pass(scheduler, now=101.0)
        assert any(p is replacement for p, _ in result.launched)
        assert replacement.node_name != crashed

    def test_crash_reaps_probe(self, orchestrator):
        orchestrator.remove_node("sgx-worker-0", now=1.0)
        assert "sgx-worker-0" not in probe_nodes(orchestrator)
        # Metrics collection no longer touches the dead node.
        orchestrator.collect_metrics(now=2.0)

    def test_unknown_node_rejected(self, orchestrator):
        with pytest.raises(OrchestrationError):
            orchestrator.remove_node("ghost", now=1.0)

    def test_empty_node_removal_requeues_nothing(self, orchestrator):
        assert orchestrator.remove_node("worker-1", now=1.0) == []

    def test_cluster_shrinks(self, orchestrator):
        orchestrator.remove_node("worker-0", now=1.0)
        assert "worker-0" not in orchestrator.cluster
        assert "worker-0" not in orchestrator.kubelets
