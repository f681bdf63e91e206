"""Node add/remove: the paper's probe-follows-node behaviour (Sec. V-C)."""

import pytest

from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import paper_cluster
from repro.errors import OrchestrationError
from repro.monitoring.heapster import MEASUREMENT_MEMORY
from repro.monitoring.probe import MEASUREMENT_EPC
from repro.orchestrator.api import PodPhase, make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.scheduler.binpack import BinpackScheduler
from repro.scheduler.spread import SpreadScheduler
from repro.units import gib, mib, pages


@pytest.fixture
def orchestrator():
    return Orchestrator(paper_cluster())


def probe_nodes(orchestrator):
    return {p.node_name for p in orchestrator.probes.values()}


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


class TestOneRegistry:
    """Views, probes and samples all follow ``Orchestrator.kubelets``."""

    def test_churn_leaves_only_live_nodes(self, orchestrator):
        scheduler = SpreadScheduler()
        for index in range(2):
            orchestrator.submit(
                make_pod_spec(
                    f"enclave-{index}",
                    duration_seconds=600.0,
                    declared_epc_bytes=mib(10),
                ),
                now=0.0,
            )
            orchestrator.submit(
                make_pod_spec(
                    f"plain-{index}",
                    duration_seconds=600.0,
                    declared_memory_bytes=gib(1),
                ),
                now=0.0,
            )
        # Spread puts one pod on every node, so each removal requeues.
        orchestrator.scheduling_pass(scheduler, now=1.0)
        assert all(k.pod_count == 1 for k in orchestrator.kubelets.values())

        orchestrator.remove_node("worker-0", now=2.0)
        orchestrator.remove_node("sgx-worker-1", now=3.0)
        orchestrator.add_node(Node(NodeSpec.sgx("sgx-worker-9")), now=4.0)
        orchestrator.add_node(Node(NodeSpec.standard("worker-0")), now=5.0)
        result = orchestrator.scheduling_pass(scheduler, now=6.0)
        assert len(result.launched) == 2

        kubelets = orchestrator.kubelets
        assert list(kubelets) == [
            "worker-1", "sgx-worker-0", "sgx-worker-9", "worker-0",
        ]
        views = orchestrator.state_service.build_views(now=6.5)
        assert [view.name for view in views] == list(kubelets)
        assert list(orchestrator.probes) == [
            name for name, kubelet in kubelets.items()
            if kubelet.advertised_epc_pages() > 0
        ]

        live = {
            (name, pod.name, pod.spec.resources.requests.epc_pages > 0)
            for name, kubelet in kubelets.items()
            for pod in kubelet.admitted_pods()
        }
        taken = orchestrator.collect_metrics(now=7.0)
        store = orchestrator.aggregate_cache

        def sampled(measurement):
            return {
                (node, pod_name)
                for node, state in store.node_states(measurement, 7.0).items()
                for pod_name in state.maxima()
            }

        # Heapster samples every standard pod and the probes every
        # enclave: one sample per live pod.  An enclave pod's standard
        # memory reads 0, which Listing 1's ``value <> 0`` would keep
        # out of the window maxima, so Heapster hands over no row.
        assert taken == len(live)
        assert sampled(MEASUREMENT_MEMORY) == {
            (node, pod) for node, pod, sgx in live if not sgx
        }
        assert sampled(MEASUREMENT_EPC) == {
            (node, pod) for node, pod, sgx in live if sgx
        }
