"""The paper's SGX device plugin (Sec. V-A) and probe DaemonSet (Sec. V-C).

Both live in the orchestrator's node registry: a kubelet advertises its
node's usable EPC pages, one schedulable item each, and
:attr:`Orchestrator.probes` holds one SGX probe per node that
advertises EPC, filed when the orchestrator is built.
"""

from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import Cluster
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.kubelet import Kubelet
from repro.units import mib


class TestDevicePlugin:
    def test_detect_on_sgx_node(self, sgx_node):
        # Each EPC page is one resource item (Section V-A).
        assert Kubelet(sgx_node).advertised_epc_pages() == 23_936
        assert sgx_node.epc.total_pages == 23_936
        # A larger PRM advertises its own, larger page count.
        big = Node(NodeSpec.sgx("sgx-big", epc_total_bytes=mib(256)))
        advertised = Kubelet(big).advertised_epc_pages()
        assert advertised == big.epc.total_pages > 23_936

    def test_detect_on_standard_node(self, standard_node):
        assert standard_node.epc is None
        assert Kubelet(standard_node).advertised_epc_pages() == 0

    def test_register_with_kubelet(self, sgx_node):
        orchestrator = Orchestrator(Cluster([sgx_node]))
        kubelet = orchestrator.kubelets[sgx_node.name]
        assert kubelet.advertised_epc_pages() == 23_936
        # The scheduler sees the advertised pages as schedulable EPC.
        (view,) = orchestrator.state_service.build_views(now=0.0)
        assert view.sgx_capable
        assert view.capacity.epc_pages == 23_936

    def test_register_skips_non_sgx(self, standard_node):
        orchestrator = Orchestrator(Cluster([standard_node]))
        kubelet = orchestrator.kubelets[standard_node.name]
        assert kubelet.advertised_epc_pages() == 0
        (view,) = orchestrator.state_service.build_views(now=0.0)
        assert not view.sgx_capable
        assert view.capacity.epc_pages == 0


class TestDaemonSet:
    def make_orchestrator(self):
        return Orchestrator(
            Cluster(
                [Node(NodeSpec.sgx("sgx-0")), Node(NodeSpec.standard("std-0"))]
            )
        )

    def test_reconcile_creates_payload_per_matching_node(self):
        orchestrator = self.make_orchestrator()
        assert list(orchestrator.probes) == ["sgx-0"]
        probe = orchestrator.probes["sgx-0"]
        kubelet = orchestrator.kubelets["sgx-0"]
        # The probe reads its own node's driver for the pods its own
        # kubelet touched and reports into the orchestrator's sink.
        assert probe.node_name == "sgx-0"
        assert probe.driver is kubelet.node.driver
        assert probe.log is kubelet.epc_log
        assert probe.sink is orchestrator.aggregate_cache
