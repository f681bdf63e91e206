"""RPC channel, device plugin registration, DaemonSet reconciliation."""

import pytest

from repro.cluster.node import Node, NodeSpec
from repro.errors import RpcError
from repro.orchestrator.api import SGX_EPC_RESOURCE
from repro.orchestrator.daemonset import (
    DaemonSetController,
    all_nodes_selector,
    sgx_node_selector,
)
from repro.orchestrator.device_plugin import (
    DevicePluginRegistry,
    SgxDevicePlugin,
)
from repro.orchestrator.kubelet import Kubelet
from repro.orchestrator.rpc import RpcChannel, RpcServer


class TestRpc:
    def test_call_dispatches(self):
        server = RpcServer("svc")
        server.register_method("Echo", lambda text: text.upper())
        channel = RpcChannel(server)
        assert channel.call("Echo", text="hi") == "HI"

    def test_unknown_method_rejected(self):
        channel = RpcChannel(RpcServer("svc"))
        with pytest.raises(RpcError, match="UNIMPLEMENTED"):
            channel.call("Nope")

    def test_stopped_server_unavailable(self):
        server = RpcServer("svc")
        server.register_method("M", lambda: 1)
        server.stop()
        with pytest.raises(RpcError, match="UNAVAILABLE"):
            RpcChannel(server).call("M")

    def test_duplicate_method_rejected(self):
        server = RpcServer("svc")
        server.register_method("M", lambda: 1)
        with pytest.raises(RpcError):
            server.register_method("M", lambda: 2)


class TestDevicePlugin:
    def test_detect_on_sgx_node(self, sgx_node):
        advertisement = SgxDevicePlugin(sgx_node).detect()
        assert advertisement is not None
        assert advertisement.resource_name == SGX_EPC_RESOURCE
        # Each EPC page is one resource item (Section V-A).
        assert advertisement.item_count == 23_936
        assert advertisement.device_path == "/dev/isgx"

    def test_detect_on_standard_node(self, standard_node):
        assert SgxDevicePlugin(standard_node).detect() is None

    def test_register_with_kubelet(self, sgx_node):
        kubelet = Kubelet(sgx_node)
        registered = SgxDevicePlugin(sgx_node).register(
            RpcChannel(kubelet.rpc_server)
        )
        assert registered
        assert kubelet.advertised_epc_pages() == 23_936
        assert kubelet.devices.device_path(SGX_EPC_RESOURCE) == "/dev/isgx"

    def test_register_skips_non_sgx(self, standard_node):
        kubelet = Kubelet(standard_node)
        registered = SgxDevicePlugin(standard_node).register(
            RpcChannel(kubelet.rpc_server)
        )
        assert not registered
        assert kubelet.advertised_epc_pages() == 0

    def test_registry_validates_counts(self):
        registry = DevicePluginRegistry()
        with pytest.raises(RpcError):
            registry.register("x", -1, "/dev/x")

class TestDaemonSet:
    def make_kubelets(self):
        sgx = Kubelet(Node(NodeSpec.sgx("sgx-0")))
        std = Kubelet(Node(NodeSpec.standard("std-0")))
        for kubelet in (sgx, std):
            SgxDevicePlugin(kubelet.node).register(
                RpcChannel(kubelet.rpc_server)
            )
        return sgx, std

    def test_sgx_selector_uses_advertised_epc(self):
        sgx, std = self.make_kubelets()
        assert sgx_node_selector(sgx)
        assert not sgx_node_selector(std)

    def test_reconcile_creates_payload_per_matching_node(self):
        sgx, std = self.make_kubelets()
        controller = DaemonSetController()
        daemonset = controller.create(
            "probe", sgx_node_selector, lambda k: f"probe@{k.node.name}"
        )
        changes = controller.reconcile([sgx, std])
        assert changes == 1
        assert daemonset.payloads == {"sgx-0": "probe@sgx-0"}

    def test_reconcile_is_idempotent(self):
        sgx, std = self.make_kubelets()
        controller = DaemonSetController()
        controller.create("probe", sgx_node_selector, lambda k: object())
        controller.reconcile([sgx, std])
        assert controller.reconcile([sgx, std]) == 0

    def test_reconcile_reaps_departed_nodes(self):
        sgx, std = self.make_kubelets()
        controller = DaemonSetController()
        controller.create("probe", sgx_node_selector, lambda k: object())
        controller.reconcile([sgx, std])
        changes = controller.reconcile([std])
        assert changes == 1
        assert controller.payloads("probe") == []

    def test_all_nodes_selector(self):
        sgx, std = self.make_kubelets()
        controller = DaemonSetController()
        controller.create("agent", all_nodes_selector, lambda k: object())
        controller.reconcile([sgx, std])
        assert len(controller.payloads("agent")) == 2

    def test_duplicate_daemonset_rejected(self):
        controller = DaemonSetController()
        controller.create("x", all_nodes_selector, lambda k: None)
        with pytest.raises(ValueError):
            controller.create("x", all_nodes_selector, lambda k: None)
