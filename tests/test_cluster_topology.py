"""Cluster construction and the paper's testbed inventory."""

import pytest

from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import Cluster, paper_cluster, uniform_cluster
from repro.errors import ClusterError
from repro.units import gib, mib


class TestPaperCluster:
    def test_inventory(self):
        cluster = paper_cluster()
        assert len(cluster) == 4
        assert len(cluster.standard_nodes) == 2
        assert len(cluster.sgx_nodes) == 2

    def test_total_epc_matches_paper_arithmetic(self):
        # Section VI-E: 2 x 93.5 MiB = 187 MiB of EPC.
        cluster = paper_cluster()
        total_bytes = cluster.total_epc_pages() * 4096
        assert total_bytes == pytest.approx(mib(187), rel=0.01)

    def test_total_memory_matches_paper_arithmetic(self):
        # Workers contribute 2 x 64 GiB + 2 x 8 GiB = 144 GiB.
        cluster = paper_cluster()
        assert sum(
            node.capacity.memory_bytes for node in cluster.nodes
        ) == gib(144)

    def test_epc_size_parameter(self):
        cluster = paper_cluster(epc_total_bytes=mib(256))
        for node in cluster.sgx_nodes:
            assert node.spec.epc_total_bytes == mib(256)

    def test_enforcement_flag_propagates(self):
        cluster = paper_cluster(enforce_epc_limits=False)
        for node in cluster.sgx_nodes:
            assert not node.driver.enforce_limits


class TestClusterOperations:
    def test_duplicate_name_rejected(self):
        cluster = Cluster()
        cluster.add_node(Node(NodeSpec.standard("a")))
        with pytest.raises(ClusterError):
            cluster.add_node(Node(NodeSpec.standard("a")))

    def test_lookup(self):
        cluster = paper_cluster()
        assert cluster.node("worker-0").name == "worker-0"
        assert "worker-0" in cluster

    def test_lookup_unknown_rejected(self):
        with pytest.raises(ClusterError):
            paper_cluster().node("ghost")

    def test_iteration_order_is_registration_order(self):
        names = [node.name for node in paper_cluster()]
        assert names == [
            "worker-0",
            "worker-1",
            "sgx-worker-0",
            "sgx-worker-1",
        ]


class TestUniformCluster:
    def test_builds_count(self):
        cluster = uniform_cluster(3)
        assert len(cluster) == 3
        assert all(not n.sgx_capable for n in cluster)

    def test_sgx_factory(self):
        cluster = uniform_cluster(2, spec_factory=NodeSpec.sgx)
        assert len(cluster.sgx_nodes) == 2

    def test_zero_count_rejected(self):
        with pytest.raises(ClusterError):
            uniform_cluster(0)
