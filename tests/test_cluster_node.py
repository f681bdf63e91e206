"""Node model: capacities, process lifecycle, measured usage."""

import pytest

from repro.cluster.node import Node, NodeSpec
from repro.errors import NodeError
from repro.units import gib, mib, pages


class TestSpecs:
    def test_standard_spec_matches_paper(self):
        spec = NodeSpec.standard("w0")
        assert spec.memory_bytes == gib(64)
        assert spec.cpus == 8
        assert not spec.sgx_capable

    def test_sgx_spec_matches_paper(self):
        spec = NodeSpec.sgx("s0")
        assert spec.memory_bytes == gib(8)
        assert spec.sgx_capable
        assert spec.epc_total_bytes == mib(128)


class TestCapacity:
    def test_standard_node_has_no_epc(self, standard_node):
        assert standard_node.capacity.epc_pages == 0
        assert not standard_node.sgx_capable
        assert standard_node.driver is None

    def test_sgx_node_advertises_usable_pages(self, sgx_node):
        assert sgx_node.capacity.epc_pages == 23_936
        assert sgx_node.sgx_capable

    def test_sgx_node_epc_sweep(self):
        node = Node(NodeSpec.sgx("s", epc_total_bytes=mib(256)))
        assert node.capacity.epc_pages == 2 * 23_936

    def test_cpu_capacity_in_millicores(self, sgx_node):
        assert sgx_node.capacity.cpu_millicores == 8000


class TestProcesses:
    def test_spawn_requires_cgroup(self, sgx_node):
        with pytest.raises(NodeError):
            sgx_node.spawn_process("/missing", memory_bytes=0)

    def test_spawn_registers_with_driver(self, sgx_node):
        path = sgx_node.cgroups.create_pod_cgroup("p1")
        pid = sgx_node.spawn_process(path, memory_bytes=mib(1))
        enclave = sgx_node.driver.create_enclave(pid, size_bytes=mib(2))
        assert enclave.owner == path

    def test_memory_accounting(self, standard_node):
        path = standard_node.cgroups.create_pod_cgroup("p1")
        pid = standard_node.spawn_process(path, memory_bytes=gib(1))
        assert standard_node.used_memory_bytes() == gib(1)
        assert standard_node.cgroup_memory_bytes(path) == gib(1)
        standard_node.kill_process(pid)
        assert standard_node.used_memory_bytes() == 0
        assert standard_node.cgroup_memory_bytes(path) == 0

    def test_negative_memory_rejected(self, standard_node):
        path = standard_node.cgroups.create_pod_cgroup("p1")
        with pytest.raises(NodeError):
            standard_node.spawn_process(path, memory_bytes=-1)

    def test_kill_releases_enclaves(self, sgx_node):
        path = sgx_node.cgroups.create_pod_cgroup("p1")
        pid = sgx_node.spawn_process(path)
        sgx_node.driver.create_enclave(pid, size_bytes=mib(4))
        assert sgx_node.used_epc_pages() == pages(mib(4))
        sgx_node.kill_process(pid)
        assert sgx_node.used_epc_pages() == 0
        assert sgx_node.cgroups.get(path).pids == set()

    def test_kill_unknown_pid_is_noop(self, sgx_node):
        sgx_node.kill_process(424242)
