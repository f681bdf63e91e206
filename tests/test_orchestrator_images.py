"""Container images: registry, node cache, pull costs in admission."""

import pytest

from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import paper_cluster
from repro.errors import OrchestrationError
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.images import (
    SGX_BASE_IMAGE,
    ContainerImage,
    ImagePullError,
    ImageRegistry,
    NodeImageCache,
)
from repro.orchestrator.kubelet import Kubelet
from repro.orchestrator.pod import Pod
from repro.scheduler.binpack import BinpackScheduler
from repro.units import mib


class TestRegistry:
    def test_paper_images_preloaded(self):
        registry = ImageRegistry.with_paper_images()
        assert SGX_BASE_IMAGE in registry
        assert registry.resolve(SGX_BASE_IMAGE).has_sgx_psw
        for name in ("redis", "apache", "mysql", "consul"):
            assert name in registry

    def test_missing_image_rejected(self):
        with pytest.raises(ImagePullError):
            ImageRegistry().resolve("ghost:latest")

    def test_pull_counts_traffic(self):
        registry = ImageRegistry.with_paper_images()
        registry.serve_pull("redis")
        registry.serve_pull("redis")
        assert registry.pull_count == 2

    def test_image_validation(self):
        with pytest.raises(OrchestrationError):
            ContainerImage("", mib(1))
        with pytest.raises(OrchestrationError):
            ContainerImage("x", 0)


class TestNodeCache:
    def test_first_pull_costs_transfer_time(self):
        registry = ImageRegistry.with_paper_images()
        cache = NodeImageCache(node_name="w0")
        latency = cache.pull(registry, SGX_BASE_IMAGE)
        expected = mib(390) / 125_000_000
        assert latency == pytest.approx(expected)

    def test_second_pull_is_free(self):
        registry = ImageRegistry.with_paper_images()
        cache = NodeImageCache(node_name="w0")
        cache.pull(registry, "redis")
        assert cache.pull(registry, "redis") == 0.0
        assert registry.pull_count == 1

    def test_evict_forces_repull(self):
        registry = ImageRegistry.with_paper_images()
        cache = NodeImageCache(node_name="w0")
        cache.pull(registry, "redis")
        assert cache.evict("redis")
        assert not cache.evict("redis")
        assert cache.pull(registry, "redis") > 0.0

    def test_cached_listing(self):
        registry = ImageRegistry.with_paper_images()
        cache = NodeImageCache(node_name="w0")
        cache.pull(registry, "redis")
        assert cache.cached_images == {"redis"}


class TestKubeletIntegration:
    def test_admission_includes_pull_latency(self):
        registry = ImageRegistry.with_paper_images()
        kubelet = Kubelet(Node(NodeSpec.sgx("s0")), registry=registry)
        spec = make_pod_spec(
            "job", duration_seconds=10.0, declared_epc_bytes=mib(10)
        )
        pod = Pod(spec, submitted_at=0.0, uid="1")
        pod.mark_bound("s0", 1.0)
        result = kubelet.admit(pod)
        pull = mib(390) / 125_000_000
        sgx_startup = 0.100 + 10 * 0.0016
        assert result.startup_seconds == pytest.approx(pull + sgx_startup)

    def test_second_pod_hits_cache(self):
        registry = ImageRegistry.with_paper_images()
        kubelet = Kubelet(Node(NodeSpec.sgx("s0")), registry=registry)
        startups = []
        for index in range(2):
            spec = make_pod_spec(
                f"job-{index}",
                duration_seconds=10.0,
                declared_epc_bytes=mib(10),
            )
            pod = Pod(spec, submitted_at=0.0, uid=str(index))
            pod.mark_bound("s0", 1.0)
            startups.append(kubelet.admit(pod).startup_seconds)
        assert startups[1] < startups[0]

    def test_no_registry_means_no_pull_cost(self):
        kubelet = Kubelet(Node(NodeSpec.standard("w0")))
        spec = make_pod_spec(
            "job", duration_seconds=10.0, declared_memory_bytes=mib(100)
        )
        pod = Pod(spec, submitted_at=0.0, uid="1")
        pod.mark_bound("w0", 1.0)
        assert kubelet.admit(pod).startup_seconds <= 0.001


class TestOrchestratorIntegration:
    def test_registry_propagates_to_kubelets(self):
        registry = ImageRegistry.with_paper_images()
        orchestrator = Orchestrator(paper_cluster(), registry=registry)
        pod = orchestrator.submit(
            make_pod_spec(
                "job", duration_seconds=10.0, declared_epc_bytes=mib(5)
            ),
            now=0.0,
        )
        result = orchestrator.scheduling_pass(BinpackScheduler(), now=1.0)
        _, startup = result.launched[0]
        assert startup > mib(390) / 125_000_000  # pull + SGX startup
        cache = orchestrator.kubelets[pod.node_name].image_cache
        assert SGX_BASE_IMAGE in cache.cached_images
