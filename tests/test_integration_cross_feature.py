"""Cross-feature integration: hybrid workloads on SGX 2.

Exercises feature combinations no single-module test touches, on one
orchestrator instance — the kind of interleaving a real deployment
produces.
"""


from repro.cluster.topology import paper_cluster
from repro.orchestrator.controller import Orchestrator
from repro.scheduler.binpack import BinpackScheduler
from repro.units import gib, mib, pages
from repro.workload.hybrid import hybrid_pod_spec


class TestHybridOnSgx2:
    def test_hybrid_pod_grows_its_enclave_on_sgx2(self):
        orchestrator = Orchestrator(paper_cluster(sgx_version=2))
        pod = orchestrator.submit(
            hybrid_pod_spec(
                "hy",
                duration_seconds=600.0,
                declared_epc_bytes=mib(40),
                declared_memory_bytes=gib(1),
            ),
            now=0.0,
        )
        orchestrator.scheduling_pass(BinpackScheduler(), now=1.0)
        orchestrator.start_pod(pod, now=2.0)
        kubelet = orchestrator.kubelets[pod.node_name]
        # The hybrid workload profile committed its full 40 MiB; shrink
        # during a quiet phase, then grow back under the declared limit.
        kubelet.shrink_pod_epc(pod, pages(mib(20)))
        node = orchestrator.cluster.node(pod.node_name)
        assert node.used_epc_pages() == pages(mib(20))
        kubelet.grow_pod_epc(pod, pages(mib(20)))
        assert node.used_epc_pages() == pages(mib(40))

    def test_hybrid_still_ram_bound_on_sgx2(self):
        orchestrator = Orchestrator(paper_cluster(sgx_version=2))
        scheduler = BinpackScheduler()
        for index in range(3):
            orchestrator.submit(
                hybrid_pod_spec(
                    f"hy-{index}",
                    duration_seconds=600.0,
                    declared_epc_bytes=mib(4),
                    declared_memory_bytes=gib(4),
                ),
                now=0.0,
            )
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        # Two 4 GiB pods fill one 8 GiB SGX node; the third goes to the
        # other node — dynamic EPC does nothing for the RAM bound.
        nodes = {a.node_name for a, _ in zip(
            [p for p, _ in result.launched], result.launched,
            strict=True,
        )}
        assert len(result.launched) == 3
        assert len(nodes) == 2
