"""Orchestrator facade: submission, scheduling passes, lifecycle."""

import pytest

from repro.monitoring.probe import MEASUREMENT_EPC
from repro.orchestrator.api import PodPhase, make_pod_spec
from repro.orchestrator.controller import PROBE_DAEMONSET, Orchestrator
from repro.scheduler.binpack import BinpackScheduler
from repro.units import gib, mib, pages


@pytest.fixture
def scheduler():
    return BinpackScheduler()


class TestWiring:
    def test_kubelets_per_node(self, orchestrator):
        assert set(orchestrator.kubelets) == {
            "worker-0",
            "worker-1",
            "sgx-worker-0",
            "sgx-worker-1",
        }

    def test_device_plugins_registered(self, orchestrator):
        assert (
            orchestrator.kubelets["sgx-worker-0"].advertised_epc_pages()
            == 23_936
        )
        assert orchestrator.kubelets["worker-0"].advertised_epc_pages() == 0

    def test_probe_daemonset_covers_sgx_nodes(self, orchestrator):
        probes = orchestrator.daemonsets.payloads(PROBE_DAEMONSET)
        assert len(probes) == 2
        assert {p.node_name for p in probes} == {
            "sgx-worker-0",
            "sgx-worker-1",
        }


class TestSubmissionAndScheduling:
    def test_submit_queues_pod(self, orchestrator, sgx_pod_spec):
        pod = orchestrator.submit(sgx_pod_spec, now=0.0)
        assert pod.phase is PodPhase.PENDING
        assert len(orchestrator.queue) == 1

    def test_scheduling_pass_places_sgx_pod_on_sgx_node(
        self, orchestrator, sgx_pod_spec, scheduler
    ):
        pod = orchestrator.submit(sgx_pod_spec, now=0.0)
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert [p.name for p, _ in result.launched] == [pod.name]
        assert pod.node_name.startswith("sgx-worker")
        assert len(orchestrator.queue) == 0

    def test_standard_pod_avoids_sgx_nodes(
        self, orchestrator, standard_pod_spec, scheduler
    ):
        pod = orchestrator.submit(standard_pod_spec, now=0.0)
        orchestrator.scheduling_pass(scheduler, now=1.0)
        assert pod.node_name.startswith("worker")

    def test_unschedulable_pod_rejected(self, orchestrator, scheduler):
        spec = make_pod_spec(
            "huge", duration_seconds=10.0, declared_memory_bytes=gib(100)
        )
        pod = orchestrator.submit(spec, now=0.0)
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert result.rejected == [pod]
        assert pod.phase is PodPhase.FAILED
        assert "Unschedulable" in pod.failure_reason

    def test_deferred_pod_stays_queued(self, orchestrator, scheduler):
        # Fill both SGX nodes, then submit one more SGX pod.
        for index in range(2):
            spec = make_pod_spec(
                f"big-{index}",
                duration_seconds=100.0,
                declared_epc_bytes=mib(93),
            )
            orchestrator.submit(spec, now=0.0)
        late = orchestrator.submit(
            make_pod_spec(
                "late", duration_seconds=10.0, declared_epc_bytes=mib(50)
            ),
            now=0.0,
        )
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert len(result.launched) == 2
        assert result.deferred == [late]
        assert late in orchestrator.queue

    def test_empty_queue_pass_is_noop(self, orchestrator, scheduler):
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert result.launched == []

    def test_killed_at_launch_with_enforcement(self, scheduler):
        from repro.cluster.topology import paper_cluster

        orchestrator = Orchestrator(paper_cluster(enforce_epc_limits=True))
        spec = make_pod_spec(
            "liar",
            duration_seconds=10.0,
            declared_epc_bytes=mib(1),
            actual_epc_bytes=mib(20),
        )
        pod = orchestrator.submit(spec, now=0.0)
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert result.killed == [pod]
        assert pod.phase is PodPhase.FAILED


class TestLifecycle:
    def run_one(self, orchestrator, scheduler, spec):
        pod = orchestrator.submit(spec, now=0.0)
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert result.launched
        return pod

    def test_complete_frees_node(
        self, orchestrator, scheduler, sgx_pod_spec
    ):
        pod = self.run_one(orchestrator, scheduler, sgx_pod_spec)
        orchestrator.start_pod(pod, now=1.5)
        node = orchestrator.cluster.node(pod.node_name)
        assert node.used_epc_pages() == pages(mib(10))
        orchestrator.complete_pod(pod, now=61.5)
        assert pod.phase is PodPhase.SUCCEEDED
        assert node.used_epc_pages() == 0

    def test_kill_running_pod(self, orchestrator, scheduler, sgx_pod_spec):
        pod = self.run_one(orchestrator, scheduler, sgx_pod_spec)
        orchestrator.start_pod(pod, now=1.5)
        orchestrator.kill_pod(pod, now=2.0, reason="preempted")
        assert pod.phase is PodPhase.FAILED
        node = orchestrator.cluster.node(pod.node_name)
        assert node.used_epc_pages() == 0

    def test_kill_queued_pod(self, orchestrator, sgx_pod_spec):
        pod = orchestrator.submit(sgx_pod_spec, now=0.0)
        orchestrator.kill_pod(pod, now=1.0, reason="cancelled")
        assert len(orchestrator.queue) == 0
        assert pod.phase is PodPhase.FAILED


class TestMetricsPath:
    def test_collect_metrics_feeds_probe_data(
        self, orchestrator, scheduler, sgx_pod_spec
    ):
        pod = orchestrator.submit(sgx_pod_spec, now=0.0)
        orchestrator.scheduling_pass(scheduler, now=1.0)
        orchestrator.start_pod(pod, now=1.5)
        written = orchestrator.collect_metrics(now=2.0)
        assert written > 0
        nodes = orchestrator.aggregate_cache.node_states(
            MEASUREMENT_EPC, now=2.0
        )
        assert nodes[pod.node_name].maxima() == {
            pod.name: float(pages(mib(10)))
        }

    def test_default_sink_is_the_window_store(
        self, orchestrator, scheduler, sgx_pod_spec
    ):
        store = orchestrator.aggregate_cache
        assert orchestrator.heapster.sink is store
        assert orchestrator.state_service.store is store
        pod = orchestrator.submit(sgx_pod_spec, now=0.0)
        orchestrator.scheduling_pass(scheduler, now=1.0)
        orchestrator.start_pod(pod, now=1.5)
        # Heapster: one pod's memory; the SGX probes: that pod's EPC
        # (the driver's node gauges are read but stored nowhere, so
        # they are not samples).
        assert orchestrator.collect_metrics(now=2.0) == 1 + 1
        assert {
            (name, pod_name, value)
            for name, node in store.node_states(
                MEASUREMENT_EPC, now=2.0
            ).items()
            for pod_name, value in node.maxima().items()
        } == {(pod.node_name, pod.name, float(pages(mib(10))))}

    def test_measured_usage_informs_next_pass(self):
        # A pod declaring little but using much: after metrics arrive,
        # the scheduler sees the *measured* usage and defers a pod that
        # would otherwise fit on paper.  Enforcement is off, as on a
        # stock driver, so the liar survives launch.
        from repro.cluster.topology import paper_cluster

        orchestrator = Orchestrator(paper_cluster(enforce_epc_limits=False))
        liar_spec = make_pod_spec(
            "liar",
            duration_seconds=100.0,
            declared_epc_bytes=mib(1),
            actual_epc_bytes=mib(80),
        )
        scheduler = BinpackScheduler()
        liar = orchestrator.submit(liar_spec, now=0.0)
        orchestrator.scheduling_pass(scheduler, now=1.0)
        orchestrator.start_pod(liar, now=1.2)
        orchestrator.collect_metrics(now=2.0)

        # Both SGX nodes have 93.5 MiB; the liar occupies 80 MiB of one.
        # A 90 MiB pod fits the other node; a second 90 MiB pod must wait
        # because measured usage exposes the liar.
        for index in range(2):
            orchestrator.submit(
                make_pod_spec(
                    f"honest-{index}",
                    duration_seconds=10.0,
                    declared_epc_bytes=mib(90),
                ),
                now=2.0,
            )
        result = orchestrator.scheduling_pass(scheduler, now=3.0)
        assert len(result.launched) == 1
        assert len(result.deferred) == 1

    def test_pending_epc_pages(self, orchestrator, sgx_pod_spec):
        orchestrator.submit(sgx_pod_spec, now=0.0)
        assert orchestrator.pending_epc_pages() == pages(mib(10))
