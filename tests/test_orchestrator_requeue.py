"""Retryable launch failures: unbind and requeue semantics."""

import pytest

from repro.cluster.topology import paper_cluster
from repro.errors import OrchestrationError
from repro.orchestrator.api import PodPhase, PodSpec, make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.pod import Pod
from repro.scheduler.binpack import BinpackScheduler
from repro.units import mib


class TestMarkUnbound:
    def test_unbind_resets_binding_state(self):
        pod = Pod(PodSpec(name="p"), submitted_at=0.0, uid="1")
        pod.mark_bound("node", 1.0)
        pod.mark_unbound()
        assert pod.phase is PodPhase.PENDING
        assert pod.node_name is None
        assert pod.bound_at is None

    def test_unbind_requires_bound(self):
        pod = Pod(PodSpec(name="p"), submitted_at=0.0, uid="1")
        with pytest.raises(OrchestrationError):
            pod.mark_unbound()

    def test_rebind_after_unbind(self):
        pod = Pod(PodSpec(name="p"), submitted_at=0.0, uid="1")
        pod.mark_bound("a", 1.0)
        pod.mark_unbound()
        pod.mark_bound("b", 2.0)
        assert pod.node_name == "b"


class TestControllerRequeue:
    def test_epc_race_requeues_instead_of_killing(self):
        """A pod whose enclave creation finds the EPC full goes back to
        the queue; it is not killed and can launch later."""
        orchestrator = Orchestrator(paper_cluster())
        scheduler = BinpackScheduler()

        # An honest pod that under-declares (1 MiB declared, 90 MiB
        # used) fills sgx-worker-0 invisibly... except enforcement is
        # on by default here, so use a pod that declares honestly but
        # whose twin's placement races it.  Simpler: two pods that each
        # *use* 60 MiB but declare 1 MiB, limits off.
        orchestrator = Orchestrator(
            paper_cluster(
                enforce_epc_limits=False, epc_allow_overcommit=False
            )
        )
        for index in range(3):
            orchestrator.submit(
                make_pod_spec(
                    f"liar-{index}",
                    duration_seconds=100.0,
                    declared_epc_bytes=mib(1),
                    actual_epc_bytes=mib(60),
                ),
                now=0.0,
            )
        result = orchestrator.scheduling_pass(scheduler, now=1.0)
        # Declared 1 MiB each: the scheduler packs all three onto one
        # node, but only one 60 MiB enclave fits physically; the others
        # are requeued, not killed.
        assert len(result.launched) == 1
        assert len(result.requeued) == 2
        assert result.killed == []
        for pod in result.requeued:
            assert pod.phase is PodPhase.PENDING
            assert pod in orchestrator.queue

    def test_requeued_pod_keeps_fcfs_priority(self):
        """Regression: a requeued pod used to be pushed to the queue
        tail, so the oldest pod could starve behind younger ones.  It
        must be reconsidered *before* any younger pending pod."""
        orchestrator = Orchestrator(
            paper_cluster(
                enforce_epc_limits=False,
                epc_allow_overcommit=False,
                sgx_workers=1,
            )
        )
        scheduler = BinpackScheduler()
        old = orchestrator.submit(
            make_pod_spec(
                "old-liar",
                duration_seconds=100.0,
                declared_epc_bytes=mib(1),
                actual_epc_bytes=mib(60),
            ),
            now=0.0,
        )
        twin = orchestrator.submit(
            make_pod_spec(
                "twin-liar",
                duration_seconds=100.0,
                declared_epc_bytes=mib(1),
                actual_epc_bytes=mib(60),
            ),
            now=0.0,
        )
        first = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert [p for p, _ in first.launched] == [old]
        assert first.requeued == [twin]
        # A younger pod arrives while the twin waits requeued.
        young = orchestrator.submit(
            make_pod_spec(
                "young",
                duration_seconds=100.0,
                declared_epc_bytes=mib(1),
                actual_epc_bytes=mib(60),
            ),
            now=5.0,
        )
        assert orchestrator.queue.snapshot() == [twin, young]
        orchestrator.start_pod(old, now=1.2)
        orchestrator.complete_pod(old, now=50.0)
        second = orchestrator.scheduling_pass(scheduler, now=51.0)
        # The freed node goes to the older (requeued) pod, not the
        # younger one.
        assert [p for p, _ in second.launched] == [twin]
        assert young in second.requeued or young in second.deferred

    def test_requeued_pod_launches_when_space_frees(self):
        orchestrator = Orchestrator(
            paper_cluster(
                enforce_epc_limits=False,
                epc_allow_overcommit=False,
                sgx_workers=1,
            )
        )
        scheduler = BinpackScheduler()
        specs = [
            make_pod_spec(
                f"liar-{index}",
                duration_seconds=100.0,
                declared_epc_bytes=mib(1),
                actual_epc_bytes=mib(60),
            )
            for index in range(2)
        ]
        pods = [orchestrator.submit(s, now=0.0) for s in specs]
        first_pass = orchestrator.scheduling_pass(scheduler, now=1.0)
        assert len(first_pass.launched) == 1
        launched_pod = first_pass.launched[0][0]
        orchestrator.start_pod(launched_pod, now=1.2)
        orchestrator.complete_pod(launched_pod, now=50.0)
        second_pass = orchestrator.scheduling_pass(scheduler, now=51.0)
        assert len(second_pass.launched) == 1
        assert {p.name for p in pods} == {
            launched_pod.name,
            second_pass.launched[0][0].name,
        }
