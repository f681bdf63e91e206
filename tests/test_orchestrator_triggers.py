"""SchedulingTrigger: every cluster transition is counted and recorded.

The orchestrator publishes each transition that could make a
scheduling pass useful; on an observed run each one becomes a
``trigger`` ledger record (``repro explain`` reads a pod's submission
and end from them).
"""

from pass_reuse_reference import RecordingObserver
from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import paper_cluster
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.triggers import ClusterEvent, SchedulingTrigger
from repro.scheduler.binpack import BinpackScheduler
from repro.units import mib
from scheduling_reference import RecordingLedger


def triggers(ledger):
    """The ``trigger`` records of *ledger*, as (t, event, pod, node)."""
    return [
        (now, payload["event"], payload["pod"], payload["node"])
        for now, kind, payload in ledger.records
        if kind == "trigger"
    ]


class TestPublishSubscribe:
    """``publish`` counts and records; listeners are gone since 4.0.0."""

    def test_counters(self):
        trigger = SchedulingTrigger()
        trigger.ledger = RecordingLedger()
        trigger.publish(ClusterEvent.POD_SUBMITTED, 1.0)
        trigger.publish(ClusterEvent.POD_SUBMITTED, 1.5)
        assert trigger.events_published == 2
        assert triggers(trigger.ledger) == [
            (1.0, "pod-submitted", None, None),
            (1.5, "pod-submitted", None, None),
        ]


class TestOrchestratorPublishes:
    """The controller publishes each lifecycle transition."""

    def events(self, orchestrator):
        return [event for _, event, _, _ in triggers(orchestrator.ledger)]

    def test_submit_complete_kill(self):
        orchestrator = Orchestrator(
            paper_cluster(), observer=RecordingObserver()
        )
        scheduler = BinpackScheduler()
        pod = orchestrator.submit(
            make_pod_spec("p", duration_seconds=60.0,
                          declared_epc_bytes=mib(10)),
            now=0.0,
        )
        assert triggers(orchestrator.ledger) == [
            (0.0, "pod-submitted", "p", None)
        ]
        orchestrator.scheduling_pass(scheduler, now=1.0)
        orchestrator.start_pod(pod, now=2.0)
        orchestrator.complete_pod(pod, now=50.0)
        assert triggers(orchestrator.ledger)[-1] == (
            50.0, "pod-completed", "p", pod.node_name
        )

        victim = orchestrator.submit(
            make_pod_spec("v", duration_seconds=60.0), now=51.0
        )
        orchestrator.kill_pod(victim, now=52.0, reason="test")
        assert self.events(orchestrator)[-2:] == [
            "pod-submitted", "pod-killed",
        ]
        assert orchestrator.trigger.events_published == 4

    def test_node_add_remove(self):
        orchestrator = Orchestrator(
            paper_cluster(), observer=RecordingObserver()
        )
        orchestrator.add_node(Node(NodeSpec.sgx("sgx-worker-9")), now=5.0)
        orchestrator.remove_node("sgx-worker-9", now=6.0)
        assert triggers(orchestrator.ledger) == [
            (5.0, "node-added", None, "sgx-worker-9"),
            (6.0, "node-removed", None, "sgx-worker-9"),
        ]

    def test_requeue_publishes_ready_at(self):
        orchestrator = Orchestrator(
            paper_cluster(
                enforce_epc_limits=False,
                epc_allow_overcommit=False,
                sgx_workers=1,
            ),
            requeue_backoff_seconds=30.0,
            observer=RecordingObserver(),
        )
        for index in range(2):
            orchestrator.submit(
                make_pod_spec(
                    f"liar-{index}",
                    duration_seconds=100.0,
                    declared_epc_bytes=mib(1),
                    actual_epc_bytes=mib(60),
                ),
                now=0.0,
            )
        result = orchestrator.scheduling_pass(BinpackScheduler(), now=1.0)
        assert len(result.requeued) == 1
        requeued = result.requeued[0].name
        assert self.events(orchestrator).count("pod-requeued") == 1
        assert (1.0, "pod-requeued", requeued, None) in triggers(
            orchestrator.ledger
        )
        # The ``requeue`` record carries when the backoff ends.
        requeues = [
            payload
            for _, kind, payload in orchestrator.ledger.records
            if kind == "requeue"
        ]
        assert requeues == [{"pod": requeued, "ready_at": 31.0}]
