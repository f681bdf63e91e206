"""Trigger records: every cluster transition is in the ledger.

On an observed run the orchestrator records each transition that
could make a scheduling pass useful as a ``trigger`` ledger record
(``repro explain`` reads a pod's submission and end from them).
"""

from pass_reuse_reference import RecordingObserver
from repro.cluster.topology import paper_cluster
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.scheduler.binpack import BinpackScheduler
from repro.units import mib


def triggers(ledger):
    """The ``trigger`` records of *ledger*, as (t, event, pod, node)."""
    return [
        (now, payload["event"], payload["pod"], payload["node"])
        for now, kind, payload in ledger.records
        if kind == "trigger"
    ]


class TestOrchestratorPublishes:
    """The controller records each lifecycle transition."""

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

    def test_requeue_publishes_ready_at(self):
        orchestrator = Orchestrator(
            paper_cluster(
                enforce_epc_limits=False,
                epc_allow_overcommit=False,
                sgx_workers=1,
            ),
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
        # The ``requeue`` record keeps the v1 schema's ``ready_at``: the
        # pod is eligible again at once, on the next pass.
        requeues = [
            (t, payload)
            for t, kind, payload in orchestrator.ledger.records
            if kind == "requeue"
        ]
        assert requeues == [(1.0, {"pod": requeued, "ready_at": 1.0})]
