"""Pod lifecycle transitions and reported metrics."""

import itertools

import pytest

from repro.cluster.topology import paper_cluster
from repro.errors import OrchestrationError
from repro.orchestrator.api import PodPhase, PodSpec
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.pod import Pod

#: Pod uids in creation order, as an orchestrator numbers its pods.
_uids = itertools.count(1)


def make_pod(submitted_at=10.0) -> Pod:
    return Pod(
        PodSpec(name="p"),
        submitted_at=submitted_at,
        uid=f"{next(_uids):08d}",
    )


class TestTransitions:
    def test_happy_path(self):
        pod = make_pod()
        pod.mark_bound("node-1", 12.0)
        pod.mark_running(13.0)
        pod.mark_succeeded(70.0)
        assert pod.phase is PodPhase.SUCCEEDED
        assert pod.node_name == "node-1"

    def test_cannot_start_before_bind(self):
        with pytest.raises(OrchestrationError):
            make_pod().mark_running(1.0)

    def test_cannot_complete_before_start(self):
        pod = make_pod()
        pod.mark_bound("n", 11.0)
        with pytest.raises(OrchestrationError):
            pod.mark_succeeded(12.0)

    def test_cannot_bind_twice(self):
        pod = make_pod()
        pod.mark_bound("n", 11.0)
        with pytest.raises(OrchestrationError):
            pod.mark_bound("n", 12.0)

    def test_fail_from_any_non_terminal_phase(self):
        for stage in range(3):
            pod = make_pod()
            if stage >= 1:
                pod.mark_bound("n", 11.0)
            if stage >= 2:
                pod.mark_running(12.0)
            pod.mark_failed(20.0, "killed")
            assert pod.phase is PodPhase.FAILED
            assert pod.failure_reason == "killed"

    def test_cannot_fail_after_terminal(self):
        pod = make_pod()
        pod.mark_failed(11.0, "first")
        with pytest.raises(OrchestrationError):
            pod.mark_failed(12.0, "second")


class TestMetrics:
    def test_waiting_time(self):
        pod = make_pod(submitted_at=10.0)
        pod.mark_bound("n", 25.0)
        pod.mark_running(30.0)
        assert pod.waiting_seconds == 20.0

    def test_waiting_time_none_before_start(self):
        pod = make_pod()
        assert pod.waiting_seconds is None

    def test_turnaround(self):
        pod = make_pod(submitted_at=10.0)
        pod.mark_bound("n", 11.0)
        pod.mark_running(12.0)
        pod.mark_succeeded(100.0)
        assert pod.turnaround_seconds == 90.0

    def test_turnaround_includes_failed_pods(self):
        pod = make_pod(submitted_at=10.0)
        pod.mark_failed(15.0, "killed")
        assert pod.turnaround_seconds == 5.0

    def test_uids_unique(self):
        """Each orchestrator numbers its own pods from 1, whatever else
        runs in the process."""
        first = Orchestrator(paper_cluster())
        second = Orchestrator(paper_cluster())
        # Two names: one orchestrator holds one live pod per name.
        uids = [
            orchestrator.submit(PodSpec(name=name), now=0.0).uid
            for orchestrator, name in (
                (first, "p"), (first, "q"), (second, "p"),
            )
        ]
        assert uids == ["00000001", "00000002", "00000001"]
