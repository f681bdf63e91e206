"""FCFS pending queue semantics (priority tiers, FCFS within each)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.errors import OrchestrationError
from repro.orchestrator.api import PodSpec, ResourceRequirements
from repro.orchestrator.pod import Pod
from repro.orchestrator.queue import PendingQueue
from repro.units import gib


#: Pod uids in creation order, as an orchestrator numbers its pods.
_uids = itertools.count(1)


def make_pod(
    name: str, submitted_at: float, epc=0, mem=0, priority=0
) -> Pod:
    spec = PodSpec(
        name=name,
        resources=ResourceRequirements(
            requests=ResourceVector(memory_bytes=mem, epc_pages=epc)
        ),
        priority=priority,
    )
    return Pod(spec, submitted_at=submitted_at, uid=f"{next(_uids):08d}")


class TestFcfsOrder:
    def test_iteration_is_submission_order(self):
        queue = PendingQueue()
        pods = [make_pod(f"p{i}", float(i)) for i in range(5)]
        for pod in pods:
            queue.push(pod)
        assert [p.name for p in queue] == [p.name for p in pods]

    def test_removal_preserves_relative_order(self):
        queue = PendingQueue()
        pods = [make_pod(f"p{i}", float(i)) for i in range(4)]
        for pod in pods:
            queue.push(pod)
        queue.remove(pods[1])
        assert [p.name for p in queue] == ["p0", "p2", "p3"]


class TestMembership:
    def test_double_push_rejected(self):
        queue = PendingQueue()
        pod = make_pod("p", 0.0)
        queue.push(pod)
        with pytest.raises(OrchestrationError):
            queue.push(pod)

    def test_remove_missing_rejected(self):
        with pytest.raises(OrchestrationError):
            PendingQueue().remove(make_pod("p", 0.0))

    def test_contains_and_len(self):
        queue = PendingQueue()
        pod = make_pod("p", 0.0)
        assert pod not in queue
        queue.push(pod)
        assert pod in queue
        assert len(queue) == 1


class TestPriorityTiers:
    def test_higher_tier_first_fcfs_within(self):
        queue = PendingQueue()
        queue.push(make_pod("low-old", 1.0, priority=0))
        queue.push(make_pod("high-young", 5.0, priority=100))
        queue.push(make_pod("low-young", 3.0, priority=0))
        queue.push(make_pod("high-old", 4.0, priority=100))
        assert [p.name for p in queue] == [
            "high-old", "high-young", "low-old", "low-young",
        ]

    def test_default_priority_preserves_pure_fcfs(self):
        # Every pod at the default 0: ordering collapses to the
        # pre-policy (submitted_at, uid) key.
        queue = PendingQueue()
        pods = [make_pod(f"p{i}", float(i)) for i in range(5)]
        for pod in pods:
            queue.push(pod)
        assert [p.name for p in queue] == [p.name for p in pods]

    def test_evicted_pod_resubmission_regains_tier_slot(self):
        # The eviction path resubmits a victim's *spec* with the
        # original submitted_at; the replacement must sort exactly
        # where the victim did, not at its tier's tail.
        queue = PendingQueue()
        victim = make_pod("victim", 1.0, priority=10)
        queue.push(make_pod("peer-young", 2.0, priority=10))
        replacement = Pod(
            victim.spec,
            submitted_at=victim.submitted_at,
            uid=f"{next(_uids):08d}",
        )
        queue.push(replacement)
        assert [p.name for p in queue] == ["victim", "peer-young"]


class TestRequeueBoundary:
    def test_ready_at_equal_to_now_is_visible(self):
        # Off-by-one guard: a requeued pod whose backoff expires at
        # exactly `now` is eligible — `ready_at <= now`, not `<`.
        queue = PendingQueue(requeue_backoff_seconds=10.0)
        pod = make_pod("p", 0.0)
        queue.push(pod)
        queue.remove(pod)
        ready_at = queue.requeue(pod, now=5.0)
        assert ready_at == 15.0
        assert queue.snapshot(14.999) == []
        assert len(queue.snapshot(14.999)) == 0
        assert queue.snapshot(15.0) == [pod]
        assert len(queue.snapshot(15.0)) == 1
        # No backoff left: every queued pod is visible.
        assert queue.snapshot(15.0) == queue.snapshot()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "requeue", "pop"]),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_requeue_preserves_fcfs_order(self, ops):
        """Interleaved push/requeue/pop never reorders the queue.

        The model is simply "the queue equals its pods sorted by
        (-priority, submitted_at, uid)"; a requeue (backoff 0, as in
        the paper) must put the pod straight back into that order, so
        the oldest pod can never starve behind younger ones.
        """
        queue = PendingQueue()
        clock = 0.0
        counter = 0
        live = []
        for op, priority_index in ops:
            clock += 1.0
            priority = (0, 0, 10, 100)[priority_index]
            if op == "push":
                pod = make_pod(
                    f"pod-{counter}", clock, priority=priority
                )
                counter += 1
                queue.push(pod)
                live.append(pod)
            elif op == "requeue" and live:
                pod = live[priority_index % len(live)]
                queue.remove(pod)
                queue.requeue(pod, now=clock)
            elif op == "pop" and live:
                pod = queue.snapshot(clock)[0]
                queue.remove(pod)
                live.remove(pod)
            expected = sorted(
                live,
                key=lambda p: (-p.spec.priority, p.submitted_at, p.uid),
            )
            assert queue.snapshot(clock) == expected


class TestAggregates:
    def test_pending_epc_pages(self):
        queue = PendingQueue()
        queue.push(make_pod("a", 0.0, epc=100))
        queue.push(make_pod("b", 1.0, epc=200))
        queue.push(make_pod("c", 2.0, mem=gib(1)))
        assert queue.total_requested_epc_pages() == 300

    def test_pending_memory(self):
        queue = PendingQueue()
        queue.push(make_pod("a", 0.0, mem=gib(1)))
        queue.push(make_pod("b", 1.0, mem=gib(2)))
        assert queue.total_requested_memory_bytes() == gib(3)

    def test_snapshot_is_a_copy(self):
        queue = PendingQueue()
        pod = make_pod("a", 0.0)
        queue.push(pod)
        snapshot = queue.snapshot()
        queue.remove(pod)
        assert snapshot == [pod]
