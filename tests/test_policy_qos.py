"""Priority classes and QoS derivation: the policy layer's vocabulary."""

import itertools

import pytest

from repro.cluster.resources import ResourceVector
from repro.errors import PolicyError
from repro.orchestrator.api import PodSpec, ResourceRequirements
from repro.orchestrator.pod import Pod
from repro.policy import (
    PRIORITY_CLASSES,
    QosClass,
    is_evictable_by,
    qos_of,
    resolve_priority,
)
from repro.units import gib, mib


#: Pod uids in creation order, as an orchestrator numbers its pods.
_uids = itertools.count(1)


def pod(name, priority=0, epc=0, mem=0, limits=None, submitted_at=0.0):
    requests = ResourceVector(memory_bytes=mem, epc_pages=epc)
    spec = PodSpec(
        name=name,
        resources=ResourceRequirements(requests=requests, limits=limits),
        priority=priority,
    )
    return Pod(spec, submitted_at=submitted_at, uid=f"{next(_uids):08d}")


class TestPriorityClasses:
    def test_default_catalogue_resolves(self):
        assert PRIORITY_CLASSES == {
            "best-effort": 0, "batch": 10, "latency-critical": 100,
        }
        for name, value in PRIORITY_CLASSES.items():
            assert resolve_priority(name) == value

    def test_resolve_accepts_ints_and_names(self):
        assert resolve_priority(42) == 42
        assert resolve_priority("latency-critical") == 100

    def test_resolve_unknown_name_lists_known(self):
        with pytest.raises(PolicyError, match="best-effort"):
            resolve_priority("platinum")

    def test_invalid_class_rejected(self):
        with pytest.raises(PolicyError):
            resolve_priority(True)  # type: ignore[arg-type]

    def test_pod_spec_rejects_non_int_priority(self):
        from repro.errors import PodSpecError

        with pytest.raises(PodSpecError):
            PodSpec(name="p", priority="high")  # type: ignore[arg-type]


class TestQosDerivation:
    def test_no_requests_is_best_effort(self):
        assert qos_of(ResourceRequirements()) is QosClass.BEST_EFFORT

    def test_requests_without_limits_is_burstable(self):
        # The trace pods' shape: one declared number, stored as
        # requests only.  Defaulted limits do not buy guaranteed QoS.
        resources = ResourceRequirements(
            requests=ResourceVector(memory_bytes=gib(1))
        )
        assert qos_of(resources) is QosClass.BURSTABLE
        assert resources.effective_limits == resources.requests

    def test_explicit_equal_limits_is_guaranteed(self):
        requests = ResourceVector(epc_pages=2560)
        resources = ResourceRequirements(requests=requests, limits=requests)
        assert qos_of(resources) is QosClass.GUARANTEED

    def test_looser_limits_is_burstable(self):
        resources = ResourceRequirements(
            requests=ResourceVector(memory_bytes=mib(512)),
            limits=ResourceVector(memory_bytes=gib(1)),
        )
        assert qos_of(resources) is QosClass.BURSTABLE

    def test_evictable_tiers(self):
        assert not QosClass.GUARANTEED.evictable
        assert QosClass.BURSTABLE.evictable
        assert QosClass.BEST_EFFORT.evictable

    def test_pod_qos_property(self):
        assert pod("p", mem=gib(1)).qos_class is QosClass.BURSTABLE


class TestEvictability:
    def test_lower_priority_burstable_running_is_evictable(self):
        victim = pod("victim", priority=0, mem=gib(1))
        victim.mark_bound("node", 1.0)
        victim.mark_running(2.0)
        preemptor = pod("vip", priority=100, mem=gib(1))
        assert is_evictable_by(victim, preemptor)

    def test_equal_priority_never_evicts(self):
        victim = pod("victim", priority=100, mem=gib(1))
        victim.mark_bound("node", 1.0)
        preemptor = pod("vip", priority=100, mem=gib(1))
        assert not is_evictable_by(victim, preemptor)

    def test_guaranteed_victim_protected(self):
        requests = ResourceVector(memory_bytes=gib(1))
        victim = pod("victim", priority=0, mem=gib(1), limits=requests)
        victim.mark_bound("node", 1.0)
        preemptor = pod("vip", priority=100)
        assert victim.qos_class is QosClass.GUARANTEED
        assert not is_evictable_by(victim, preemptor)

    def test_pending_and_terminal_pods_are_not_victims(self):
        pending = pod("pending", priority=0, mem=gib(1))
        preemptor = pod("vip", priority=100)
        assert not is_evictable_by(pending, preemptor)
        done = pod("done", priority=0, mem=gib(1))
        done.mark_failed(1.0, "killed")
        assert not is_evictable_by(done, preemptor)
