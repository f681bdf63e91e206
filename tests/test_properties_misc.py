"""Property-based tests: cgroups, trace pipeline, perf model, sealing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from borg_csv_reference import build_borg_csv as reference_borg_csv
from repro.cluster.cgroups import CgroupHierarchy
from repro.errors import CgroupError
from repro.sgx.perf import SgxPerfModel
from repro.trace import resolve_trace
from repro.trace.borg import BorgTraceGenerator
from repro.trace.loader import dump_borg_csv
from repro.units import mib


class CgroupMachine(RuleBasedStateMachine):
    """Stateful check: the hierarchy mirrors a model dict exactly."""

    def __init__(self):
        super().__init__()
        self.hierarchy = CgroupHierarchy()
        self.model_pids = {}  # pid -> path
        self.created = set()

    @rule(uid=st.integers(min_value=0, max_value=30))
    def create_pod(self, uid):
        path = f"/kubepods/burstable/pod{uid}"
        if path in self.created:
            try:
                self.hierarchy.create_pod_cgroup(str(uid))
                raise AssertionError("duplicate pod cgroup accepted")
            except CgroupError:
                return
        self.hierarchy.create_pod_cgroup(str(uid))
        self.created.add(path)

    @precondition(lambda self: self.created)
    @rule(pid=st.integers(min_value=1, max_value=200), data=st.data())
    def attach(self, pid, data):
        path = data.draw(st.sampled_from(sorted(self.created)))
        self.hierarchy.attach(pid, path)
        self.model_pids[pid] = path

    @precondition(lambda self: self.model_pids)
    @rule(data=st.data())
    def detach(self, data):
        pid = data.draw(st.sampled_from(sorted(self.model_pids)))
        self.hierarchy.detach(pid)
        del self.model_pids[pid]

    @precondition(lambda self: self.created)
    @rule(data=st.data())
    def remove_if_empty(self, data):
        path = data.draw(st.sampled_from(sorted(self.created)))
        occupied = any(p == path for p in self.model_pids.values())
        try:
            self.hierarchy.remove(path)
            assert not occupied, "removed an occupied cgroup"
            self.created.remove(path)
        except CgroupError:
            assert occupied, "refused to remove an empty cgroup"

    @invariant()
    def attachments_match_model(self):
        for pid, path in self.model_pids.items():
            assert self.hierarchy.cgroup_of(pid) == path
        for path in self.created:
            assert self.hierarchy.exists(path)


TestCgroupStateMachine = CgroupMachine.TestCase


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pipeline") / "trace.csv"


def _borg_csv(spec):
    """``borg-csv``'s trace for *spec*, as the reference reads it."""
    trace = resolve_trace(spec)
    assert list(trace) == list(reference_borg_csv(spec))
    return trace


class TestTracePipelineProperties:
    @given(
        seed=st.integers(0, 1000),
        start=st.floats(0.0, 1000.0),
        length=st.floats(10.0, 2000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_slice_stride_renumber_invariants(
        self, csv_path, seed, start, length
    ):
        dump_borg_csv(
            BorgTraceGenerator(seed=seed).scaled_trace(
                n_jobs=200, overallocators=10
            ),
            csv_path,
        )
        trace = _borg_csv(f"borg-csv:path={csv_path}")
        clip = (
            f"borg-csv:path={csv_path},start={start:.3f},window={length:.3f}"
        )
        window = _borg_csv(f"{clip},renumber=false")
        sampled = _borg_csv(f"{clip},stride=3,renumber=false")
        final = _borg_csv(f"{clip},stride=3")
        # Never grows, preserves order, starts at zero.
        assert len(final) == len(sampled) <= len(window) <= len(trace)
        assert sampled.jobs == window.jobs[::3]
        times = [j.submit_time for j in final]
        assert times == sorted(times)
        if times:
            assert times[0] == 0.0
        # Scaling never alters per-job payloads.
        for before, after in zip(sampled.jobs, final.jobs, strict=False):
            assert after.duration == before.duration
            assert after.max_memory == before.max_memory

    @given(
        n_jobs=st.integers(1, 300),
        overallocators=st.integers(0, 50),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=40)
    def test_overallocator_count_is_exact(
        self, n_jobs, overallocators, seed
    ):
        overallocators = min(overallocators, n_jobs)
        trace = BorgTraceGenerator(seed=seed).scaled_trace(
            n_jobs=n_jobs, overallocators=overallocators
        )
        assert trace.overallocator_count == overallocators


class TestPerfModelProperties:
    @given(
        a=st.integers(0, 256),
        b=st.integers(0, 256),
    )
    @settings(max_examples=60)
    def test_allocation_monotone(self, a, b):
        model = SgxPerfModel()
        low, high = sorted((mib(a), mib(b)))
        assert model.allocation_seconds(low) <= model.allocation_seconds(
            high
        )

    @given(
        ratio_a=st.floats(0.0, 5.0),
        ratio_b=st.floats(0.0, 5.0),
    )
    @settings(max_examples=60)
    def test_slowdown_monotone_and_bounded(self, ratio_a, ratio_b):
        model = SgxPerfModel()
        low, high = sorted((ratio_a, ratio_b))
        slow_low = model.paging_slowdown(low)
        slow_high = model.paging_slowdown(high)
        assert 1.0 <= slow_low <= slow_high <= 1000.0


class TestSealingProperties:
    @given(payload=st.binary(max_size=512), seed=st.integers(0, 100))
    @settings(max_examples=40)
    def test_seal_unseal_roundtrip_any_payload(self, payload, seed):
        from repro.sgx.aesm import AesmService
        from repro.sgx.enclave import Enclave
        from repro.sgx.epc import EnclavePageCache
        from repro.sgx.sealing import SealingService

        aesm = AesmService()
        aesm.start()
        enclave = Enclave(
            owner="/kubepods/burstable/podp",
            epc=EnclavePageCache(),
            size_bytes=mib(1),
            signer=f"vendor-{seed}",
        )
        enclave.initialize(
            aesm.get_launch_token(enclave.measurement, enclave.signer)
        )
        service = SealingService(f"platform-{seed}")
        blob = service.seal(enclave, payload)
        assert service.unseal(enclave, blob) == payload
