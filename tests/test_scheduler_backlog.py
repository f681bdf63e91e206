"""Backlogged queues in the default pass: one cheap step per deferred pod.

Within a pass only a placement changes the node views, so the free
maxima that classify a deferral are kept per eligibility class until
the next ``reserve``, and a pod requesting more than a kept maximum is
deferred without filtering the nodes again.  Across passes only a
change of cluster shape (each view's ``sgx_capable`` and capacity) can
change whether a pod can ever fit, so that check runs once per pod per
shape.  These tests pin both costs and the ways a stale or shared
answer would go wrong; every outcome is also checked against the
literal per-pod scan.
"""

import pytest

import repro.scheduler.base as base
from repro.cluster.resources import ResourceVector
from repro.scheduler import BinpackScheduler
from repro.units import gib
from scheduling_reference import RecordingLedger, reference_schedule
from test_scheduler_pass import clone_views, make_pod, make_view


def run_both(pods, views, scheduler=None):
    """The default pass's outcome and ledger, checked against the
    reference's on cloned views; *scheduler* may carry earlier passes."""
    reference = BinpackScheduler()
    reference.ledger = RecordingLedger()
    reference_views = clone_views(views)
    expected = reference_schedule(reference, pods, reference_views, 0.0)
    scheduler = scheduler or BinpackScheduler()
    scheduler.ledger = RecordingLedger()
    outcome = scheduler.schedule(pods, views, now=0.0)
    assert [(a.pod.name, a.node_name) for a in outcome.assignments] == [
        (a.pod.name, a.node_name) for a in expected.assignments
    ]
    assert outcome.unschedulable == expected.unschedulable
    assert outcome.deferred == expected.deferred
    assert outcome.wait_reasons == expected.wait_reasons
    assert scheduler.ledger.records == reference.ledger.records
    assert [(v.name, v.used) for v in views] == [
        (v.name, v.used) for v in reference_views
    ]
    return outcome, scheduler.ledger.records


def enclave_backlog(count):
    """*count* enclave pods, oldest first, each asking for more EPC."""
    return [
        make_pod(f"p{i:03d}", epc=10 + i, submitted_at=float(i))
        for i in range(count)
    ]


def deferrals(records):
    return [
        (payload["pod"], payload["reason"])
        for _, kind, payload in records
        if kind == "deferral"
    ]


@pytest.fixture
def spy(monkeypatch):
    """Record the calls the pass makes to a function of its module."""

    def install(name):
        calls = []
        original = getattr(base, name)

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(base, name, recording)
        return calls

    return install


class TestBacklogCost:
    def test_full_epc_backlog_filters_once(self, spy):
        filtered = spy("feasible_candidates")
        view = make_view("sgx-0", sgx=True, mem=gib(8), epc=1000)
        view.reserve(ResourceVector(epc_pages=1000))
        pods = enclave_backlog(200)
        outcome = BinpackScheduler().schedule(pods, [view], now=0.0)
        assert outcome.deferred == pods
        assert outcome.wait_reasons == {"epc": 200}
        # The first deferral filters; the other 199 exceed the kept
        # EPC maximum (zero) and never touch the view.
        assert len(filtered) == 1

    def test_pass_that_places_everything_scans_no_maxima(self, spy):
        scanned = spy("_free_maxima")
        views = [make_view("std-0"), make_view("sgx-0", sgx=True, epc=100)]
        pods = [
            make_pod("std", cpu=100, mem=gib(1)),
            make_pod("enclave", cpu=100, epc=10),
        ]
        outcome = BinpackScheduler().schedule(pods, views, now=0.0)
        assert len(outcome.assignments) == 2
        assert scanned == []


class TestMaximaStayExact:
    def test_placement_between_deferrals_refreshes_the_reason(self):
        view = make_view("sgx-0", sgx=True, cpu=4000, mem=gib(4), epc=100)
        view.reserve(ResourceVector(epc_pages=50))
        pods = [
            # Free EPC is 50 of 100: deferred, maxima (4000, 4 GiB, 50).
            make_pod("a", epc=80),
            # Fits: takes 3 GiB, leaving maxima (4000, 1 GiB, 40).
            make_pod("b", mem=gib(3), epc=10),
            # Within the pre-placement maxima, short of memory after it.
            make_pod("c", mem=gib(2), epc=10),
        ]
        outcome, records = run_both(pods, [view])
        assert [a.pod.name for a in outcome.assignments] == ["b"]
        assert deferrals(records) == [("a", "epc"), ("c", "memory")]

    def test_enclave_deferral_does_not_defer_a_standard_pod(self):
        std = make_view("std-0", mem=gib(64))
        sgx = make_view("sgx-0", sgx=True, mem=gib(4), epc=100)
        sgx.reserve(ResourceVector(epc_pages=100))
        pods = [
            # Fills the enclave class's maxima: (8000, 4 GiB, 0).
            make_pod("enclave", epc=10),
            # Above those maxima in memory, yet fits the standard node.
            make_pod("standard", mem=gib(8)),
            make_pod("enclave-2", epc=20),
        ]
        outcome, records = run_both(pods, [std, sgx])
        assert [(a.pod.name, a.node_name) for a in outcome.assignments] == [
            ("standard", "std-0")
        ]
        assert deferrals(records) == [
            ("enclave", "epc"), ("enclave-2", "epc")
        ]


def full_sgx_views(changed=None):
    """Two full SGX nodes, the second smaller, and a standard node.

    *changed* names a change to the cluster: ``leave`` drops the large
    SGX node, ``shrink`` halves its EPC and ``lose_sgx`` leaves it in
    place without SGX (its device plugin stopped advertising EPC).
    """
    large = make_view("sgx-0", sgx=True, mem=gib(8), epc=1000)
    small = make_view("sgx-1", sgx=True, mem=gib(8), epc=400)
    if changed == "shrink":
        large = make_view("sgx-0", sgx=True, mem=gib(8), epc=500)
    elif changed == "lose_sgx":
        large = make_view("sgx-0", mem=gib(8), epc=1000)
    for view in (large, small):
        view.reserve(view.capacity)
    views = [make_view("std-0"), large, small]
    if changed == "leave":
        views.remove(large)
    return views


class TestFitAnswerPerShape:
    def test_unchanged_shape_checks_each_pod_once(self, spy):
        checked = spy("can_ever_fit")
        pods = enclave_backlog(50)
        scheduler = BinpackScheduler()
        for _ in range(3):
            # Fresh views with equal capacities: the shape is the same.
            outcome, _ = run_both(pods, full_sgx_views(), scheduler)
            assert outcome.deferred == pods
        assert [args[0] for args in checked] == pods

    @pytest.mark.parametrize("change", ["leave", "shrink", "lose_sgx"])
    def test_shape_change_checks_every_queued_pod_again(self, spy, change):
        checked = spy("can_ever_fit")
        pods = enclave_backlog(50)
        scheduler = BinpackScheduler()
        run_both(pods, full_sgx_views(), scheduler)
        checked.clear()
        outcome, _ = run_both(pods, full_sgx_views(change), scheduler)
        assert outcome.deferred == pods
        assert [args[0] for args in checked] == pods

    @pytest.mark.parametrize("change", ["leave", "shrink", "lose_sgx"])
    def test_pod_that_no_longer_fits_is_rejected_in_that_pass(self, change):
        # 600 pages fit only the large SGX node's capacity.
        big = make_pod("big", epc=600)
        small = make_pod("small", epc=100, submitted_at=1.0)
        scheduler = BinpackScheduler()
        for _ in range(2):
            outcome, records = run_both(
                [big, small], full_sgx_views(), scheduler
            )
            assert outcome.unschedulable == []
            assert deferrals(records) == [("big", "epc"), ("small", "epc")]
        outcome, records = run_both(
            [big, small], full_sgx_views(change), scheduler
        )
        assert outcome.unschedulable == [big]
        assert deferrals(records) == [("small", "epc")]
