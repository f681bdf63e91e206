"""Backlogged queues in the default pass: one scan per class per placement.

Within a pass only a placement changes the node views, so the free
maxima that classify a deferral are kept per eligibility class until
the next ``reserve``, and a pod requesting more than a kept maximum is
deferred without filtering the nodes again.  These tests pin that cost
and the two ways a stale or shared maximum would go wrong; every
outcome is also checked against the literal per-pod scan.
"""

import pytest

import repro.scheduler.base as base
from repro.cluster.resources import ResourceVector
from repro.scheduler import BinpackScheduler
from repro.units import gib
from scheduling_reference import RecordingLedger, reference_schedule
from test_scheduler_pass import clone_views, make_pod, make_view


def run_both(pods, views):
    """The default pass's outcome and ledger, checked against the
    reference's on cloned views."""
    reference = BinpackScheduler()
    reference.ledger = RecordingLedger()
    reference_views = clone_views(views)
    expected = reference_schedule(reference, pods, reference_views, 0.0)
    scheduler = BinpackScheduler()
    scheduler.ledger = RecordingLedger()
    outcome = scheduler.schedule(pods, views, now=0.0)
    assert [(a.pod.name, a.node_name) for a in outcome.assignments] == [
        (a.pod.name, a.node_name) for a in expected.assignments
    ]
    assert outcome.deferred == expected.deferred
    assert outcome.wait_reasons == expected.wait_reasons
    assert scheduler.ledger.records == reference.ledger.records
    assert [(v.name, v.used) for v in views] == [
        (v.name, v.used) for v in reference_views
    ]
    return outcome, scheduler.ledger.records


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
        pods = [
            make_pod(f"p{i:03d}", epc=10 + i, submitted_at=float(i))
            for i in range(200)
        ]
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
