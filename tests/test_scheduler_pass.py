"""The default scheduling pass against the literal per-pod scan.

``Scheduler.schedule`` keeps per-class free maxima across deferrals
within a pass, and each pod's ``can_ever_fit`` answer across passes
over one cluster shape; ``scheduling_reference.py`` scans every node
afresh for every pod.  Over adversarial views and queues and every
strategy (``kube-default`` covers the declared-only view), the two
must agree exactly: same assignments, rejections, deferrals and wait
reasons, same view mutations, same ledger records — in one pass, and
over passes whose views gain or lose nodes, resize or lose SGX between
them (a replay's cluster is fixed, but a direct caller's views need
not be).
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.orchestrator.api import PodSpec, ResourceRequirements
from repro.orchestrator.pod import Pod
from repro.scheduler import (
    BinpackScheduler,
    KubeDefaultScheduler,
    NodeView,
    Scheduler,
    SpreadScheduler,
)
from repro.units import gib, mib
from scheduling_reference import RecordingLedger, reference_schedule


def make_view(
    name, sgx=False, cpu=8000, mem=gib(64), epc=0, used=None, committed=None
):
    return NodeView(
        name=name,
        sgx_capable=sgx,
        capacity=ResourceVector(cpu, mem, epc),
        used=used or ResourceVector.zero(),
        committed=committed or ResourceVector.zero(),
    )


def make_pod(name, cpu=0, mem=0, epc=0, submitted_at=0.0):
    spec = PodSpec(
        name=name,
        resources=ResourceRequirements(
            requests=ResourceVector(cpu, mem, epc)
        ),
    )
    return Pod(spec, submitted_at=submitted_at, uid=name)


def clone_views(views):
    return [
        NodeView(
            name=view.name,
            sgx_capable=view.sgx_capable,
            capacity=view.capacity,
            used=view.used,
            committed=view.committed,
        )
        for view in views
    ]


def outcome_signature(outcome):
    return (
        [(a.pod.name, a.node_name) for a in outcome.assignments],
        [pod.name for pod in outcome.unschedulable],
        [pod.name for pod in outcome.deferred],
        list(outcome.wait_reasons.items()),
    )


def views_signature(views):
    return [(v.name, v.used, v.committed) for v in views]


_vec = st.builds(
    ResourceVector,
    cpu_millicores=st.integers(0, 4000),
    memory_bytes=st.sampled_from([0, mib(512), gib(1), gib(4), gib(64)]),
    epc_pages=st.integers(0, 4096),
)

_view_strategy = st.builds(
    dict,
    sgx=st.booleans(),
    capacity=_vec,
    used=_vec,
    committed=_vec,
)

_pod_strategy = st.builds(
    dict,
    cpu=st.integers(0, 4000),
    mem=st.sampled_from([0, mib(512), gib(1), gib(4), gib(32)]),
    # Half standard pods: node preservation only applies to them.
    epc=st.one_of(st.just(0), st.integers(1, 4096)),
)


class DecliningScheduler(Scheduler):
    """A custom strategy that defers odd-CPU pods despite candidates."""

    name = "declining"

    def _select(self, pod, candidates, views):
        if pod.spec.resources.requests.cpu_millicores % 2:
            return None
        return candidates[-1]


STRATEGIES = {
    "binpack": BinpackScheduler,
    "spread": SpreadScheduler,
    "kube-default": KubeDefaultScheduler,
    "declining": DecliningScheduler,
}


class TestPassEquivalence:
    """The default pass against the literal per-pod scan."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(sorted(STRATEGIES)),
        raw_views=st.lists(_view_strategy, min_size=0, max_size=8),
        raw_pods=st.lists(_pod_strategy, min_size=0, max_size=10),
    )
    def test_single_pass_bit_for_bit(self, kind, raw_views, raw_pods):
        views = [
            NodeView(
                name=f"n{i:03d}",
                sgx_capable=raw["sgx"],
                capacity=raw["capacity"],
                used=raw["used"],
                committed=raw["committed"],
            )
            for i, raw in enumerate(raw_views)
        ]
        pods = [
            make_pod(f"p{i:03d}", submitted_at=float(i), **raw)
            for i, raw in enumerate(raw_pods)
        ]
        reference = STRATEGIES[kind]()
        reference.ledger = RecordingLedger()
        reference_views = clone_views(views)
        expected = reference_schedule(
            reference, pods, reference_views, now=100.0
        )
        scheduler = STRATEGIES[kind]()
        scheduler.ledger = RecordingLedger()
        scheduler_views = clone_views(views)
        outcome = scheduler.schedule(pods, scheduler_views, now=100.0)
        # Deferral order and wait reasons included: the reference's
        # fresh scan and the default pass's per-class free maxima name
        # the same binding dimension for every deferred pod.
        assert outcome_signature(outcome) == outcome_signature(expected)
        assert views_signature(scheduler_views) == views_signature(
            reference_views
        )
        assert scheduler.ledger.records == reference.ledger.records


def apply_change(configs, change, names):
    """Apply one drawn cluster change to the view *configs* in place."""
    op, *args = change
    if op == "add":
        configs.append(dict(args[0], name=next(names)))
        return
    targets = (
        [c for c in configs if c["sgx"]] if op == "lose_sgx" else configs
    )
    if not targets:
        return
    target = targets[args[0] % len(targets)]
    if op == "remove":
        configs.remove(target)
    elif op == "resize":
        target["capacity"] = args[1]
    else:
        target["sgx"] = False


def views_from(configs):
    """Fresh views over the configs, as a pass's view build gives."""
    return [
        NodeView(
            name=c["name"],
            sgx_capable=c["sgx"],
            capacity=c["capacity"],
            used=c["used"],
            committed=c["committed"],
        )
        for c in configs
    ]


_index = st.integers(0, 7)

_change_strategy = st.one_of(
    st.tuples(st.just("add"), _view_strategy),
    st.tuples(st.just("remove"), _index),
    st.tuples(st.just("resize"), _index, _vec),
    st.tuples(st.just("lose_sgx"), _index),
)


class TestPassesOverClusterChanges:
    """One scheduler over the same pods while the cluster changes."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(sorted(STRATEGIES)),
        raw_views=st.lists(_view_strategy, min_size=0, max_size=6),
        raw_pods=st.lists(_pod_strategy, min_size=1, max_size=10),
        changes=st.lists(
            st.lists(_change_strategy, min_size=0, max_size=3),
            min_size=1,
            max_size=3,
        ),
    )
    def test_every_pass_matches_the_reference(
        self, kind, raw_views, raw_pods, changes
    ):
        names = (f"n{i:03d}" for i in itertools.count())
        configs = [dict(raw, name=next(names)) for raw in raw_views]
        pending = [
            make_pod(f"p{i:03d}", submitted_at=float(i), **raw)
            for i, raw in enumerate(raw_pods)
        ]
        # One scheduler for every pass: what it keeps between passes is
        # what this property is about.
        scheduler = STRATEGIES[kind]()
        for number, between in enumerate([[]] + changes):
            for change in between:
                apply_change(configs, change, names)
            views = views_from(configs)
            reference = STRATEGIES[kind]()
            reference.ledger = RecordingLedger()
            reference_views = clone_views(views)
            now = 100.0 * (number + 1)
            expected = reference_schedule(
                reference, pending, reference_views, now=now
            )
            scheduler.ledger = RecordingLedger()
            outcome = scheduler.schedule(pending, views, now=now)
            assert outcome_signature(outcome) == outcome_signature(expected)
            assert views_signature(views) == views_signature(reference_views)
            assert scheduler.ledger.records == reference.ledger.records
            # Placed and rejected pods leave the queue; the rest wait.
            pending = outcome.deferred
