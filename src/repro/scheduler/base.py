"""Scheduler framework: node views, measured-usage snapshots, FCFS pass.

The pieces every strategy shares:

* :class:`NodeView` — the scheduler's picture of one node: capacity,
  *measured* usage (from monitoring) and *committed* declared requests.
* :class:`ClusterStateService` — builds node views from Listing 1's
  per-pod sliding-window maxima, read from the window-max store,
  falling back to declared requests for pods too young to have
  samples; each build updates only the pods named in the one change
  log the store and the kubelets file into, and serves the views it
  keeps, putting back at the next build whatever a pass rebound.
* :class:`Scheduler` — the non-preemptive FCFS scheduling pass shared by
  all strategies; concrete strategies implement :meth:`Scheduler._select`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..cluster.resources import ResourceVector
from ..errors import SchedulingError
from ..monitoring.aggregate import WindowedAggregateCache, _NodeState
from ..monitoring.heapster import MEASUREMENT_MEMORY
from ..monitoring.probe import MEASUREMENT_EPC
from ..obs.ledger import NULL_LEDGER
from ..obs.spans import NULL_SPANS
from ..orchestrator.kubelet import Kubelet
from ..orchestrator.pod import Pod
from .filtering import can_ever_fit, feasible_candidates


@dataclass(slots=True)
class NodeView:
    """The scheduler's view of one node at pass time.

    ``used`` reflects measured usage plus in-pass reservations; the
    strategies mutate it via :meth:`reserve` as they assign pods so one
    pass never double-books a node.  The views the state service
    serves are its own; its next build puts their pristine ``used``
    and ``committed`` back, whatever a pass rebound.

    Slotted: a pass materialises one per node and the filter/score
    loops touch them per candidate per pod; equality stays the
    generated field-wise comparison (and the class stays unhashable),
    exactly as before the slots conversion.
    """

    name: str
    sgx_capable: bool
    capacity: ResourceVector
    used: ResourceVector = field(default_factory=ResourceVector.zero)
    committed: ResourceVector = field(default_factory=ResourceVector.zero)

    @property
    def available(self) -> ResourceVector:
        """Capacity minus used, floored at zero."""
        capacity = self.capacity
        used = self.used
        return ResourceVector._unchecked(
            max(0, capacity.cpu_millicores - used.cpu_millicores),
            max(0, capacity.memory_bytes - used.memory_bytes),
            max(0, capacity.epc_pages - used.epc_pages),
        )

    @property
    def load(self) -> float:
        """Scalar node load: the dominant utilisation across dimensions.

        Ignores dimensions the node does not have (EPC on standard
        nodes), so heterogeneous nodes compare sensibly.
        """
        return self.used.dominant_finite_utilization(self.capacity)

    def reserve(self, requests: ResourceVector) -> None:
        """Account an in-pass assignment against this node."""
        self.used = self.used + requests
        self.committed = self.committed + requests

    def release(
        self,
        freed: ResourceVector,
        committed: Optional[ResourceVector] = None,
    ) -> None:
        """Return an evicted pod's resources to this view (in-pass).

        The inverse of :meth:`reserve`, used by the preemption step
        when a victim is killed mid-pass.  ``freed`` is the usage
        estimate returned to ``used`` (measured EPC, declared
        memory/CPU); ``committed`` defaults to it.  Components are
        floored at zero because a victim's measured usage may exceed
        what this view had attributed to it — the next pass rebuilds
        views from ground truth either way.
        """
        self.used = (self.used - freed).clamp_floor()
        self.committed = (
            self.committed - (freed if committed is None else committed)
        ).clamp_floor()

    def load_after(self, requests: ResourceVector) -> float:
        """The load this node would have after placing *requests*.

        Evaluated once per candidate per pod on the spread/binpack hot
        path; shares :attr:`load`'s semantics via the same
        :meth:`~repro.cluster.resources.ResourceVector.
        dominant_finite_utilization` helper, without allocating a
        hypothetical view or intermediate vector.
        """
        return self.used.dominant_finite_utilization(
            self.capacity, extra=requests
        )


@dataclass(frozen=True, slots=True)
class Assignment:
    """One scheduling decision: pod onto node."""

    pod: Pod
    node_name: str


@dataclass(slots=True)
class SchedulingOutcome:
    """Everything one scheduling pass decided."""

    assignments: List[Assignment] = field(default_factory=list)
    #: Pods that can never fit any node and should be rejected.
    unschedulable: List[Pod] = field(default_factory=list)
    #: Pods left pending this pass (no room right now).
    deferred: List[Pod] = field(default_factory=list)
    #: Each deferred pod's reason, parallel to :attr:`deferred`.
    deferred_reasons: List[str] = field(default_factory=list)
    #: Why deferred pods waited, keyed by :data:`WAIT_REASONS` entries
    #: — the blocked dimension (no node has enough of it free), or
    #: ``fragmentation`` (each dimension fits somewhere, no single node
    #: fits all).
    wait_reasons: Dict[str, int] = field(default_factory=dict)


#: The deferral reasons, the keys of :attr:`SchedulingOutcome.wait_reasons`.
WAIT_REASONS = ("epc", "memory", "cpu", "fragmentation")


def classify_wait(
    requests: ResourceVector,
    cpu_max: int,
    memory_max: int,
    epc_max: int,
) -> str:
    """Why *requests* fit no node, given per-dimension free maxima.

    The maxima are taken over the pod's eligible nodes (SGX-capable
    only for enclave pods).  A dimension whose request exceeds even
    the best node's free amount is the binding constraint; checked in
    EPC -> memory -> CPU order because EPC is the scarcest resource.
    When every dimension fits *somewhere* but no single node fits all,
    the wait is down to fragmentation.
    """
    if requests.epc_pages > epc_max:
        return "epc"
    if requests.memory_bytes > memory_max:
        return "memory"
    if requests.cpu_millicores > cpu_max:
        return "cpu"
    return "fragmentation"


def _free_maxima(views: Sequence[NodeView]) -> Tuple[int, int, int]:
    """Per-dimension maxima of free capacity over *views*, a pod's
    eligible views (the SGX-capable ones for an enclave pod, all of
    them for a standard one); these are the maxima
    :func:`classify_wait` takes (``-1`` in every dimension without a
    view).
    """
    cpu_max = memory_max = epc_max = -1
    for view in views:
        available = view.available
        if available.cpu_millicores > cpu_max:
            cpu_max = available.cpu_millicores
        if available.memory_bytes > memory_max:
            memory_max = available.memory_bytes
        if available.epc_pages > epc_max:
            epc_max = available.epc_pages
    return cpu_max, memory_max, epc_max


class _NodeInputs:
    """What one node's view is built from, kept between builds.

    Each admitted pod's share of ``used``: its measured window maxima,
    or its declared requests while neither measurement has a row for it
    (pods younger than one probe period would be invisible to a purely
    measured view — this is the reservation that prevents stampedes
    between a bind and its first sample); a pod measured in one
    measurement only counts 0 in the other.  The shares' memory and EPC
    sums are kept as ints, exact whatever order pods come and go in.
    CPU is not measured, so ``used`` carries the committed CPU.
    """

    __slots__ = (
        "kubelet", "shares", "memory_bytes", "epc_pages", "used",
        "committed", "view",
    )

    def __init__(self, kubelet: Kubelet) -> None:
        self.kubelet = kubelet
        #: Each admitted pod's ``(memory_bytes, epc_pages)`` share.
        self.shares: Dict[str, Tuple[int, int]] = {}
        self.memory_bytes = 0
        self.epc_pages = 0
        #: The view of the last update and its pristine vectors (every
        #: node is updated at the service's first build).
        self.used: ResourceVector
        self.committed: ResourceVector
        self.view: NodeView

    def update(
        self,
        pod_names: Iterable,
        memory: Optional[_NodeState],
        epc: Optional[_NodeState],
    ) -> None:
        """Recompute *pod_names*' shares from the node's store states
        (``None`` without rows), then build the view."""
        admitted = self.kubelet.by_name
        shares = self.shares
        memory_bytes = self.memory_bytes
        epc_pages = self.epc_pages
        for name in pod_names:
            share = shares.pop(name, None)
            if share is not None:
                memory_bytes -= share[0]
                epc_pages -= share[1]
            pod = admitted.get(name)
            if pod is None:
                continue
            pod_memory = None if memory is None else memory.maximum(name)
            pod_epc = None if epc is None else epc.maximum(name)
            if pod_memory is None and pod_epc is None:
                requests = pod.spec.resources.requests
                share = (requests.memory_bytes, requests.epc_pages)
            else:
                share = (
                    0 if pod_memory is None else int(pod_memory),
                    0 if pod_epc is None else int(pod_epc),
                )
            shares[name] = share
            memory_bytes += share[0]
            epc_pages += share[1]
        self.memory_bytes = memory_bytes
        self.epc_pages = epc_pages
        kubelet = self.kubelet
        node = kubelet.node
        committed = self.committed = kubelet.committed_requests()
        used = self.used = ResourceVector._unchecked(
            committed.cpu_millicores, memory_bytes, epc_pages
        )
        self.view = NodeView(
            node.name,
            kubelet.advertised_epc_pages() > 0,
            node.capacity,
            used,
            committed,
        )


class ClusterStateService:
    """Builds :class:`NodeView` snapshots from Kubelets plus monitoring.

    The measured view is Listing 1's inner query: each pod's maximum
    over the sliding window, read from the window-max *store*.  The
    store and the kubelets file into one change log (the store's
    :attr:`~repro.monitoring.aggregate.WindowedAggregateCache.changes`):
    the pods whose window maxima moved and the pods admitted or torn
    down, by node.  Each build updates only the pods it names and
    empties it (see :meth:`build_views`).  Every kubelet must file
    into the store's log (``Kubelet(node, perf_model, store.changes)``,
    as the orchestrator builds them); a kubelet with a log of its own
    raises :class:`~repro.errors.SchedulingError`, since the service
    would never hear of its admissions and teardowns.
    """

    __slots__ = (
        "kubelets", "store", "changes", "_nodes", "_rows", "_last_views",
        "snapshots_reused", "nodes_rebuilt", "ledger", "spans",
    )

    def __init__(
        self,
        kubelets: Collection[Kubelet],
        store: WindowedAggregateCache,
        observer=None,
    ):
        #: The one change log, the store's, emptied at every build.
        self.changes = changes = store.changes
        for kubelet in kubelets:
            if kubelet.changes is not changes:
                raise SchedulingError(
                    f"kubelet of node {kubelet.node.name!r} files into "
                    "its own change log, not the store's: build it with "
                    "Kubelet(node, perf_model, store.changes)"
                )
        #: The cluster's fixed node set, in view order; each files the
        #: pods it admits and tears down in :attr:`changes`.
        self.kubelets = kubelets
        self.store = store
        #: Each node's kept view inputs, by node name, in view order.
        self._nodes: Dict[Optional[str], _NodeInputs] = {
            kubelet.node.name: _NodeInputs(kubelet) for kubelet in kubelets
        }
        # Every node is built at the first build, pods or not.
        for name in self._nodes:
            changes.setdefault(name, {})
        #: The store's memory and EPC node states at the last
        #: :meth:`state_unchanged`.
        self._rows: Tuple[Dict, Dict] = ({}, {})
        #: The retained snapshot: the last build's views in kubelet
        #: order, served again while nothing moved; every build that
        #: updates a node replaces the list.
        self._last_views: Optional[List[NodeView]] = None
        #: Passes answered from the retained snapshot (observability).
        self.snapshots_reused = 0
        #: Node views built (observability): one per moved node.
        self.nodes_rebuilt = 0
        #: The run's decision ledger / span recorder (null when the
        #: replay is unobserved); :meth:`build_views` records whether
        #: each pass rebuilt views or served the retained snapshot.
        self.ledger = observer.ledger if observer is not None else NULL_LEDGER
        self.spans = observer.spans if observer is not None else NULL_SPANS

    def state_unchanged(self, now: float) -> bool:
        """Whether views built at *now* would equal the previous pass's.

        Runs both measurements' expiry, which pops only the store's
        index entries older than the window and files what it changes;
        then nothing filed since the last build means nothing moved.
        :meth:`build_views` serves the retained snapshot when this
        holds, and the orchestrator then reuses the previous pass's
        all-deferred outcome as well (see
        :meth:`repro.orchestrator.controller.Orchestrator._schedule`).
        """
        store = self.store
        self._rows = (
            store.node_states(MEASUREMENT_MEMORY, now),
            store.node_states(MEASUREMENT_EPC, now),
        )
        return not self.changes

    def build_views(self, now: float) -> List[NodeView]:
        """One :class:`NodeView` per node, in :attr:`kubelets` order.

        First every retained view gets its pristine ``used`` and
        ``committed`` back, whatever the previous pass rebound.  Then
        only the pods named since the last build get their share
        recomputed, and only their nodes get a new view — Firmament's
        rule: re-solve from the changes since the last run.  When
        nothing was named (:meth:`state_unchanged`), the retained
        snapshot itself is served again.

        The list is the caller's; the views are the service's own,
        valid until the next build.
        """
        if self._last_views is not None:
            for inputs in self._nodes.values():
                view = inputs.view
                view.used = inputs.used
                view.committed = inputs.committed
        ledger = self.ledger
        if self.state_unchanged(now):
            self.snapshots_reused += 1
            if ledger.enabled:
                ledger.emit(now, "cache_rebuild", reused=True)
            assert self._last_views is not None
            return list(self._last_views)
        if ledger.enabled:
            ledger.emit(now, "cache_rebuild", reused=False)
        spans = self.spans
        span_start = spans.begin()
        views = self._last_views = self._build_moved()
        spans.end(span_start, "view_rebuild", now)
        return list(views)

    def _build_moved(self) -> List[NodeView]:
        """Views from the kept inputs, updating the nodes the change log
        names; empties the log."""
        memory, epc = self._rows
        nodes = self._nodes
        changes = self.changes
        for node_name, pod_names in changes.items():
            nodes[node_name].update(
                pod_names, memory.get(node_name), epc.get(node_name)
            )
        self.nodes_rebuilt += len(changes)
        changes.clear()
        return [inputs.view for inputs in nodes.values()]


class Scheduler(abc.ABC):
    """Shared FCFS scheduling pass; strategies pick the node.

    The paper's discipline (Section IV), the only one the pass runs:
    every pass walks the whole queue in its FCFS order and skips a pod
    it cannot place, like the Kubernetes scheduler it extends; standard
    pods land on SGX nodes only when no other node fits.  A strategy
    is built with no arguments and implements :meth:`_select`.
    """

    name = "abstract"

    #: Whether feasibility is judged against the measured view (the
    #: paper's system) or against declared commitments only (the
    #: Kubernetes-default baseline sets it ``False``).
    use_measured = True

    # ``name`` and ``use_measured`` stay class attributes (strategies
    # override them), so they must not appear in the slot tuple.
    __slots__ = ("ledger", "_shape")

    def __init__(self):
        #: The run's decision ledger.  The orchestrator rebinds this at
        #: the top of every pass; standalone schedulers keep the null
        #: one.
        self.ledger = NULL_LEDGER
        #: The cluster shape of the previous pass (see :meth:`schedule`).
        self._shape: Optional[tuple] = None

    def schedule(
        self, pending: Sequence[Pod], views: Sequence[NodeView], now: float
    ) -> SchedulingOutcome:
        """Run one pass over *pending* (oldest first) against *views*.

        The pass splits *views* by ``sgx_capable`` once: an enclave pod
        filters only the SGX-capable views, and a standard pod filters
        the others, then the SGX-capable ones only when none of those
        fits (the node-preservation rule of Section IV).  A pod's
        eligible views are the SGX-capable ones for an enclave pod and
        all of them for a standard one.

        A backlogged pass costs one cheap step per deferred pod:

        * Whether a pod can ever fit depends only on the cluster shape,
          each view's ``sgx_capable`` and capacity in order.  The pass
          keeps the previous pass's shape object while the shape stays
          equal, and a pod that fits records the shape it fitted under
          (:attr:`Pod.fit_shape`), so ``can_ever_fit`` runs once per pod
          per shape.  A queued pod that no longer fits is rejected by
          the first pass that sees the new shape, as without the record.
        * Only a placement changes the views within a pass, so the free
          maxima a deferral is classified by stay valid until the next
          :meth:`NodeView.reserve`.  They are kept per eligibility
          class, and a pod requesting more than a kept maximum in some
          dimension is deferred without filtering: free capacity floors
          at zero, so that request exceeds every eligible view's
          headroom and the filter could only return no candidates.
        """
        outcome = SchedulingOutcome()
        views = list(views)
        if not self.use_measured:
            for view in views:
                view.used = view.committed
        shape = tuple([(view.sgx_capable, view.capacity) for view in views])
        if shape == self._shape:
            shape = self._shape
        else:
            self._shape = shape
        sgx_views = [view for view in views if view.sgx_capable]
        standard_views = [view for view in views if not view.sgx_capable]
        ledger = self.ledger
        recording = ledger.enabled
        deferred = outcome.deferred
        deferred_reasons = outcome.deferred_reasons
        wait_reasons = outcome.wait_reasons
        # Free maxima of each eligibility class, until the next placement.
        sgx_maxima = standard_maxima = None
        for pod in pending:
            needs_sgx = pod.requires_sgx
            eligible = sgx_views if needs_sgx else views
            if pod.fit_shape is not shape:
                if not can_ever_fit(pod, eligible):
                    outcome.unschedulable.append(pod)
                    continue
                pod.fit_shape = shape
            requests = pod.spec.resources.requests
            maxima = sgx_maxima if needs_sgx else standard_maxima
            reason = None
            if maxima is not None:
                # classify_wait, inlined: a request above a kept maximum.
                cpu_max, memory_max, epc_max = maxima
                if requests.epc_pages > epc_max:
                    reason = "epc"
                elif requests.memory_bytes > memory_max:
                    reason = "memory"
                elif requests.cpu_millicores > cpu_max:
                    reason = "cpu"
            if reason is None:
                if needs_sgx:
                    candidates = feasible_candidates(pod, sgx_views)
                else:
                    candidates = feasible_candidates(
                        pod, standard_views
                    ) or feasible_candidates(pod, sgx_views)
                chosen = (
                    self._select(pod, candidates, views)
                    if candidates
                    else None
                )
                if chosen is not None:
                    if not requests.fits_within(chosen.available):
                        raise SchedulingError(
                            f"{self.name} selected saturated node "
                            f"{chosen.name} for pod {pod.name}"
                        )
                    chosen.reserve(requests)
                    sgx_maxima = standard_maxima = None
                    outcome.assignments.append(
                        Assignment(pod=pod, node_name=chosen.name)
                    )
                    if recording:
                        ledger.emit(
                            now, "placement",
                            pod=pod.name, node=chosen.name,
                            runner_ups=len(candidates) - 1,
                        )
                    continue
                if maxima is None:
                    maxima = _free_maxima(eligible)
                    if needs_sgx:
                        sgx_maxima = maxima
                    else:
                        standard_maxima = maxima
                    reason = classify_wait(requests, *maxima)
                else:
                    # Within every kept maximum, yet no node took it.
                    reason = "fragmentation"
            deferred.append(pod)
            deferred_reasons.append(reason)
            wait_reasons[reason] = wait_reasons.get(reason, 0) + 1
            if recording:
                ledger.emit(now, "deferral", pod=pod.name, reason=reason)
        return outcome

    @abc.abstractmethod
    def _select(
        self,
        pod: Pod,
        candidates: Sequence[NodeView],
        views: Sequence[NodeView],
    ) -> Optional[NodeView]:
        """Pick one of *candidates* for *pod*; ``None`` defers the pod.

        Must be a pure function of ``(pod, candidates, views)``: no
        state kept between calls, no clock, no randomness of its own,
        and any attribute it reads must stay fixed during a run.  The
        orchestrator relies on both when it answers a pass over an
        unchanged queue and cluster with the previous pass's outcome
        instead of calling :meth:`schedule` again.
        """
