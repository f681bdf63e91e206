"""Scheduler framework: node views, measured-usage snapshots, FCFS pass.

The pieces every strategy shares:

* :class:`NodeView` — the scheduler's picture of one node: capacity,
  *measured* usage (from monitoring) and *committed* declared requests.
* :class:`ClusterStateService` — builds node views from Listing 1's
  per-pod sliding-window maxima (read from the window-max store, or by
  running the InfluxQL query against a monitoring database), falling
  back to declared requests for pods too young to have samples.
* :class:`Scheduler` — the non-preemptive FCFS scheduling pass shared by
  all strategies; concrete strategies implement :meth:`Scheduler._select`.
"""

from __future__ import annotations

import abc
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.resources import ResourceVector
from ..constants import METRICS_WINDOW_SECONDS
from ..errors import SchedulingError
from ..monitoring.aggregate import WindowedAggregateCache
from ..monitoring.heapster import MEASUREMENT_MEMORY
from ..monitoring.influxql import execute_query, parse_query
from ..monitoring.probe import MEASUREMENT_EPC
from ..obs.ledger import NULL_LEDGER
from ..obs.spans import NULL_SPANS
from ..orchestrator.kubelet import Kubelet
from ..orchestrator.pod import Pod
from .filtering import can_ever_fit, feasible_candidates, prefer_non_sgx
from .index import NodeCandidateIndex, SelectionStats

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class NodeView:
    """The scheduler's view of one node at pass time.

    ``used`` reflects measured usage plus in-pass reservations; the
    strategies mutate it via :meth:`reserve` as they assign pods so one
    pass never double-books a node.

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
    #: fits all), or ``head_of_line`` (strict-FCFS tail, never
    #: examined).
    wait_reasons: Dict[str, int] = field(default_factory=dict)

    def defer(self, pod: Pod, reason: str) -> None:
        """Record *pod* as deferred for *reason*."""
        self.deferred.append(pod)
        self.deferred_reasons.append(reason)
        self.wait_reasons[reason] = self.wait_reasons.get(reason, 0) + 1


#: The deferral-reason keys :meth:`SchedulingOutcome.defer` uses.
WAIT_REASONS = ("epc", "memory", "cpu", "fragmentation", "head_of_line")


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


def _free_maxima(
    views: Sequence[NodeView], requires_sgx: bool
) -> Tuple[int, int, int]:
    """Per-dimension maxima of free capacity over the eligible views.

    Eligible means SGX-capable for an enclave pod and any view for a
    standard one; these are the maxima :func:`classify_wait` takes
    (``-1`` in every dimension when no view is eligible).
    """
    cpu_max = memory_max = epc_max = -1
    for view in views:
        if requires_sgx and not view.sgx_capable:
            continue
        available = view.available
        if available.cpu_millicores > cpu_max:
            cpu_max = available.cpu_millicores
        if available.memory_bytes > memory_max:
            memory_max = available.memory_bytes
        if available.epc_pages > epc_max:
            epc_max = available.epc_pages
    return cpu_max, memory_max, epc_max


#: Inner query of the paper's Listing 1, parameterised by measurement:
#: the per-pod maximum over the sliding window, tagged by node.
_PER_POD_QUERY = (
    'SELECT MAX(value) AS usage FROM "{measurement}" '
    "WHERE value <> 0 AND time >= now() - {window}s "
    "GROUP BY pod_name, nodename"
)


class ClusterStateService:
    """Builds :class:`NodeView` snapshots from Kubelets plus monitoring.

    The measured view comes from Listing 1's inner query, one run per
    measurement per pass.  When a
    :class:`~repro.monitoring.aggregate.WindowedAggregateCache` is
    supplied (the orchestrator wires one by default), each pass consumes
    an incremental cache snapshot — O(live series) — instead of
    re-scanning every point in the window; the cache window must equal
    ``window_seconds`` so both paths answer the identical query.  Passes
    the cache cannot serve (non-monotone clocks, cold state) fall back
    to the full InfluxQL scan over *db*, which produces bit-for-bit the
    same rows.  A standalone cache (``db=None``) has no scan to fall back
    to and raises instead; without a cache, *db* is required.

    Rows missing the ``nodename`` or ``pod_name`` tag cannot be
    attributed to a pod; they are skipped and counted in
    :attr:`malformed_rows_skipped` rather than silently folded into a
    shared ``(None, ...)`` bucket.
    """

    __slots__ = (
        "kubelets", "db", "window_seconds", "cache",
        "allow_query_cache", "_last_views",
        "_last_fingerprint", "snapshots_reused",
        "malformed_rows_skipped", "_epc_query", "_memory_query",
        "ledger", "spans",
    )

    def __init__(
        self,
        kubelets: Sequence[Kubelet],
        db,
        window_seconds: float = METRICS_WINDOW_SECONDS,
        cache: Optional[WindowedAggregateCache] = None,
        allow_query_cache: bool = True,
        observer=None,
    ):
        if db is None and (cache is None or not allow_query_cache):
            raise SchedulingError(
                "no monitoring source: pass a database, a window-max "
                "store with allow_query_cache=True, or both"
            )
        if cache is not None and cache.window_seconds != window_seconds:
            raise SchedulingError(
                f"state cache window {cache.window_seconds}s does not "
                f"match the query window {window_seconds}s"
            )
        self.kubelets = list(kubelets)
        self.db = db
        self.window_seconds = window_seconds
        self.cache = cache
        #: When False, full scans bypass the InfluxQL fast path too —
        #: a shared db may carry a cache attached by another owner, and
        #: a caller that disabled caching must really measure the scan.
        self.allow_query_cache = allow_query_cache
        #: Skip-clean passes: when the aggregate cache and the kubelet
        #: commitments report no change since the previous pass, reuse
        #: the previous pass's node views instead of rebuilding them.
        self._last_views: Optional[List[NodeView]] = None
        self._last_fingerprint: Optional[Tuple] = None
        #: Passes answered from the retained views (observability).
        self.snapshots_reused = 0
        #: Malformed-row *observations*: a row missing its
        #: ``nodename``/``pod_name`` tags is counted on every pass it
        #: stays inside the window, so this tracks exposure, not
        #: distinct rows.
        self.malformed_rows_skipped = 0
        #: The run's decision ledger / span recorder (null when the
        #: replay is unobserved); :meth:`build_views` records whether
        #: each pass rebuilt its views or reused the clean snapshot.
        self.ledger = observer.ledger if observer is not None else NULL_LEDGER
        self.spans = observer.spans if observer is not None else NULL_SPANS
        self._epc_query = parse_query(
            _PER_POD_QUERY.format(
                measurement=MEASUREMENT_EPC, window=window_seconds
            )
        )
        self._memory_query = parse_query(
            _PER_POD_QUERY.format(
                measurement=MEASUREMENT_MEMORY, window=window_seconds
            )
        )

    def _window_maxima(
        self, measurement: str, query, now: float
    ) -> List[Tuple[Optional[str], Optional[str], float]]:
        """Per-series ``(nodename, pod_name, max)`` over the window."""
        allow_fast_path = self.allow_query_cache
        if self.cache is not None and self.allow_query_cache:
            maxima = self.cache.window_maxima(measurement, now)
            if maxima is not None:
                return maxima
            # The cache just declined this (measurement, now); don't
            # let execute_query's fast path ask it again (it would
            # decline identically, double-counting the fallback).
            allow_fast_path = False
        return [
            (row.get("nodename"), row.get("pod_name"), row.get("usage", 0.0))
            for row in execute_query(
                query, self.db, now,
                allow_fast_path=allow_fast_path,
            )
        ]

    def _measured_usage(
        self, now: float
    ) -> Dict[str, Dict[str, Tuple[int, int]]]:
        """Measured ``(memory_bytes, epc_pages)`` nested by node, pod.

        Runs once per pass over every live series, so the reduction
        stays on plain ints — :meth:`build_views` folds the pairs into
        its per-node vectors.  Each measurement yields one row per
        ``(node, pod)`` group, so plain assignment per measurement is a
        correct accumulation.  The nesting (node -> pod -> sample)
        spares the view builder one tuple-key allocation per admitted
        pod per pass.
        """
        measured: Dict[str, Dict[str, Tuple[int, int]]] = {}
        skipped = 0
        for node, pod, usage in self._window_maxima(
            MEASUREMENT_MEMORY, self._memory_query, now
        ):
            if node is None or pod is None:
                skipped += 1
                continue
            node_measured = measured.get(node)
            if node_measured is None:
                node_measured = measured[node] = {}
            node_measured[pod] = (int(usage), 0)
        for node, pod, usage in self._window_maxima(
            MEASUREMENT_EPC, self._epc_query, now
        ):
            if node is None or pod is None:
                skipped += 1
                continue
            node_measured = measured.get(node)
            if node_measured is None:
                node_measured = measured[node] = {}
            entry = node_measured.get(pod)
            node_measured[pod] = (entry[0] if entry else 0, int(usage))
        if skipped:
            # Malformed rows persist in the window across passes; warn
            # on first sight only so the scheduling loop cannot flood
            # the log, then keep the running count at debug level.
            level = (
                logging.WARNING
                if self.malformed_rows_skipped == 0
                else logging.DEBUG
            )
            self.malformed_rows_skipped += skipped
            logger.log(
                level,
                "dropped %d monitoring row(s) missing nodename/pod_name "
                "tags at t=%.1f (%d total)",
                skipped, now, self.malformed_rows_skipped,
            )
        return measured

    # -- skip-clean passes -------------------------------------------------

    def _state_fingerprint(self, now: float) -> Optional[Tuple]:
        """O(nodes) token identifying the inputs of :meth:`build_views`.

        Two equal, non-``None`` fingerprints guarantee byte-identical
        views: the aggregate cache's content version covers every
        monitoring write that could alter a window maximum, its
        stability horizon covers expiry-by-time-passage, and the kubelet
        commitment versions cover the admitted-pod sets.  ``None``
        means "cannot prove anything" (no cache, cache fell back, or
        the window has drifted past the stability horizon) and forces a
        rebuild.
        """
        cache = self.cache
        if cache is None or not self.allow_query_cache:
            return None
        stable = min(
            cache.stable_until(MEASUREMENT_MEMORY),
            cache.stable_until(MEASUREMENT_EPC),
        )
        if now > stable:
            # The horizon lapsed, most often because steady-state
            # writes kept refreshing unchanged maxima; advance it with
            # one cheap walk (rows that really changed bump the
            # version, failing the comparison below as they must).
            cache.revalidate(MEASUREMENT_MEMORY, now)
            cache.revalidate(MEASUREMENT_EPC, now)
            stable = min(
                cache.stable_until(MEASUREMENT_MEMORY),
                cache.stable_until(MEASUREMENT_EPC),
            )
            if now > stable:
                return None
        return (
            cache.content_version,
            tuple(
                (kubelet.node.name, kubelet.commitment_version)
                for kubelet in self.kubelets
            ),
        )

    def state_unchanged(self, now: float) -> bool:
        """Whether views built at *now* would equal the previous pass's.

        :meth:`build_views` serves the retained snapshot when this
        holds, and the orchestrator then reuses the previous pass's
        all-deferred outcome as well (see
        :meth:`repro.orchestrator.controller.Orchestrator._schedule`).
        """
        if self._last_views is None:
            return False
        fingerprint = self._state_fingerprint(now)
        return (
            fingerprint is not None
            and fingerprint == self._last_fingerprint
        )

    @staticmethod
    def _clone_views(views: Sequence[NodeView]) -> List[NodeView]:
        """Fresh NodeView objects over the same (immutable) vectors.

        Strategies mutate views only by rebinding ``used``/``committed``
        (see :meth:`NodeView.reserve`), so sharing the vectors is safe
        while the retained originals stay pristine.
        """
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

    def build_views(self, now: float) -> List[NodeView]:
        """One :class:`NodeView` per node, in Kubelet registration order.

        Each admitted pod contributes its measured usage when the window
        holds a sample for it, and its declared requests otherwise (pods
        younger than one probe period would be invisible to a purely
        measured view — this is the reservation that prevents stampedes
        between a bind and its first sample).

        A pass whose fingerprint matches the previous pass's reuses
        the retained views (the malformed-row counter then reflects
        rebuilt passes only).
        """
        ledger = self.ledger
        if self.state_unchanged(now):
            self.snapshots_reused += 1
            if ledger.enabled:
                ledger.emit(now, "cache_rebuild", reused=True)
            assert self._last_views is not None
            return self._clone_views(self._last_views)
        if ledger.enabled:
            ledger.emit(now, "cache_rebuild", reused=False)
        spans = self.spans
        span_start = spans.begin()
        measured = self._measured_usage(now)
        empty: Dict[str, Tuple[int, int]] = {}
        views: List[NodeView] = []
        for kubelet in self.kubelets:
            node = kubelet.node
            node_name = node.name
            node_measured = measured.get(node_name, empty)
            # Accumulate on plain ints: the per-pod vector adds were
            # the hottest allocation site of the pass, and integer
            # accumulation is exactly the same sum.
            cpu = memory = epc = 0
            for record in kubelet.admitted_records():
                sample = node_measured.get(record.pod_name)
                # CPU is not measured; carry the declared value.  The
                # record denormalises the request components so this
                # loop never dereferences the pod at all.
                cpu += record.req_cpu
                if sample is not None:
                    memory += sample[0]
                    epc += sample[1]
                else:
                    memory += record.req_mem
                    epc += record.req_epc
            views.append(
                NodeView(
                    name=node_name,
                    sgx_capable=kubelet.advertised_epc_pages() > 0,
                    capacity=node.capacity,
                    used=ResourceVector._unchecked(cpu, memory, epc),
                    committed=kubelet.committed_requests(),
                )
            )
        # Fingerprint AFTER the build: the snapshot above refreshed the
        # cache's stability horizon for the window at *now*.
        self._last_views = self._clone_views(views)
        self._last_fingerprint = self._state_fingerprint(now)
        spans.end(span_start, "view_rebuild", now)
        return views


class Scheduler(abc.ABC):
    """Shared FCFS scheduling pass; strategies pick the node.

    Parameters
    ----------
    use_measured:
        When ``True`` (the paper's system), feasibility is judged against
        the measured view; when ``False``, against declared commitments
        only (the Kubernetes-default baseline and an ablation toggle).
    strict_fcfs:
        When ``True``, a pod that cannot be placed blocks all younger
        pods (head-of-line blocking).  Defaults to the Kubernetes-like
        behaviour of skipping unschedulable pods while keeping FCFS
        *priority*.
    preserve_sgx_nodes:
        The paper's node-preservation rule: standard jobs only land on
        SGX nodes when no other node fits (Section IV).  Exposed as a
        toggle for the ablation benchmark.
    indexed:
        When ``True``, the pass batches the pending queue against the
        incremental :class:`~repro.scheduler.index.NodeCandidateIndex`
        instead of re-scanning every node for every pod.  Selections
        are bit-for-bit identical to the default full-scan pass; the
        toggle exists for A/B benchmarking.  The equivalence suite
        checks both passes against the literal per-pod scan kept in
        ``tests/scheduling_reference.py``.
    """

    name = "abstract"

    # ``name`` stays a class attribute (strategies override it), so it
    # must not appear in the slot tuple.
    __slots__ = (
        "use_measured", "strict_fcfs", "preserve_sgx_nodes", "indexed",
        "_index_statics_cache", "last_selection_stats", "last_index",
        "ledger",
    )

    def __init__(
        self,
        use_measured: bool = True,
        strict_fcfs: bool = False,
        preserve_sgx_nodes: bool = True,
        indexed: bool = False,
    ):
        self.use_measured = use_measured
        self.strict_fcfs = strict_fcfs
        self.preserve_sgx_nodes = preserve_sgx_nodes
        self.indexed = indexed
        #: Membership statics reused across passes until node churn.
        self._index_statics_cache: Dict = {}
        #: Counters of the most recent indexed pass (``None`` after a
        #: full-scan pass); the orchestrator copies this into PassResult.
        self.last_selection_stats: Optional[SelectionStats] = None
        #: The candidate index of the most recent indexed pass
        #: (``None`` after a full-scan pass).  The orchestrator's
        #: preemption step keeps it consistent — O(log n) per
        #: un-placement — while evictions mutate the pass's views.
        self.last_index: Optional[NodeCandidateIndex] = None
        #: The run's decision ledger.  The orchestrator rebinds this at
        #: the top of every pass; standalone schedulers keep the null
        #: one.
        self.ledger = NULL_LEDGER

    def schedule(
        self, pending: Sequence[Pod], views: Sequence[NodeView], now: float
    ) -> SchedulingOutcome:
        """Run one pass over *pending* (oldest first) against *views*.

        Only a placement changes the views within a pass, so the free
        maxima a deferral is classified by stay valid until the next
        :meth:`NodeView.reserve`.  They are kept per eligibility class
        (enclave pods see the SGX-capable views, standard pods all of
        them), and a pod requesting more than a kept maximum in some
        dimension is deferred without filtering: free capacity floors
        at zero, so that request exceeds every eligible view's headroom
        and the filter could only return no candidates.
        """
        if self.indexed:
            return self._schedule_indexed(pending, views, now)
        self.last_selection_stats = None
        self.last_index = None
        ledger = self.ledger
        outcome = SchedulingOutcome()
        views = list(views)
        if not self.use_measured:
            for view in views:
                view.used = view.committed
        # requires_sgx -> free maxima over that class's eligible views.
        free_maxima: Dict[bool, Tuple[int, int, int]] = {}
        for position, pod in enumerate(pending):
            if not can_ever_fit(pod, views):
                outcome.unschedulable.append(pod)
                continue
            requests = pod.spec.resources.requests
            needs_sgx = pod.requires_sgx
            maxima = free_maxima.get(needs_sgx)
            if maxima is not None:
                reason = classify_wait(requests, *maxima)
                if reason != "fragmentation":
                    if self._defer(
                        outcome, pending, position, reason, now, blocks=True
                    ):
                        break
                    continue
            candidates = feasible_candidates(pod, views)
            if self.preserve_sgx_nodes:
                candidates = prefer_non_sgx(pod, candidates)
            chosen = (
                self._select(pod, candidates, views) if candidates else None
            )
            if chosen is None:
                if maxima is None:
                    maxima = free_maxima[needs_sgx] = _free_maxima(
                        views, needs_sgx
                    )
                reason = classify_wait(requests, *maxima)
                if self._defer(
                    outcome, pending, position, reason, now,
                    blocks=not candidates,
                ):
                    break
                continue
            if not requests.fits_within(chosen.available):
                raise SchedulingError(
                    f"{self.name} selected saturated node {chosen.name} "
                    f"for pod {pod.name}"
                )
            chosen.reserve(requests)
            free_maxima.clear()
            outcome.assignments.append(
                Assignment(pod=pod, node_name=chosen.name)
            )
            if ledger.enabled:
                ledger.emit(
                    now, "placement",
                    pod=pod.name, node=chosen.name,
                    runner_ups=len(candidates) - 1,
                )
        return outcome

    def _schedule_indexed(
        self, pending: Sequence[Pod], views: Sequence[NodeView], now: float
    ) -> SchedulingOutcome:
        """The batched pass: one index, incremental updates per placement.

        Mirrors :meth:`schedule` step for step — same unschedulable
        test, same deferral semantics (including the strict-FCFS tail),
        same saturation sanity check, same ``reserve`` mutation order —
        but answers each step from the candidate index.  For the
        built-in strategies a ``None`` selection can only mean "no
        feasible candidate", which is exactly the full-scan pass's
        empty-candidates branch, so the outcomes coincide bit for bit.
        Deferrals are classified from the index's tree roots, which
        hold the same free maxima the full-scan pass computes.
        """
        outcome = SchedulingOutcome()
        ledger = self.ledger
        views = list(views)
        if not self.use_measured:
            for view in views:
                view.used = view.committed
        stats = SelectionStats(pods=len(pending))
        index = NodeCandidateIndex(
            views, statics_cache=self._index_statics_cache, stats=stats
        )
        self.last_selection_stats = stats
        self.last_index = index
        for position, pod in enumerate(pending):
            if not index.can_ever_fit(pod):
                outcome.unschedulable.append(pod)
                continue
            had_candidates, chosen = self._select_indexed(pod, index)
            if chosen is None:
                reason = classify_wait(
                    pod.spec.resources.requests,
                    *index.availability_maxima(pod),
                )
                if self._defer(
                    outcome, pending, position, reason, now,
                    blocks=not had_candidates,
                ):
                    break
                continue
            if not pod.spec.resources.requests.fits_within(chosen.available):
                raise SchedulingError(
                    f"{self.name} selected saturated node {chosen.name} "
                    f"for pod {pod.name}"
                )
            chosen.reserve(pod.spec.resources.requests)
            index.note_reserved(chosen)
            stats.placements += 1
            outcome.assignments.append(
                Assignment(pod=pod, node_name=chosen.name)
            )
            if ledger.enabled:
                # The indexed fast paths never materialise the full
                # candidate list; -1 marks the count as unavailable.
                ledger.emit(
                    now, "placement",
                    pod=pod.name, node=chosen.name, runner_ups=-1,
                )
        stats.wait_reasons = dict(outcome.wait_reasons)
        return outcome

    def _defer(
        self,
        outcome: SchedulingOutcome,
        pending: Sequence[Pod],
        position: int,
        reason: str,
        now: float,
        blocks: bool,
    ) -> bool:
        """Defer ``pending[position]`` for *reason*; ``True`` ends the pass.

        *blocks* marks a pod that had no feasible candidate at all:
        under strict FCFS it holds back every younger pod, and those
        are deferred as ``head_of_line`` without being examined.
        """
        ledger = self.ledger
        pod = pending[position]
        outcome.defer(pod, reason)
        if ledger.enabled:
            ledger.emit(now, "deferral", pod=pod.name, reason=reason)
        if not (blocks and self.strict_fcfs):
            return False
        for blocked in pending[position + 1:]:
            outcome.defer(blocked, "head_of_line")
            if ledger.enabled:
                ledger.emit(
                    now, "deferral",
                    pod=blocked.name, reason="head_of_line",
                )
        return True

    def _select_indexed(
        self, pod: Pod, index: NodeCandidateIndex
    ) -> Tuple[bool, Optional[NodeView]]:
        """Indexed-path selection; strategies override for fast paths.

        Returns ``(had_candidates, chosen)``.  This default reproduces
        the oracle literally — materialise the candidate list (same
        membership, same input order) and delegate to :meth:`_select` —
        so any subclass is indexed-correct without opting in to a
        strategy-specific walk.
        """
        candidates = index.candidates(
            pod, self.preserve_sgx_nodes, in_input_order=True
        )
        if not candidates:
            return False, None
        return True, self._select(pod, candidates, index.views)

    @abc.abstractmethod
    def _select(
        self,
        pod: Pod,
        candidates: Sequence[NodeView],
        views: Sequence[NodeView],
    ) -> Optional[NodeView]:
        """Pick one of *candidates* for *pod*; ``None`` defers the pod.

        Must be a pure function of ``(pod, candidates, views)``: no
        state kept between calls, no clock, no randomness of its own.
        Knobs it reads beyond ``use_measured``, ``strict_fcfs`` and
        ``preserve_sgx_nodes`` must stay fixed during a run.  The
        orchestrator relies on both when it answers a pass over an
        unchanged queue and cluster with the previous pass's outcome
        instead of calling :meth:`schedule` again.
        """
