"""Indexed candidate selection: the batched scheduling fast path.

PR 1 made the per-pass cluster snapshot cheap and PR 2 skipped passes
that provably change nothing; the remaining hot path is the
O(pods × nodes) filter/score loop *inside* each pass.  This module
removes it: a :class:`NodeCandidateIndex` is built over the pass's
node views and kept consistent incrementally while the pending queue
is placed as one batch, so each pod consults sorted candidate indexes
instead of re-scanning every node:

* **capacity classes** — the distinct node capacities per hardware
  class, enough to answer ``can_ever_fit`` in O(classes) instead of
  O(nodes);
* **availability trees** (the memory-free / EPC-free / CPU-free
  indexes) — per hardware group, a segment tree over the name order
  whose nodes hold component-wise maxima of available resources.  The
  root answers "could anything here fit?" in O(1), first-fit descends
  to the leftmost admitting leaf in O(log nodes) instead of walking
  past every already-full node, and feasibility scans skip whole
  saturated subtrees.  Reservations update one leaf path in
  O(log nodes), so the maxima are always exact;
* **dominant-utilisation order** — group members ascending by node
  load, which lower-bounds every post-placement score and lets the
  least-requested baseline stop scoring as soon as no later candidate
  can win;
* **load cache** — each view's current load, so spread evaluates its
  stddev objective against cached floats instead of recomputing every
  node's load for every candidate.

The statics (sort orders, capacity classes, positions) depend only on
node *membership* — name, SGX capability, capacity — so the scheduler
caches them across passes and rebuilds them only on node churn, the
same reuse discipline as the state service's per-node view keys (a
pass whose views were served from the retained snapshot hits this
cache by construction).  The dynamic structures (availability
trees, loads) are refreshed incrementally after each in-batch
placement via :meth:`NodeCandidateIndex.note_reserved`.

Everything here is an *accelerator*, not a policy: candidate-set
membership and every score a strategy computes are bit-for-bit
identical to the full-scan pass in :mod:`repro.scheduler.base`
(``Scheduler(indexed=False)``, the default).  The equivalence suite
compares both passes against the literal per-pod scan kept in
``tests/scheduling_reference.py``.  The proofs lean on one invariant
the state service guarantees: view ``used``/``capacity`` components
are non-negative, hence ``load_after(r) >= load`` for any non-negative
request ``r``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..cluster.resources import ResourceVector
from ..orchestrator.pod import Pod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .base import NodeView

#: Membership signatures kept before the statics cache is dropped; node
#: churn is rare, so this only guards unbounded growth in pathological
#: add/remove loops.
_STATICS_CACHE_LIMIT = 16

#: Availability of a padded (non-existent) tree slot: admits nothing,
#: because requests are non-negative.
_NO_AVAILABILITY = (-1, -1, -1)


@dataclass(slots=True)
class SelectionStats:
    """Observability counters of one indexed scheduling pass."""

    #: Pods the pass considered.
    pods: int = 0
    #: Pods placed (mirrors ``len(outcome.assignments)``).
    placements: int = 0
    #: Index probes performed: segment-tree nodes visited during
    #: first-fit/scan descents plus candidates examined by score
    #: walks.  A relative measure of per-pass work across passes of
    #: the *same* strategy — not per-node feasibility evaluations, so
    #: not directly comparable to the oracle's ``pods × nodes`` or
    #: across strategies.
    feasibility_checks: int = 0
    #: Group lookups answered "nothing fits" straight from a tree root.
    bound_skips: int = 0
    #: Load-ordered score walks stopped early by the lower bound.
    score_cutoffs: int = 0
    #: Whether the membership statics were served from the cache.
    statics_reused: bool = False
    #: Deferral reasons of the pass (copied from the outcome): why the
    #: deferred pods waited, keyed by
    #: :data:`repro.scheduler.base.WAIT_REASONS`.
    wait_reasons: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class _IndexStatics:
    """Membership-derived structures, reusable across passes."""

    non_sgx_order: Tuple[int, ...]
    sgx_order: Tuple[int, ...]
    #: Distinct capacities of SGX-capable nodes / of all nodes, for
    #: O(classes) ``can_ever_fit``.
    sgx_capacities: Tuple[ResourceVector, ...]
    all_capacities: Tuple[ResourceVector, ...]
    position: Dict[str, int]


def _build_statics(views: Sequence["NodeView"]) -> _IndexStatics:
    by_name = sorted(range(len(views)), key=lambda i: views[i].name)
    return _IndexStatics(
        non_sgx_order=tuple(
            i for i in by_name if not views[i].sgx_capable
        ),
        sgx_order=tuple(i for i in by_name if views[i].sgx_capable),
        sgx_capacities=tuple(
            dict.fromkeys(
                view.capacity for view in views if view.sgx_capable
            )
        ),
        all_capacities=tuple(
            dict.fromkeys(view.capacity for view in views)
        ),
        position={view.name: i for i, view in enumerate(views)},
    )


class _GroupIndex:
    """Per-hardware-group indexes over the group's views (name order).

    The availability tree is a classic segment tree whose leaves are
    the members' ``available`` vectors (as int triples) in name order
    and whose inner nodes hold component-wise maxima.  A subtree whose
    maxima reject a request in any dimension provably contains no fit;
    a *leaf* whose triple admits the request provably is one, because a
    leaf's maxima are exactly its availability.  Both facts together
    make the descents below return precisely what the oracle's linear
    scans return.
    """

    __slots__ = ("views", "stats", "_leaf_base", "_tree", "_slot",
                 "_by_load", "_load_of")

    def __init__(self, views: List["NodeView"], stats: SelectionStats):
        self.views = views
        self.stats = stats
        self._slot = {view.name: i for i, view in enumerate(views)}
        leaf_base = 1
        while leaf_base < max(1, len(views)):
            leaf_base <<= 1
        self._leaf_base = leaf_base
        tree = [_NO_AVAILABILITY] * (2 * leaf_base)
        for i, view in enumerate(views):
            tree[leaf_base + i] = self._avail_of(view)
        for i in range(leaf_base - 1, 0, -1):
            tree[i] = self._merge(tree[2 * i], tree[2 * i + 1])
        self._tree = tree
        # Dominant-utilisation order, built on first use (binpack's
        # first-fit never needs it).
        self._by_load: Optional[List[Tuple[float, str]]] = None
        self._load_of: Optional[Dict[str, float]] = None

    # -- availability tree ------------------------------------------------

    @staticmethod
    def _avail_of(view: "NodeView") -> Tuple[int, int, int]:
        # Inlined ``view.available`` components: leaf refreshes run per
        # placement and need the triple, not a throwaway vector.
        capacity = view.capacity
        used = view.used
        return (
            max(0, capacity.cpu_millicores - used.cpu_millicores),
            max(0, capacity.memory_bytes - used.memory_bytes),
            max(0, capacity.epc_pages - used.epc_pages),
        )

    @staticmethod
    def _merge(
        a: Tuple[int, int, int], b: Tuple[int, int, int]
    ) -> Tuple[int, int, int]:
        return (
            a[0] if a[0] >= b[0] else b[0],
            a[1] if a[1] >= b[1] else b[1],
            a[2] if a[2] >= b[2] else b[2],
        )

    @staticmethod
    def _admits(
        bound: Tuple[int, int, int], requests: ResourceVector
    ) -> bool:
        """Necessary per-dimension fit condition; exact at leaves.

        Equivalent to ``requests.fits_within(view.available)`` when
        *bound* is a leaf triple: availability components are already
        clamped non-negative, so the comparisons coincide.
        """
        return (
            requests.cpu_millicores <= bound[0]
            and requests.memory_bytes <= bound[1]
            and requests.epc_pages <= bound[2]
        )

    def cannot_fit(self, requests: ResourceVector) -> bool:
        """Provably no member can host *requests* right now (O(1))."""
        return not self._admits(self._tree[1], requests)

    @property
    def root(self) -> Tuple[int, int, int]:
        """Component-wise availability maxima over the group (O(1)).

        ``(-1, -1, -1)`` for an empty group — the padded-slot triple,
        which admits nothing because requests are non-negative.
        """
        return self._tree[1]

    def first_fit(self, requests: ResourceVector) -> Optional["NodeView"]:
        """The first member in name order *requests* fits on.

        Left-first descent with backtracking: an inner node's maxima
        are only a necessary condition (each dimension's maximum may
        come from a different child), so a subtree that admits the
        request may still hold no fit — but one that rejects it never
        does, and a *leaf* that admits is exact.  Near-logarithmic per
        placement in practice instead of walking past every
        already-full node.
        """
        return self._first(1, requests)

    def _first(
        self, node: int, requests: ResourceVector
    ) -> Optional["NodeView"]:
        self.stats.feasibility_checks += 1
        if not self._admits(self._tree[node], requests):
            return None
        if node >= self._leaf_base:
            return self.views[node - self._leaf_base]
        found = self._first(2 * node, requests)
        if found is not None:
            return found
        return self._first(2 * node + 1, requests)

    def scan_feasible(self, requests: ResourceVector) -> List["NodeView"]:
        """All members *requests* fits on, in name order.

        Subtrees whose maxima reject the request are skipped whole, so
        a saturated group costs O(1) and a partly saturated one is
        output-sensitive rather than O(members).
        """
        found: List["NodeView"] = []
        self._collect(1, requests, found)
        return found

    def _collect(
        self, node: int, requests: ResourceVector, found: List["NodeView"]
    ) -> None:
        self.stats.feasibility_checks += 1
        if not self._admits(self._tree[node], requests):
            return
        if node >= self._leaf_base:
            found.append(self.views[node - self._leaf_base])
            return
        self._collect(2 * node, requests, found)
        self._collect(2 * node + 1, requests, found)

    # -- dominant-utilisation order --------------------------------------

    def _ensure_loads(self) -> None:
        if self._by_load is None:
            self._load_of = {
                view.name: view.load for view in self.views
            }
            self._by_load = sorted(
                (load, name) for name, load in self._load_of.items()
            )

    def iter_by_load(self) -> Iterator[Tuple[float, "NodeView"]]:
        """Members ascending by ``(load, name)``.

        The load value yielded equals ``view.load`` bit-for-bit (it is
        cached from the identical computation), so it lower-bounds any
        ``view.load_after(requests)`` for non-negative requests.
        """
        self._ensure_loads()
        assert self._by_load is not None
        for load, name in self._by_load:
            yield load, self.views[self._slot[name]]

    # -- incremental maintenance -----------------------------------------

    def note_reserved(self, view: "NodeView") -> None:
        """Refresh this member's index entries after a reservation.

        The refresh recomputes the leaf from the view, so it is
        direction-agnostic: an eviction (availability *increased*)
        updates the same O(log members) leaf path and the same load
        slot — :meth:`note_released` below is the readable alias the
        preemption step calls.
        """
        node = self._leaf_base + self._slot[view.name]
        tree = self._tree
        tree[node] = self._avail_of(view)
        node >>= 1
        while node:
            tree[node] = self._merge(tree[2 * node], tree[2 * node + 1])
            node >>= 1
        if self._by_load is None:
            return
        assert self._load_of is not None
        old = self._load_of[view.name]
        new = view.used.dominant_finite_utilization(view.capacity)
        if new == old:
            return
        position = bisect_left(self._by_load, (old, view.name))
        del self._by_load[position]
        insort(self._by_load, (new, view.name))
        self._load_of[view.name] = new

    def note_released(self, view: "NodeView") -> None:
        """Refresh this member's entries after an in-pass eviction."""
        self.note_reserved(view)


class NodeCandidateIndex:
    """Per-pass candidate indexes over one batch's node views.

    Build once per scheduling pass (membership statics come from
    *statics_cache* when the node set is unchanged), consult per pod,
    and call :meth:`note_reserved` after every in-batch placement so
    the dynamic structures track the views' mutation.
    """

    __slots__ = (
        "views", "stats", "_statics", "non_sgx", "sgx", "_loads",
    )

    def __init__(
        self,
        views: Sequence["NodeView"],
        statics_cache: Optional[dict] = None,
        stats: Optional[SelectionStats] = None,
    ):
        self.views = list(views)
        self.stats = stats if stats is not None else SelectionStats()
        signature = tuple(
            (view.name, view.sgx_capable, view.capacity)
            for view in self.views
        )
        statics = (
            statics_cache.get(signature)
            if statics_cache is not None
            else None
        )
        if statics is None:
            statics = _build_statics(self.views)
            if statics_cache is not None:
                if len(statics_cache) >= _STATICS_CACHE_LIMIT:
                    statics_cache.clear()
                statics_cache[signature] = statics
        else:
            self.stats.statics_reused = True
        self._statics = statics
        self.non_sgx = _GroupIndex(
            [self.views[i] for i in statics.non_sgx_order], self.stats
        )
        self.sgx = _GroupIndex(
            [self.views[i] for i in statics.sgx_order], self.stats
        )
        #: Per-view load cache aligned with :attr:`views` (spread's
        #: working list); built on first use.
        self._loads: Optional[List[float]] = None

    # -- membership-level queries ----------------------------------------

    def can_ever_fit(self, pod: Pod) -> bool:
        """Oracle-equivalent ``can_ever_fit`` in O(capacity classes)."""
        statics = self._statics
        capacities = (
            statics.sgx_capacities
            if pod.requires_sgx
            else statics.all_capacities
        )
        requests = pod.spec.resources.requests
        return any(
            requests.fits_within(capacity) for capacity in capacities
        )

    def position_of(self, view: "NodeView") -> int:
        """This view's index in the pass's input order."""
        return self._statics.position[view.name]

    def availability_maxima(self, pod: Pod) -> Tuple[int, int, int]:
        """Per-dimension free maxima over *pod*'s eligible nodes, O(1).

        Straight off the group roots: the SGX group's for enclave
        pods, the component-wise merge of both groups' for standard
        pods.  Equals what a linear scan of the eligible views'
        ``available`` vectors would report (-1 per dimension when no
        node is eligible), which is how the full-scan pass's deferral
        classifier computes the same answer.
        """
        if pod.requires_sgx:
            return self.sgx.root
        return _GroupIndex._merge(self.non_sgx.root, self.sgx.root)

    def group_sequence(self, pod: Pod, preserve: bool):
        """The groups to try, in the paper's preference order.

        SGX pods only ever see the SGX group; standard pods see the
        non-SGX group first and fall through to SGX nodes only when the
        preservation rule allows nothing else.  ``None`` means the two
        groups form one undifferentiated pool (the ablation with node
        preservation off).
        """
        if pod.requires_sgx:
            return (self.sgx,)
        if preserve:
            return (self.non_sgx, self.sgx)
        return None

    # -- candidate retrieval ---------------------------------------------

    def candidates(
        self, pod: Pod, preserve: bool, in_input_order: bool = False
    ) -> List["NodeView"]:
        """The pod's feasible candidates, oracle-identical membership.

        Equals ``prefer_non_sgx(feasible_nodes(pod, views))`` when
        *preserve* is true and plain ``feasible_nodes`` membership
        otherwise.  Order is name order per group unless
        *in_input_order* asks for the oracle's literal input order
        (only needed by order-sensitive custom strategies).
        """
        requests = pod.spec.resources.requests
        sequence = self.group_sequence(pod, preserve)
        if sequence is None:
            sequence = (self.non_sgx, self.sgx)
            found: List["NodeView"] = []
            for group in sequence:
                found.extend(self._scan_group(group, requests))
        else:
            found = []
            for group in sequence:
                found = self._scan_group(group, requests)
                if found:
                    break
        if in_input_order and len(found) > 1:
            found.sort(key=self.position_of)
        return found

    def _scan_group(self, group, requests) -> List["NodeView"]:
        if group.cannot_fit(requests):
            self.stats.bound_skips += 1
            return []
        return group.scan_feasible(requests)

    def first_fit(self, pod: Pod, preserve: bool) -> Optional["NodeView"]:
        """Binpack's selection: first fit over the consistent order.

        Oracle-equivalent because candidate keys are unique per name:
        sorting the feasible set by ``(sgx_capable, name)`` and taking
        the head equals descending each group's availability tree in
        preference order — and, for the merged ablation pool, taking
        the name-wise earlier of the two group winners.
        """
        requests = pod.spec.resources.requests
        sequence = self.group_sequence(pod, preserve)
        if sequence is None:
            best: Optional["NodeView"] = None
            for group in (self.non_sgx, self.sgx):
                if group.cannot_fit(requests):
                    self.stats.bound_skips += 1
                    continue
                view = group.first_fit(requests)
                if view is not None and (
                    best is None or view.name < best.name
                ):
                    best = view
            return best
        for group in sequence:
            if group.cannot_fit(requests):
                self.stats.bound_skips += 1
                continue
            view = group.first_fit(requests)
            if view is not None:
                return view
        return None

    # -- load cache (spread's working list) ------------------------------

    def working_loads(self) -> List[float]:
        """Current loads aligned with :attr:`views`, as a shared list.

        Each entry equals the corresponding ``view.load`` bit-for-bit.
        Callers may substitute single entries while scoring candidates
        but must restore them before returning; the list is reused
        across pods and kept fresh by :meth:`note_reserved`.
        """
        if self._loads is None:
            self._loads = [view.load for view in self.views]
        return self._loads

    # -- incremental maintenance -----------------------------------------

    def note_reserved(self, view: "NodeView") -> None:
        """Track an in-batch placement on *view*."""
        group = self.sgx if view.sgx_capable else self.non_sgx
        group.note_reserved(view)
        if self._loads is not None:
            self._loads[self.position_of(view)] = (
                view.used.dominant_finite_utilization(view.capacity)
            )

    def note_released(self, view: "NodeView") -> None:
        """Track an in-pass eviction on *view*: O(log n) un-placement.

        The preemption step calls this after
        :meth:`~repro.scheduler.base.NodeView.release` so the
        availability trees, load order and load cache stay exact while
        victims leave mid-pass — the same incremental discipline
        placements follow, in the opposite direction.
        """
        self.note_reserved(view)
