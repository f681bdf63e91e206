"""Preemption planners: pick the cheapest feasible eviction set.

The paper's Section V-E metric exists "to identify processes that
should be preempted ... in scenarios of high contention"; the
orchestrator reproduced here was nonetheless strictly non-preemptive.
This module supplies the missing policy layer as a registry of
*planners*: given a high-priority pod the scheduling pass failed to
place, a planner examines the evictable pods on each eligible node and
returns an :class:`EvictionPlan` — which node to clear and which
victims to evict so the pod fits *in the same pass* — or ``None`` when
no eviction set helps.

Planners only plan.  Execution (killing victims through the kubelet
kill path, resubmitting their specs with the original ``submitted_at``
so FCFS holds within each tier, recording trigger events) lives in
:meth:`repro.orchestrator.controller.Orchestrator.scheduling_pass`.

Three planners ship:

* ``none`` — the default: never preempt, preserving the paper's
  Sec. IV behaviour bit for bit;
* ``lowest-priority-first`` — the Kubernetes-style baseline: evict the
  lowest tier first (youngest first within a tier), preferring the
  node whose most senior victim is cheapest to outrank;
* ``cheapest-victims`` — the EPC-aware planner: victims are priced by
  the same driver-measured occupancy the rebalancer's cost model uses
  (:meth:`repro.scheduler.rebalancer.EpcRebalancer._victims` sorts
  candidates by measured pages — cheapest transfer first) plus the
  useful work an eviction throws away, so a freshly started small
  enclave is preferred over a large one about to bank hours of
  runtime.

Determinism: every ordering ends in the victim's ``uid`` and every
node score ends in the node name, so plans are identical whether the
pass was reused or recomputed — the property the equivalence suite
pins.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..cluster.resources import ResourceVector
from ..obs.ledger import NULL_LEDGER
from ..registry import register_preemption_policy
from ..units import pages as bytes_to_pages

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..orchestrator.pod import Pod
    from ..scheduler.base import NodeView


@dataclass(frozen=True)
class EvictionCandidate:
    """One evictable pod, priced for the planners.

    ``freed`` is what evicting the pod returns to its node's *view*:
    declared requests for CPU and standard memory, and the
    driver-measured enclave occupancy for EPC (an SGX2-grown enclave
    frees its measured pages, not its declared ones — the same
    correction the rebalancer applies to migrations).  The next pass
    rebuilds views from ground truth, so this estimate only has to be
    good enough for in-pass feasibility.
    """

    pod: "Pod"
    node_name: str
    freed: ResourceVector
    #: Driver-measured enclave pages (0 for standard pods).
    measured_epc_pages: int
    #: Useful runtime an eviction discards (0 for not-yet-started pods).
    lost_work_seconds: float


@dataclass(frozen=True)
class EvictionPlan:
    """One node to clear, and the victims that make the pod fit there."""

    node_name: str
    victims: Tuple[EvictionCandidate, ...]
    cost: float


def available_after(
    view: "NodeView", freed: ResourceVector
) -> ResourceVector:
    """The node's availability once *freed* returns to it."""
    return (view.capacity - (view.used - freed).clamp_floor()).clamp_floor()


class PreemptionPolicy(abc.ABC):
    """Shared planning skeleton; concrete planners order and score.

    :meth:`plan` walks the eligible nodes in name order, builds a
    minimal feasible victim set per node with :meth:`_feasible_set`
    (greedy over :meth:`_ordered` with a backward prune) and returns
    the plan :meth:`_score` likes best.  An empty victim set is a
    valid plan — after earlier preemptions in the same pass, a node
    may already fit the pod, and a zero-cost plan wins automatically.
    """

    name = "abstract"
    #: ``True`` lets the orchestrator skip candidate collection
    #: entirely — the cheap way to keep the non-preemptive default free
    #: of per-pass overhead.
    never_preempts = False
    #: The run's decision ledger; the orchestrator rebinds this on
    #: observed runs so every planner verdict (chosen node, victim
    #: count, cost — or "no eviction set helps") is recorded.
    ledger = NULL_LEDGER

    def plan(
        self,
        preemptor: "Pod",
        views_by_name: Dict[str, "NodeView"],
        candidates_by_node: Dict[str, List[EvictionCandidate]],
        now: float,
    ) -> Optional[EvictionPlan]:
        """The best feasible plan for *preemptor*, or ``None``."""
        best: Optional[EvictionPlan] = None
        best_score: Optional[Tuple] = None
        for node_name in sorted(candidates_by_node):
            view = views_by_name[node_name]
            victims = self._feasible_set(
                preemptor, view, self._ordered(candidates_by_node[node_name])
            )
            if victims is None:
                continue
            plan = EvictionPlan(
                node_name=node_name,
                victims=tuple(victims),
                cost=sum(self._cost(v) for v in victims),
            )
            score = self._score(plan)
            if best_score is None or score < best_score:
                best, best_score = plan, score
        ledger = self.ledger
        if ledger.enabled:
            if best is None:
                ledger.emit(
                    now, "preemption_plan",
                    pod=preemptor.name, node=None, victims=0, cost=-1.0,
                )
            else:
                ledger.emit(
                    now, "preemption_plan",
                    pod=preemptor.name, node=best.node_name,
                    victims=len(best.victims), cost=best.cost,
                )
        return best

    def _feasible_set(
        self,
        preemptor: "Pod",
        view: "NodeView",
        ordered: Sequence[EvictionCandidate],
    ) -> Optional[List[EvictionCandidate]]:
        """The cheapest prefix of *ordered* that makes the pod fit.

        Greedy accumulation in the policy's preference order, then one
        backward prune dropping members whose contribution turned out
        redundant.  Returns ``None`` when even evicting everything
        leaves no room.
        """
        requests = preemptor.spec.resources.requests
        chosen: List[EvictionCandidate] = []
        freed = ResourceVector.zero()
        if requests.fits_within(available_after(view, freed)):
            return []
        for candidate in ordered:
            chosen.append(candidate)
            freed = freed + candidate.freed
            if requests.fits_within(available_after(view, freed)):
                break
        else:
            return None
        for candidate in reversed(list(chosen)):
            reduced = freed - candidate.freed
            if requests.fits_within(available_after(view, reduced)):
                chosen.remove(candidate)
                freed = reduced
        return chosen

    @abc.abstractmethod
    def _ordered(
        self, candidates: Sequence[EvictionCandidate]
    ) -> List[EvictionCandidate]:
        """Candidates in this policy's eviction-preference order."""

    @abc.abstractmethod
    def _cost(self, candidate: EvictionCandidate) -> float:
        """The price this policy puts on evicting *candidate*."""

    @abc.abstractmethod
    def _score(self, plan: EvictionPlan) -> Tuple:
        """Comparable node score; the smallest wins (end in the name)."""


@register_preemption_policy("none")
class NoPreemption(PreemptionPolicy):
    """The paper's orchestrator: never evict anything."""

    name = "none"
    never_preempts = True

    def plan(
        self,
        preemptor: "Pod",
        views_by_name: Dict[str, "NodeView"],
        candidates_by_node: Dict[str, List[EvictionCandidate]],
        now: float,
    ) -> Optional[EvictionPlan]:
        return None

    def _ordered(
        self, candidates: Sequence[EvictionCandidate]
    ) -> List[EvictionCandidate]:  # pragma: no cover - plan() short-circuits
        return []

    def _cost(
        self, candidate: EvictionCandidate
    ) -> float:  # pragma: no cover - plan() short-circuits
        return 0.0

    def _score(
        self, plan: EvictionPlan
    ) -> Tuple:  # pragma: no cover - plan() short-circuits
        return ()


@register_preemption_policy("lowest-priority-first")
class LowestPriorityFirst(PreemptionPolicy):
    """Evict the lowest tier first, youngest first within a tier.

    The Kubernetes-flavoured baseline: victim cost is the victim's
    priority (plus a recency epsilon so younger pods go first), and a
    node is preferred when its most senior victim is the most junior
    across nodes — disturb the least important tenants possible.
    """

    name = "lowest-priority-first"

    def _ordered(
        self, candidates: Sequence[EvictionCandidate]
    ) -> List[EvictionCandidate]:
        return sorted(
            candidates,
            key=lambda c: (
                c.pod.spec.priority,
                -c.pod.submitted_at,
                c.pod.uid,
            ),
        )

    def _cost(self, candidate: EvictionCandidate) -> float:
        return float(candidate.pod.spec.priority)

    def _score(self, plan: EvictionPlan) -> Tuple:
        top = max(
            (v.pod.spec.priority for v in plan.victims), default=-1
        )
        return (top, len(plan.victims), plan.node_name)


@register_preemption_policy("cheapest-victims")
class CheapestVictims(PreemptionPolicy):
    """EPC-aware pricing: measured pages plus discarded runtime.

    Reuses the rebalancer's cost model — driver-measured enclave pages
    are the transfer/rebuild cost of displacing an enclave, so smaller
    measured enclaves are cheaper — and adds the work an eviction
    throws away: a victim that has already run for an hour costs its
    whole hour again after resubmission.  Standard memory is priced at
    a steep discount to EPC (plentiful vs a 128 MiB PRM).
    """

    name = "cheapest-victims"

    #: EPC pages one discarded second of runtime is worth.
    LOST_WORK_PAGES_PER_SECOND = 1.0
    #: Standard-memory pages per EPC page, cost-wise.
    MEMORY_DISCOUNT = 256.0

    def _cost(self, candidate: EvictionCandidate) -> float:
        memory_pages = bytes_to_pages(candidate.freed.memory_bytes)
        return (
            candidate.measured_epc_pages
            + memory_pages / self.MEMORY_DISCOUNT
            + candidate.lost_work_seconds * self.LOST_WORK_PAGES_PER_SECOND
        )

    def _ordered(
        self, candidates: Sequence[EvictionCandidate]
    ) -> List[EvictionCandidate]:
        return sorted(
            candidates, key=lambda c: (self._cost(c), c.pod.uid)
        )

    def _score(self, plan: EvictionPlan) -> Tuple:
        return (plan.cost, len(plan.victims), plan.node_name)
