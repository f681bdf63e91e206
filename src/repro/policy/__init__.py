"""Priority & preemption: the policy layer over the orchestrator.

Three pieces compose (Section V-E's "processes that should be
preempted", made schedulable):

* :mod:`repro.policy.classes` — named priority tiers
  (:data:`PRIORITY_CLASSES`); pods carry the resolved integer and the
  pending queue orders tiers by it, FCFS within each tier;
* :mod:`repro.policy.qos` — guaranteed/burstable/best-effort derived
  from requests vs limits, governing who is evictable;
* :mod:`repro.policy.preemption` — pluggable planners
  (``@register_preemption_policy``; built-ins ``none``,
  ``lowest-priority-first`` and the EPC-aware ``cheapest-victims``)
  that pick the cheapest feasible eviction set for a pod the pass
  could not place.

The default policy is ``none``: with it, every replay is bit-for-bit
identical to the pre-policy orchestrator, on reused and recomputed
passes alike.
"""

from .classes import (
    DEFAULT_PREEMPTION_THRESHOLD,
    PRIORITY_CLASSES,
    resolve_priority,
)
from .preemption import (
    CheapestVictims,
    EvictionCandidate,
    EvictionPlan,
    LowestPriorityFirst,
    NoPreemption,
    PreemptionPolicy,
    available_after,
)
from .qos import QosClass, is_evictable_by, qos_of

__all__ = [
    "DEFAULT_PREEMPTION_THRESHOLD",
    "PRIORITY_CLASSES",
    "CheapestVictims",
    "EvictionCandidate",
    "EvictionPlan",
    "LowestPriorityFirst",
    "NoPreemption",
    "PreemptionPolicy",
    "QosClass",
    "available_after",
    "is_evictable_by",
    "qos_of",
    "resolve_priority",
]
