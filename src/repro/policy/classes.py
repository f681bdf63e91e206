"""Priority classes: named scheduling tiers, Kubernetes-flavoured.

Section V-E motivates the per-process EPC metric with processes "that
should be preempted" under contention; the policy layer that decision
implies needs a notion of *who outranks whom*.  A priority class binds
a name to an integer value, like the Kubernetes object of the same
name: pods carry the integer (``PodSpec.priority``), workload options
may name a tier instead, and the pending queue orders tiers by value
(higher wins) while staying FCFS *within* a tier.

The built-in tiers mirror a common multi-tenant setup:

* ``best-effort`` (0) — the default for every pod; the paper's
  evaluation runs entirely in this tier, which is why priority-disabled
  replays are bit-for-bit identical to the pre-policy orchestrator;
* ``batch`` (10) — bulk work that should outrank scavengers but yield
  to interactive tenants;
* ``latency-critical`` (100) — the tier whose pods may trigger
  preemption (it clears the default eviction threshold).

Any other priority is given as an int.
"""

from __future__ import annotations

from typing import Dict, Union

from ..errors import PolicyError

#: Pods at or above this priority may trigger preemption when a real
#: planner is configured (see ``preemption_priority_threshold``).
DEFAULT_PREEMPTION_THRESHOLD = 100

#: The built-in tiers: name -> priority value.
PRIORITY_CLASSES: Dict[str, int] = {
    "best-effort": 0,
    "batch": 10,
    "latency-critical": DEFAULT_PREEMPTION_THRESHOLD,
}


def resolve_priority(value: Union[int, str]) -> int:
    """The integer priority *value* denotes (int passthrough or the
    name of a built-in tier).

    Unknown names die with the sorted known names, mirroring the
    registry's fail-fast lookups.
    """
    if isinstance(value, bool):
        raise PolicyError(f"priority must be an int or name: {value!r}")
    if isinstance(value, int):
        return value
    if value not in PRIORITY_CLASSES:
        known = ", ".join(sorted(PRIORITY_CLASSES))
        raise PolicyError(
            f"unknown priority class {value!r}; known: {known}"
        )
    return PRIORITY_CLASSES[value]
