"""Two-tier tenant mix: the priority subsystem's canonical workload.

The multi-tenant contention scenario the policy layer exists for: the
same scaled Borg trace the paper replays, split into a small
*latency-critical* tenant and a bulk *best-effort* tenant.  Without a
preemption policy the high tier queues behind whatever the batch tier
already committed to the nodes; with one (e.g. ``cheapest-victims``)
its pods evict the cheapest burstable victims and start immediately.

Tier mechanics:

* the **high tier** (a seeded, exact-count subset of the jobs) gets
  ``high_priority`` and, by default, explicit ``limits == requests`` —
  guaranteed QoS, so high-tier pods are never eviction victims
  themselves;
* the **low tier** keeps ``low_priority`` and the trace pods' usual
  requests-only shape — burstable QoS, evictable by any higher tier.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np

from ..errors import TraceError
from ..orchestrator.api import DEFAULT_SCHEDULER, ResourceRequirements
from ..registry import register_workload
from ..trace.schema import Trace
from .stress import SubmissionPlan, materialize_trace

#: Decorrelates the tier draw from ``materialize_trace``'s SGX draw,
#: which consumes the same seed.
_TIER_SEED_STREAM = 0x7071


@register_workload("priority-mix")
def priority_mix_plans(
    cluster,
    trace: Trace,
    *,
    sgx_fraction: float = 0.0,
    seed: int = 0,
    scheduler_name: str = DEFAULT_SCHEDULER,
    high_fraction: float = 0.2,
    high_priority: int = 100,
    low_priority: int = 0,
    high_guaranteed: bool = True,
    **options,
) -> List[SubmissionPlan]:
    """Registry entry: the trace as a latency-critical/batch tenant mix.

    ``high_fraction`` of the jobs (seeded, exact count, independent of
    the SGX designation) join the high tier.  ``high_priority`` /
    ``low_priority`` accept class names at the scenario level (the
    engine resolves them before the factory runs).  Extra ``options``
    flow to :func:`repro.workload.stress.materialize_trace`.
    """
    if not 0.0 <= high_fraction <= 1.0:
        raise TraceError(
            f"high_fraction outside [0, 1]: {high_fraction}"
        )
    if high_priority <= low_priority:
        raise TraceError(
            f"high_priority ({high_priority}) must exceed "
            f"low_priority ({low_priority})"
        )
    plans = materialize_trace(
        trace,
        sgx_fraction=sgx_fraction,
        seed=seed,
        scheduler_name=scheduler_name,
        priority=low_priority,
        **options,
    )
    n_high = int(round(high_fraction * len(plans)))
    rng = np.random.default_rng((seed, _TIER_SEED_STREAM))
    high_indices = set(
        rng.choice(len(plans), size=n_high, replace=False).tolist()
        if n_high
        else []
    )
    mixed: List[SubmissionPlan] = []
    for index, plan in enumerate(plans):
        tier_high = index in high_indices
        spec = plan.spec
        labels = dict(spec.labels)
        labels["tier"] = "high" if tier_high else "low"
        if tier_high:
            resources = spec.resources
            if high_guaranteed:
                # Pin limits to requests: guaranteed QoS, so the high
                # tier can preempt but never be preempted.
                resources = ResourceRequirements(
                    requests=resources.requests,
                    limits=resources.requests,
                )
            spec = replace(
                spec,
                priority=high_priority,
                labels=labels,
                resources=resources,
            )
        else:
            spec = replace(spec, priority=low_priority, labels=labels)
        mixed.append(replace(plan, spec=spec))
    return mixed
