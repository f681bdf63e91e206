"""The literal full-scan scheduling pass: the reference the pass matches.

Per pod, in queue order: the unschedulable test (``can_ever_fit``), the
feasibility filter over every view, the node-preservation rule
(:func:`prefer_non_sgx`), the strategy's pick, and, for a pod left
without a node, a scan of its eligible views for the free maxima that
name the binding dimension.  Nothing carries over from one pod to the
next except the views' in-pass reservations.

``Scheduler.schedule`` splits the views by SGX capability once per
pass and filters only a pod's eligible ones, keeps free maxima across
deferrals and each pod's ``can_ever_fit`` answer across passes over
one cluster shape; it must reproduce this pass's outcome, view
mutations and ledger records exactly (``test_scheduler_pass.py``).
"""

from repro.errors import SchedulingError
from repro.scheduler.base import (
    Assignment,
    SchedulingOutcome,
    classify_wait,
)
from repro.scheduler.filtering import can_ever_fit, feasible_candidates


def prefer_non_sgx(pod, candidates):
    """Apply the paper's node-preservation rule to *candidates*.

    Both strategies "only resort to SGX-enabled nodes for non-SGX jobs
    when no other choice is possible" (Section IV).  For standard pods,
    return only the non-SGX candidates when any exist; SGX pods see all
    candidates unchanged (the filter already removed non-SGX nodes).
    """
    if pod.requires_sgx:
        return list(candidates)
    standard = [view for view in candidates if not view.sgx_capable]
    return standard if standard else list(candidates)


class RecordingLedger:
    """A decision-ledger stand-in that keeps every record in memory."""

    enabled = True

    def __init__(self):
        self.records = []

    def emit(self, now, kind, **payload):
        self.records.append((now, kind, payload))


def wait_reason(pod, views):
    """Classify a deferral from a fresh scan of the eligible views."""
    cpu_max = memory_max = epc_max = -1
    for view in views:
        if pod.requires_sgx and not view.sgx_capable:
            continue
        available = view.available
        cpu_max = max(cpu_max, available.cpu_millicores)
        memory_max = max(memory_max, available.memory_bytes)
        epc_max = max(epc_max, available.epc_pages)
    return classify_wait(
        pod.spec.resources.requests, cpu_max, memory_max, epc_max
    )


def reference_schedule(scheduler, pending, views, now):
    """One pass of *scheduler*'s strategy, every pod scanned afresh."""
    ledger = scheduler.ledger
    outcome = SchedulingOutcome()
    views = list(views)
    if not scheduler.use_measured:
        for view in views:
            view.used = view.committed

    def defer(pod, reason):
        outcome.deferred.append(pod)
        outcome.deferred_reasons.append(reason)
        outcome.wait_reasons[reason] = outcome.wait_reasons.get(reason, 0) + 1
        if ledger.enabled:
            ledger.emit(now, "deferral", pod=pod.name, reason=reason)

    for pod in pending:
        if not can_ever_fit(pod, views):
            outcome.unschedulable.append(pod)
            continue
        candidates = prefer_non_sgx(pod, feasible_candidates(pod, views))
        chosen = (
            scheduler._select(pod, candidates, views) if candidates else None
        )
        if chosen is None:
            defer(pod, wait_reason(pod, views))
            continue
        requests = pod.spec.resources.requests
        if not requests.fits_within(chosen.available):
            raise SchedulingError(
                f"{scheduler.name} selected saturated node {chosen.name}"
            )
        chosen.reserve(requests)
        outcome.assignments.append(Assignment(pod=pod, node_name=chosen.name))
        if ledger.enabled:
            ledger.emit(
                now, "placement",
                pod=pod.name, node=chosen.name,
                runner_ups=len(candidates) - 1,
            )
    return outcome
