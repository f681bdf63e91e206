"""Pod lifecycle reconstruction from a recorded decision ledger.

``repro explain --pod NAME --ledger run.jsonl`` answers the question
"why did this pod wait / land where it landed / die" by replaying the
ledger's records that mention the pod: submission trigger, every
deferral with its wait reason, the placement (node and how many
runner-up candidates it beat), requeues, preemptions it caused,
evictions it suffered, a rejection, and how it finished.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SimulationError
from .diff import LedgerFile

#: Payload fields whose value names the pod a record is about.
_POD_FIELDS = ("pod", "victim", "preemptor")


def pod_events(ledger: LedgerFile, pod: str) -> List[Dict[str, object]]:
    """All ledger records that mention ``pod``, in emission order."""
    matched: List[Dict[str, object]] = []
    for event in ledger.events:
        for pod_field in _POD_FIELDS:
            if event.get(pod_field) == pod:
                matched.append(event)
                break
    return matched


def explain_pod(ledger: LedgerFile, pod: str) -> Dict[str, object]:
    """Reconstruct one pod's lifecycle as a structured report.

    Raises :class:`~repro.errors.SimulationError` when the ledger
    never mentions the pod.
    """
    events = pod_events(ledger, pod)
    if not events:
        raise SimulationError(
            f"pod {pod!r} appears in no event of ledger {ledger.path!r}"
        )
    submitted_at: Optional[float] = None
    finished: Optional[Dict[str, object]] = None
    wait_reasons: Dict[str, int] = {}
    deferral_passes = 0
    placements: List[Dict[str, object]] = []
    requeues: List[Dict[str, object]] = []
    evictions: List[Dict[str, object]] = []
    preemptions: List[Dict[str, object]] = []
    rejection: Optional[Dict[str, object]] = None
    for event in events:
        kind = event["kind"]
        if kind == "trigger":
            trigger_event = event.get("event")
            if trigger_event == "pod-submitted" and submitted_at is None:
                submitted_at = event["t"]
            elif trigger_event in ("pod-completed", "pod-killed"):
                finished = {
                    "t": event["t"],
                    "outcome": trigger_event,
                }
        elif kind == "deferral":
            deferral_passes += 1
            reason = event.get("reason") or "unknown"
            wait_reasons[reason] = wait_reasons.get(reason, 0) + 1
        elif kind == "placement":
            placements.append({
                "t": event["t"],
                "node": event.get("node"),
                "runner_ups": event.get("runner_ups"),
            })
        elif kind == "requeue":
            requeues.append({"t": event["t"]})
        elif kind == "eviction" and event.get("victim") == pod:
            evictions.append({
                "t": event["t"],
                "node": event.get("node"),
                "preemptor": event.get("preemptor"),
                "lost_work_s": event.get("lost_work_s"),
            })
        elif kind == "preemption" and event.get("pod") == pod:
            preemptions.append({
                "t": event["t"],
                "node": event.get("node"),
                "victims": event.get("victims"),
                "cost": event.get("cost"),
            })
        elif kind == "rejection":
            rejection = {"t": event["t"]}
    return {
        "pod": pod,
        "ledger": ledger.path,
        "events": len(events),
        "submitted_at": submitted_at,
        "deferral_passes": deferral_passes,
        "wait_reasons": dict(sorted(wait_reasons.items())),
        "placements": placements,
        "requeues": requeues,
        "preemptions": preemptions,
        "evictions": evictions,
        "rejection": rejection,
        "finished": finished,
        "timeline": events,
    }


def format_explain(report: Dict[str, object]) -> str:
    """Render the lifecycle report as a readable narrative."""
    pod = report["pod"]
    lines = [f"pod {pod} — {report['events']} ledger events"]
    if report["submitted_at"] is not None:
        lines.append(f"  t={report['submitted_at']:g}: submitted")
    if report["deferral_passes"]:
        reasons = ", ".join(
            f"{reason} x{count}"
            for reason, count in report["wait_reasons"].items()
        )
        lines.append(
            f"  deferred in {report['deferral_passes']} pass(es): {reasons}"
        )
    for placement in report["placements"]:
        lines.append(
            f"  t={placement['t']:g}: placed on {placement['node']} "
            f"against {placement['runner_ups']} runner-up candidate(s)"
        )
    for requeue in report["requeues"]:
        lines.append(f"  t={requeue['t']:g}: launch failed, requeued")
    for preemption in report["preemptions"]:
        lines.append(
            f"  t={preemption['t']:g}: preempted {preemption['victims']} "
            f"victim(s) on {preemption['node']} "
            f"(cost {preemption['cost']:g})"
        )
    for eviction in report["evictions"]:
        lines.append(
            f"  t={eviction['t']:g}: evicted from {eviction['node']} "
            f"by {eviction['preemptor']} "
            f"(lost {eviction['lost_work_s']:g}s of work)"
        )
    if report["rejection"] is not None:
        lines.append(
            f"  t={report['rejection']['t']:g}: rejected as unschedulable"
        )
    if report["finished"] is not None:
        lines.append(
            f"  t={report['finished']['t']:g}: {report['finished']['outcome']}"
        )
    else:
        lines.append("  (no completion event recorded)")
    return "\n".join(lines)
