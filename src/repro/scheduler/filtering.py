"""Feasibility filtering: the scheduler's first phase.

Section IV: "The scheduler then combines the two kinds of data to filter
out job-node combinations that cannot be satisfied, either due to
hardware compatibility (i.e., SGX-enabled job on a non-SGX node), or if
the job requests would saturate a node."
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..orchestrator.pod import Pod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .base import NodeView


class FilterReason(enum.Enum):
    """Why a node was rejected for a pod."""

    HARDWARE_INCOMPATIBLE = "sgx job on a non-sgx node"
    WOULD_SATURATE = "requests exceed available resources"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def feasible_nodes(
    pod: Pod, views: Sequence["NodeView"]
) -> Tuple[List["NodeView"], Dict[str, FilterReason]]:
    """Split *views* into feasible candidates and rejections for *pod*.

    Returns the candidates (in input order) and a map of node name to
    rejection reason for the rest.  Callers that only need the
    candidates should use :func:`feasible_candidates`, which skips the
    per-node rejection bookkeeping.
    """
    requests = pod.spec.resources.requests
    candidates: List["NodeView"] = []
    rejections: Dict[str, FilterReason] = {}
    for view in views:
        if pod.requires_sgx and not view.sgx_capable:
            rejections[view.name] = FilterReason.HARDWARE_INCOMPATIBLE
            continue
        if not requests.fits_within(view.available):
            rejections[view.name] = FilterReason.WOULD_SATURATE
            continue
        candidates.append(view)
    return candidates, rejections


def feasible_candidates(
    pod: Pod, views: Sequence["NodeView"]
) -> List["NodeView"]:
    """The feasible candidates of :func:`feasible_nodes`, and only them.

    Identical membership and order, without building the rejection map
    the scheduling pass immediately discards — the diagnostic variant
    exists for API users who want to explain a deferral.
    """
    requests = pod.spec.resources.requests
    needs_sgx = pod.requires_sgx
    cpu = requests.cpu_millicores
    memory = requests.memory_bytes
    epc = requests.epc_pages
    candidates: List["NodeView"] = []
    append = candidates.append
    # Component comparisons against capacity-minus-used, inlined: this
    # runs once per node per pod per pass, and materialising the
    # ``available`` vector per probe dominated the filter phase.  A
    # zero request fits an overcommitted dimension (available floors
    # at zero), hence the ``== 0`` escapes.
    for view in views:
        if needs_sgx and not view.sgx_capable:
            continue
        capacity = view.capacity
        used = view.used
        if (
            (cpu == 0 or cpu <= capacity.cpu_millicores - used.cpu_millicores)
            and (
                memory == 0
                or memory <= capacity.memory_bytes - used.memory_bytes
            )
            and (epc == 0 or epc <= capacity.epc_pages - used.epc_pages)
        ):
            append(view)
    return candidates


def can_ever_fit(pod: Pod, views: Sequence["NodeView"]) -> bool:
    """Whether some node's *total capacity* could ever host *pod*.

    Pods failing this test are permanently unschedulable: no amount of
    waiting frees enough resources.  The orchestrator rejects them so the
    queue can drain (cf. the Fig. 7 sweep, where small EPC sizes make the
    largest enclave jobs unsatisfiable).
    """
    requests = pod.spec.resources.requests
    needs_sgx = pod.requires_sgx
    for view in views:
        if needs_sgx and not view.sgx_capable:
            continue
        if requests.fits_within(view.capacity):
            return True
    return False


def prefer_non_sgx(
    pod: Pod, candidates: Sequence["NodeView"]
) -> List["NodeView"]:
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
