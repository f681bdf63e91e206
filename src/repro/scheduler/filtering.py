"""Feasibility filtering: the scheduler's first phase.

Section IV: "The scheduler then combines the two kinds of data to filter
out job-node combinations that cannot be satisfied, either due to
hardware compatibility (i.e., SGX-enabled job on a non-SGX node), or if
the job requests would saturate a node."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from ..orchestrator.pod import Pod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .base import NodeView


def feasible_candidates(
    pod: Pod, views: Sequence["NodeView"]
) -> List["NodeView"]:
    """The views that can host *pod* now, in input order.

    A view is filtered out when the pod needs SGX and the node has
    none (hardware incompatibility), or when any request exceeds the
    node's capacity minus its used resources (the request would
    saturate the node).  Why a pod that fits nowhere waits is
    :func:`~repro.scheduler.base.classify_wait`'s answer, which the
    ledger's ``deferral`` record carries.
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
