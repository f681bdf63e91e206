"""DaemonSet controller: one payload per (matching) node.

The paper deploys its SGX metrics probe as a DaemonSet restricted to
SGX-enabled nodes, distinguishing them "by checking for the EPC size
advertised to Kubernetes by the device plugin" (Section V-C).  This
controller reproduces that reconciliation loop: given a node selector and
a payload factory, it keeps exactly one payload per matching node,
creating payloads for new nodes and reaping them for departed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, TypeVar

from .kubelet import Kubelet

Payload = TypeVar("Payload")

#: Selects nodes by their Kubelet (which knows the advertised resources).
NodeSelector = Callable[[Kubelet], bool]
PayloadFactory = Callable[[Kubelet], Payload]


def sgx_node_selector(kubelet: Kubelet) -> bool:
    """The paper's selector: nodes advertising a non-zero EPC size."""
    return kubelet.advertised_epc_pages() > 0


def all_nodes_selector(kubelet: Kubelet) -> bool:
    """Match every node (Heapster-style collection)."""
    return True


@dataclass
class DaemonSet:
    """Desired state: one payload per node matching *selector*."""

    name: str
    selector: NodeSelector
    factory: PayloadFactory
    payloads: Dict[str, object] = field(default_factory=dict)


class DaemonSetController:
    """Reconciles DaemonSets against the current Kubelet population."""

    def __init__(self):
        self._daemonsets: Dict[str, DaemonSet] = {}

    def create(
        self, name: str, selector: NodeSelector, factory: PayloadFactory
    ) -> DaemonSet:
        """Register a DaemonSet; payloads appear on the next reconcile."""
        if name in self._daemonsets:
            raise ValueError(f"daemonset {name!r} already exists")
        daemonset = DaemonSet(name=name, selector=selector, factory=factory)
        self._daemonsets[name] = daemonset
        return daemonset

    def get(self, name: str) -> DaemonSet:
        """Look a DaemonSet up by name."""
        return self._daemonsets[name]

    def reconcile(self, kubelets: Iterable[Kubelet]) -> int:
        """Converge payloads to the node population; returns changes made."""
        kubelet_list = list(kubelets)
        changes = 0
        for daemonset in self._daemonsets.values():
            wanted = {
                k.node.name: k for k in kubelet_list if daemonset.selector(k)
            }
            # Create payloads for newly matching nodes.
            for node_name, kubelet in wanted.items():
                if node_name not in daemonset.payloads:
                    daemonset.payloads[node_name] = daemonset.factory(kubelet)
                    changes += 1
            # Reap payloads whose node vanished or stopped matching.
            for node_name in list(daemonset.payloads):
                if node_name not in wanted:
                    del daemonset.payloads[node_name]
                    changes += 1
        return changes

    def payloads(self, name: str) -> List[object]:
        """All live payloads of DaemonSet *name*."""
        return list(self._daemonsets[name].payloads.values())
