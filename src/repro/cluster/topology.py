"""Cluster construction: node inventories and the paper's testbed.

The evaluation cluster (Section VI-A) has five machines: three Dell
PowerEdge R330 (Xeon E3-1270 v6, 64 GiB RAM) of which one is the
Kubernetes master and two are workers, plus two SGX-enabled i7-6700
machines (8 GiB RAM, 128 MiB PRM each).  :func:`paper_cluster` builds the
*worker* inventory of that testbed; the master runs no user pods and is
therefore not part of the schedulable cluster.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from ..constants import (
    EPC_TOTAL_BYTES,
    SGX_WORKER_COUNT,
    STANDARD_WORKER_COUNT,
)
from ..errors import ClusterError
from .node import Node, NodeSpec


class Cluster:
    """A named collection of nodes with aggregate-capacity helpers."""

    def __init__(self, nodes: Iterable[Node] = ()):
        self._nodes: Dict[str, Node] = {}
        for node in nodes:
            self.add_node(node)

    # -- membership ----------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Register a node; names must be unique."""
        if node.name in self._nodes:
            raise ClusterError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node

    def remove_node(self, name: str) -> Node:
        """Remove and return a node."""
        node = self._nodes.pop(name, None)
        if node is None:
            raise ClusterError(f"no such node {name!r}")
        return node

    def node(self, name: str) -> Node:
        """Look a node up by name."""
        node = self._nodes.get(name)
        if node is None:
            raise ClusterError(f"no such node {name!r}")
        return node

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    @property
    def nodes(self) -> List[Node]:
        """All nodes in registration order."""
        return list(self._nodes.values())

    @property
    def sgx_nodes(self) -> List[Node]:
        """Nodes with a functioning SGX driver."""
        return [n for n in self._nodes.values() if n.sgx_capable]

    @property
    def standard_nodes(self) -> List[Node]:
        """Nodes without SGX support."""
        return [n for n in self._nodes.values() if not n.sgx_capable]

    # -- aggregate capacity -----------------------------------------------

    def total_epc_pages(self) -> int:
        """Total usable EPC pages across SGX nodes."""
        return sum(n.capacity.epc_pages for n in self.sgx_nodes)


def paper_cluster(
    epc_total_bytes: int = EPC_TOTAL_BYTES,
    enforce_epc_limits: bool = True,
    epc_allow_overcommit: bool = False,
    standard_workers: int = STANDARD_WORKER_COUNT,
    sgx_workers: int = SGX_WORKER_COUNT,
    sgx_version: int = 1,
) -> Cluster:
    """The paper's worker inventory: 2 standard + 2 SGX machines.

    ``epc_total_bytes`` parameterises the PRM size for Fig. 7's what-if
    sweep over hypothetical SGX 2 hardware.
    """
    nodes: List[Node] = []
    for i in range(standard_workers):
        nodes.append(Node(NodeSpec.standard(f"worker-{i}")))
    for i in range(sgx_workers):
        nodes.append(
            Node(
                NodeSpec.sgx(
                    f"sgx-worker-{i}",
                    epc_total_bytes=epc_total_bytes,
                    enforce_epc_limits=enforce_epc_limits,
                    epc_allow_overcommit=epc_allow_overcommit,
                    sgx_version=sgx_version,
                )
            )
        )
    return Cluster(nodes)


def uniform_cluster(
    count: int,
    spec_factory=NodeSpec.standard,
    name_prefix: str = "node",
    **spec_kwargs,
) -> Cluster:
    """A homogeneous cluster of *count* nodes built by *spec_factory*."""
    if count <= 0:
        raise ClusterError(f"cluster needs at least one node, got {count}")
    nodes = [
        Node(spec_factory(f"{name_prefix}-{i}", **spec_kwargs))
        for i in range(count)
    ]
    return Cluster(nodes)
