"""SGX device plugin: advertising EPC pages as schedulable resources.

Kubernetes device plugins register one resource item per physical device;
that would allow a single SGX pod per node.  The paper's key trick
(Section V-A) is to expose **each 4 KiB EPC page as a separate resource
item**, so multiple enclave pods can share a node while the scheduler
still cannot over-commit the EPC — the pool of page-items is finite.

The plugin checks for the SGX kernel module on its node, then registers
with the local Kubelet over the gRPC-like channel, reporting the page
count under :data:`~repro.orchestrator.api.SGX_EPC_RESOURCE`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cluster.node import Node
from ..errors import RpcError
from .api import SGX_EPC_RESOURCE
from .rpc import RpcChannel


@dataclass(frozen=True)
class DeviceAdvertisement:
    """What a plugin reports to Kubelet: a resource name and item count."""

    resource_name: str
    item_count: int
    device_path: str


class SgxDevicePlugin:
    """Per-node plugin translating driver presence into resource items."""

    def __init__(self, node: Node):
        self.node = node

    def detect(self) -> Optional[DeviceAdvertisement]:
        """Probe the node for a usable SGX module.

        Returns the advertisement to register, or ``None`` on nodes
        without the kernel module (the plugin then reports nothing and
        the node stays SGX-free in the control plane's eyes).
        """
        if not self.node.sgx_capable or self.node.epc is None:
            return None
        return DeviceAdvertisement(
            resource_name=SGX_EPC_RESOURCE,
            item_count=self.node.epc.total_pages,
            device_path="/dev/isgx",
        )

    def register(self, kubelet_channel: RpcChannel) -> bool:
        """Register with the node's Kubelet; returns ``True`` if advertised."""
        advertisement = self.detect()
        if advertisement is None:
            return False
        kubelet_channel.call(
            "RegisterDevicePlugin",
            resource_name=advertisement.resource_name,
            item_count=advertisement.item_count,
            device_path=advertisement.device_path,
        )
        return True


class DevicePluginRegistry:
    """Kubelet-side registry of device-plugin resources."""

    def __init__(self):
        self._resources: Dict[str, DeviceAdvertisement] = {}

    def register(
        self, resource_name: str, item_count: int, device_path: str
    ) -> None:
        """Handle a plugin registration (the Kubelet RPC handler)."""
        if item_count < 0:
            raise RpcError(f"negative item count for {resource_name!r}")
        self._resources[resource_name] = DeviceAdvertisement(
            resource_name=resource_name,
            item_count=item_count,
            device_path=device_path,
        )

    def capacity(self, resource_name: str) -> int:
        """Advertised item count for a resource (0 when absent)."""
        advertisement = self._resources.get(resource_name)
        return advertisement.item_count if advertisement else 0

    def device_path(self, resource_name: str) -> Optional[str]:
        """Device pseudo-file to mount into pods using this resource."""
        advertisement = self._resources.get(resource_name)
        return advertisement.device_path if advertisement else None
