"""Minimal cgroup hierarchy model.

The paper's limit-enforcement channel (Section V-D) deliberately avoids a
full cgroup controller.  Instead it uses the **cgroup path as a pod
identifier**, because (i) it is readily available in Kubelet and in the
kernel, (ii) all containers of a pod share one cgroup path while distinct
pods never do, and (iii) the path exists *before* containers start, so the
driver knows a pod's limit at enclave-init time.

This module models just enough of the hierarchy to honour those three
properties: pod cgroups are created under a per-QoS-class parent before
any container process is attached, and processes are attached to their
pod's cgroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..errors import CgroupError

#: Kubernetes QoS classes determine the cgroup parent for a pod.
QOS_CLASSES = ("guaranteed", "burstable", "besteffort")


@dataclass
class Cgroup:
    """One node in the cgroup tree.

    Links point down only: the hierarchy finds a group's parent by
    path, so a tree holds no reference cycle and is freed with its
    node.
    """

    path: str
    children: Dict[str, "Cgroup"] = field(default_factory=dict)
    pids: Set[int] = field(default_factory=set)

    @property
    def name(self) -> str:
        """Last path component."""
        return self.path.rsplit("/", 1)[-1]

    def walk(self) -> List["Cgroup"]:
        """This cgroup and all descendants, depth-first."""
        found = [self]
        for child in self.children.values():
            found.extend(child.walk())
        return found

    def all_pids(self) -> Set[int]:
        """Every pid attached to this cgroup or any descendant."""
        pids: Set[int] = set()
        for group in self.walk():
            pids |= group.pids
        return pids


class CgroupHierarchy:
    """The cgroup filesystem of one node (``/sys/fs/cgroup``-ish)."""

    def __init__(self):
        self.root = Cgroup(path="")
        self._by_path: Dict[str, Cgroup] = {"": self.root}
        self._pid_home: Dict[int, Cgroup] = {}
        for qos in QOS_CLASSES:
            self.create(f"/kubepods/{qos}")

    # -- tree management ---------------------------------------------------

    def create(self, path: str) -> Cgroup:
        """Create a cgroup (and any missing ancestors). Idempotent."""
        path = self._normalize(path)
        if path in self._by_path:
            return self._by_path[path]
        parent_path, _, name = path.rpartition("/")
        parent = self.create(parent_path) if parent_path else self.root
        group = Cgroup(path=path)
        parent.children[name] = group
        self._by_path[path] = group
        return group

    def remove(self, path: str) -> None:
        """Remove an empty cgroup subtree.

        Raises if any attached process remains, matching kernel semantics.
        """
        path = self._normalize(path)
        group = self._by_path.get(path)
        if group is None:
            raise CgroupError(f"no such cgroup: {path!r}")
        if group is self.root:
            raise CgroupError("cannot remove the root cgroup")
        live = group.all_pids()
        if live:
            raise CgroupError(
                f"cgroup {path!r} still has {len(live)} attached pids"
            )
        for descendant in group.walk():
            self._by_path.pop(descendant.path, None)
        parent_path, _, name = path.rpartition("/")
        self._by_path[parent_path].children.pop(name, None)

    def exists(self, path: str) -> bool:
        """Whether *path* names a live cgroup."""
        return self._normalize(path) in self._by_path

    def get(self, path: str) -> Cgroup:
        """Look a cgroup up by path."""
        # The keys are exactly the normalised paths, so the canonical
        # path a caller usually holds (``pod_cgroup_path``'s) is found
        # without normalising it again; anything else takes the miss.
        group = self._by_path.get(path)
        if group is None:
            path = self._normalize(path)
            group = self._by_path.get(path)
            if group is None:
                raise CgroupError(f"no such cgroup: {path!r}")
        return group

    # -- process attachment --------------------------------------------------

    def attach(self, pid: int, path: str) -> None:
        """Attach *pid* to a cgroup, migrating it if already attached."""
        group = self.get(path)
        old = self._pid_home.get(pid)
        if old is not None:
            old.pids.discard(pid)
        group.pids.add(pid)
        self._pid_home[pid] = group

    def detach(self, pid: int) -> None:
        """Remove *pid* from the hierarchy (process exit)."""
        group = self._pid_home.pop(pid, None)
        if group is not None:
            group.pids.discard(pid)

    def cgroup_of(self, pid: int) -> Optional[str]:
        """The cgroup path of *pid*, or ``None`` if unattached."""
        group = self._pid_home.get(pid)
        return group.path if group else None

    # -- pod helpers ----------------------------------------------------------

    def pod_cgroup_path(self, pod_uid: str, qos: str = "burstable") -> str:
        """The canonical cgroup path for a pod, Kubernetes-style."""
        if qos not in QOS_CLASSES:
            raise CgroupError(f"unknown QoS class {qos!r}")
        return f"/kubepods/{qos}/pod{pod_uid}"

    def create_pod_cgroup(self, pod_uid: str, qos: str = "burstable") -> str:
        """Create a pod's cgroup before its containers start; returns path."""
        path = self.pod_cgroup_path(pod_uid, qos)
        if self.exists(path):
            raise CgroupError(f"pod cgroup already exists: {path!r}")
        self.create(path)
        return path

    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/") and path:
            raise CgroupError(f"cgroup paths must be absolute: {path!r}")
        return path.rstrip("/")
