"""Cgroup hierarchy: the pod-identifier substrate of Section V-D."""

import pytest

from repro.cluster.cgroups import QOS_CLASSES, CgroupHierarchy
from repro.errors import CgroupError


@pytest.fixture
def hierarchy() -> CgroupHierarchy:
    return CgroupHierarchy()


class TestTree:
    def test_qos_parents_exist(self, hierarchy):
        for qos in QOS_CLASSES:
            assert hierarchy.exists(f"/kubepods/{qos}")

    def test_create_with_ancestors(self, hierarchy):
        hierarchy.create("/a/b/c")
        assert hierarchy.exists("/a")
        assert hierarchy.exists("/a/b")
        assert hierarchy.exists("/a/b/c")

    def test_create_is_idempotent(self, hierarchy):
        first = hierarchy.create("/x")
        second = hierarchy.create("/x")
        assert first is second

    def test_relative_path_rejected(self, hierarchy):
        with pytest.raises(CgroupError):
            hierarchy.create("relative/path")
        hierarchy.create("/relative/path")
        with pytest.raises(CgroupError, match="absolute"):
            hierarchy.get("relative/path")

    def test_remove_empty_subtree(self, hierarchy):
        hierarchy.create("/x/y")
        hierarchy.remove("/x")
        assert not hierarchy.exists("/x")
        assert not hierarchy.exists("/x/y")

    def test_remove_with_pids_rejected(self, hierarchy):
        hierarchy.create("/x")
        hierarchy.attach(1, "/x")
        with pytest.raises(CgroupError, match="attached pids"):
            hierarchy.remove("/x")

    def test_remove_unknown_rejected(self, hierarchy):
        with pytest.raises(CgroupError):
            hierarchy.remove("/ghost")

    def test_remove_root_rejected(self, hierarchy):
        with pytest.raises(CgroupError):
            hierarchy.remove("/")

    def test_get_unknown_rejected(self, hierarchy):
        with pytest.raises(CgroupError):
            hierarchy.get("/nope")

    def test_get_trailing_slash_finds_the_group(self, hierarchy):
        group = hierarchy.create("/x")
        assert hierarchy.get("/x/") is group
        assert hierarchy.get("/") is hierarchy.root


class TestAttachment:
    def test_attach_and_lookup(self, hierarchy):
        hierarchy.create("/x")
        hierarchy.attach(7, "/x")
        assert hierarchy.cgroup_of(7) == "/x"

    def test_attach_migrates(self, hierarchy):
        hierarchy.create("/x")
        hierarchy.create("/y")
        hierarchy.attach(7, "/x")
        hierarchy.attach(7, "/y")
        assert hierarchy.cgroup_of(7) == "/y"
        assert 7 not in hierarchy.get("/x").pids

    def test_detach(self, hierarchy):
        hierarchy.create("/x")
        hierarchy.attach(7, "/x")
        hierarchy.detach(7)
        assert hierarchy.cgroup_of(7) is None

    def test_all_pids_covers_subtree(self, hierarchy):
        hierarchy.create("/x/y")
        hierarchy.attach(1, "/x")
        hierarchy.attach(2, "/x/y")
        assert hierarchy.get("/x").all_pids() == {1, 2}


class TestPodCgroups:
    def test_pod_path_shape(self, hierarchy):
        path = hierarchy.pod_cgroup_path("abc123")
        assert path == "/kubepods/burstable/podabc123"

    def test_pod_path_available_before_processes(self, hierarchy):
        # Property (iii) of Section V-D: the path exists before any
        # container process starts.
        path = hierarchy.create_pod_cgroup("abc123")
        assert hierarchy.exists(path)
        assert hierarchy.get(path).pids == set()

    def test_distinct_pods_distinct_paths(self, hierarchy):
        a = hierarchy.create_pod_cgroup("pod-a")
        b = hierarchy.create_pod_cgroup("pod-b")
        assert a != b

    def test_duplicate_pod_cgroup_rejected(self, hierarchy):
        hierarchy.create_pod_cgroup("abc")
        with pytest.raises(CgroupError):
            hierarchy.create_pod_cgroup("abc")

    def test_unknown_qos_rejected(self, hierarchy):
        with pytest.raises(CgroupError):
            hierarchy.pod_cgroup_path("abc", qos="platinum")
