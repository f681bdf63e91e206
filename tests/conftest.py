"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import paper_cluster
from repro.monitoring.tsdb import TimeSeriesDatabase
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.trace.borg import synthetic_scaled_trace
from repro.units import gib, mib


@pytest.fixture(scope="session")
def repro_modules():
    """Every module of the ``repro`` package, imported, in path order.

    Importing them all runs every ``@register_*`` decorator in the
    tree, so a name registered twice raises ``RegistryError`` here.
    """
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]


@pytest.fixture
def sgx_node() -> Node:
    """A fresh SGX worker with default 128 MiB PRM."""
    return Node(NodeSpec.sgx("sgx-test-0"))


@pytest.fixture
def standard_node() -> Node:
    """A fresh standard worker (64 GiB, no SGX)."""
    return Node(NodeSpec.standard("std-test-0"))


@pytest.fixture
def cluster():
    """The paper's 2+2 worker inventory."""
    return paper_cluster()


@pytest.fixture
def orchestrator(cluster) -> Orchestrator:
    """A control plane over the paper cluster."""
    return Orchestrator(cluster)


@pytest.fixture
def db() -> TimeSeriesDatabase:
    """An empty time-series database (the reference store)."""
    return TimeSeriesDatabase()


@pytest.fixture
def small_trace():
    """A fast 40-job trace for replay tests."""
    return synthetic_scaled_trace(seed=7, n_jobs=40, overallocators=4)


@pytest.fixture
def sgx_pod_spec():
    """A small SGX pod: 10 MiB EPC declared and used, 60 s runtime."""
    return make_pod_spec(
        "sgx-pod",
        duration_seconds=60.0,
        declared_epc_bytes=mib(10),
    )


@pytest.fixture
def standard_pod_spec():
    """A standard pod: 1 GiB declared and used, 60 s runtime."""
    return make_pod_spec(
        "std-pod",
        duration_seconds=60.0,
        declared_memory_bytes=gib(1),
    )
