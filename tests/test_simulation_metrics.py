"""Replay metrics: selections, aggregates, memory-bin analysis."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.orchestrator.api import (
    PodPhase,
    PodSpec,
    ResourceRequirements,
    WorkloadProfile,
)
from repro.orchestrator.pod import Pod
from repro.simulation.metrics import QueueSample, ReplayMetrics
from repro.units import gib, mib, pages


def finished_pod(
    name,
    submit=0.0,
    start=10.0,
    finish=70.0,
    epc_pages_count=0,
    mem=0,
) -> Pod:
    spec = PodSpec(
        name=name,
        resources=ResourceRequirements(
            requests=ResourceVector(
                memory_bytes=mem, epc_pages=epc_pages_count
            )
        ),
        workload=WorkloadProfile(
            duration_seconds=finish - start,
            memory_bytes=mem,
            epc_pages=epc_pages_count,
        ),
    )
    pod = Pod(spec, submitted_at=submit, uid=name)
    pod.mark_bound("node", submit + 1.0)
    pod.mark_running(start)
    pod.mark_succeeded(finish)
    return pod


def failed_pod(name) -> Pod:
    pod = Pod(PodSpec(name=name), submitted_at=0.0, uid=name)
    pod.mark_failed(5.0, "killed")
    return pod


class TestSelections:
    def test_phase_partition(self):
        metrics = ReplayMetrics(
            pods=[finished_pod("a"), failed_pod("b")]
        )
        assert [p.name for p in metrics.succeeded] == ["a"]
        assert [p.name for p in metrics.failed] == ["b"]
        assert metrics.pods_in_phase(PodPhase.RUNNING) == []

    def test_sgx_standard_split(self):
        metrics = ReplayMetrics(
            pods=[
                finished_pod("sgx", epc_pages_count=100),
                finished_pod("std", mem=gib(1)),
            ]
        )
        assert [p.name for p in metrics.sgx_pods()] == ["sgx"]
        assert [p.name for p in metrics.standard_pods()] == ["std"]


class TestAggregates:
    def test_waiting_and_turnaround(self):
        metrics = ReplayMetrics(
            pods=[finished_pod("a", submit=0.0, start=10.0, finish=70.0)]
        )
        assert metrics.waiting_times() == [10.0]
        assert metrics.turnaround_times() == [70.0]
        assert metrics.mean_waiting_seconds() == 10.0
        assert metrics.max_waiting_seconds() == 10.0
        assert metrics.total_turnaround_hours() == pytest.approx(
            70.0 / 3600.0
        )

    def test_empty_metrics_are_zero(self):
        metrics = ReplayMetrics()
        assert metrics.mean_waiting_seconds() == 0.0
        assert metrics.max_waiting_seconds() == 0.0
        assert metrics.waiting_times() == []

    def test_failed_pods_excluded_from_waiting(self):
        metrics = ReplayMetrics(pods=[failed_pod("b")])
        assert metrics.waiting_times() == []


class TestMemoryBins:
    def make_metrics(self):
        pods = []
        for index, epc_mib in enumerate((5, 10, 20, 40, 80)):
            pods.append(
                finished_pod(
                    f"sgx-{index}",
                    start=10.0 + index,
                    epc_pages_count=pages(mib(epc_mib)),
                )
            )
        return ReplayMetrics(pods=pods)

    def test_bins_cover_all_pods(self):
        metrics = self.make_metrics()
        rows = metrics.waiting_by_memory_bin(bin_count=4, sgx=True)
        assert sum(int(r["count"]) for r in rows) == 5

    def test_bin_edges_monotone(self):
        rows = self.make_metrics().waiting_by_memory_bin(
            bin_count=4, sgx=True
        )
        for row in rows:
            assert row["bin_low"] < row["bin_high"]
        lows = [r["bin_low"] for r in rows]
        assert lows == sorted(lows)

    def test_no_matching_pods_returns_empty(self):
        metrics = self.make_metrics()
        assert metrics.waiting_by_memory_bin(sgx=False) == []

    def test_ci_reported(self):
        rows = self.make_metrics().waiting_by_memory_bin(
            bin_count=1, sgx=True
        )
        (row,) = rows
        assert row["ci95"] >= 0.0
        assert row["count"] == 5.0


class TestQueueSample:
    def test_pending_epc_mib(self):
        sample = QueueSample(
            time=1.0,
            queued_pods=2,
            pending_epc_pages=256,
            pending_memory_bytes=0,
        )
        assert sample.pending_epc_mib == pytest.approx(1.0)
