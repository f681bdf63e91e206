"""The observability toolchain: diff, explain, spans, metrics.

The diff fixtures pin the *true first divergence* for run pairs that
differ in exactly one knob: a seed pair must split on the first
record the reshuffled workload changes, a preemption on/off pair must
split at the planner's first verdict, and a run that reuses passes
must not diverge at all from one that recomputes every pass.
"""

import pytest

from pass_reuse_reference import ledger_body, recomputing, run_with_replay
from repro.api import ObserveConfig, Scenario
from repro.errors import SimulationError
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    NULL_SPANS,
    MetricsRegistry,
    SpanRecorder,
    diff_ledgers,
    explain_pod,
    format_diff,
    format_explain,
    load_ledger,
    pod_events,
)
from repro.trace.borg import synthetic_scaled_trace
from repro.units import mib


def bursty_trace(trace_seed, n_jobs):
    return synthetic_scaled_trace(
        seed=trace_seed,
        n_jobs=n_jobs,
        overallocators=max(1, n_jobs // 10),
        window_seconds=120.0,
    )


def record(scenario, directory, name):
    path = str(directory / (name + ".jsonl"))
    result = scenario.with_(
        observe=ObserveConfig(ledger_path=path)
    ).run()
    return load_ledger(path), result


def record_replay(scenario, directory, name):
    """Like :func:`record`, with the live replay instead of the result."""
    path = str(directory / (name + ".jsonl"))
    _, replay = run_with_replay(
        scenario.with_(observe=ObserveConfig(ledger_path=path))
    )
    return load_ledger(path), replay


@pytest.fixture
def base_scenario():
    return Scenario(
        trace=bursty_trace(7, 40), sgx_fraction=0.5, seed=3
    )


class TestDiffDivergenceHunt:
    def test_seed_pair_diverges_at_the_reshuffled_workload(
        self, tmp_path, base_scenario
    ):
        left, _ = record(base_scenario, tmp_path, "seed3")
        right, _ = record(
            base_scenario.with_(seed=4), tmp_path, "seed4"
        )
        diff = diff_ledgers(left, right)
        assert not diff.identical
        assert ("seed", 3, 4) in diff.header_diffs
        assert ("config.seed", 3, 4) in diff.header_diffs
        first = diff.first_divergence
        # Verify it is the TRUE first divergence: every earlier
        # lockstep position matches, and the records at the reported
        # index differ.
        assert left.events[: first.index] == right.events[: first.index]
        assert left.events[first.index] != right.events[first.index]
        assert first.left == left.events[first.index]
        assert first.right == right.events[first.index]
        # The seed only redraws SGX designation, so the split is the
        # first record naming a redesignated pod.
        assert first.left["t"] == first.right["t"]

    def test_reused_passes_never_diverge_from_recomputed_ones(
        self, tmp_path, base_scenario
    ):
        contended = base_scenario.with_(
            sgx_fraction=1.0, epc_total_bytes=mib(64)
        )
        with recomputing():
            recomputed, _ = record(contended, tmp_path, "recomputed")
        reused, replay = record_replay(contended, tmp_path, "reused")
        assert replay.orchestrator.passes_reused > 0
        diff = diff_ledgers(recomputed, reused)
        # Reuse decides nothing differently: not one record, and not
        # the header either (both runs share one scenario).
        assert diff.identical
        assert diff.first_divergence is None
        assert diff.header_diffs == []

    def test_two_recordings_in_one_process_are_identical(self, tmp_path):
        """Each orchestrator numbers its own pods, so a run recorded
        twice in one process writes the same bytes; a ``launch_killed``
        reason names the pod's cgroup, which carries the pod's uid."""
        scenario = Scenario(
            trace=synthetic_scaled_trace(
                seed=7, n_jobs=40, overallocators=4
            ),
            sgx_fraction=1.0,
            enforce_epc_limits=True,
            epc_allow_overcommit=False,
            seed=1,
        )
        bodies = []
        for name in ("first", "second"):
            path = str(tmp_path / (name + ".jsonl"))
            scenario.with_(observe=ObserveConfig(ledger_path=path)).run()
            bodies.append(ledger_body(path))
        assert b'"launch_killed"' in bodies[0]
        assert bodies[0] == bodies[1]

    def test_preemption_pair_diverges_at_the_first_plan(
        self, tmp_path
    ):
        contended = Scenario(
            trace=bursty_trace(7, 40),
            sgx_fraction=1.0,
            seed=1,
            epc_total_bytes=mib(64),
            workload="priority-mix",
            workload_options={
                "high_fraction": 0.25,
                "high_priority": "latency-critical",
            },
        )
        off, _ = record(contended, tmp_path, "off")
        on, result = record(
            contended.with_(preemption_policy="cheapest-victims"),
            tmp_path,
            "on",
        )
        assert result.preemption_count > 0
        diff = diff_ledgers(off, on)
        assert not diff.identical
        assert (
            "config.preemption_policy", "none", "cheapest-victims"
        ) in diff.header_diffs
        first = diff.first_divergence
        assert off.events[: first.index] == on.events[: first.index]
        # The runs are identical until the first pass where the
        # planner is consulted: its verdict record only exists on the
        # preempting side.
        assert first.right["kind"] == "preemption_plan"

    def test_format_diff_renders_the_hunt(self, tmp_path, base_scenario):
        left, _ = record(base_scenario, tmp_path, "a")
        right, _ = record(
            base_scenario.with_(seed=4), tmp_path, "b"
        )
        text = format_diff(diff_ledgers(left, right, context=2))
        assert "first divergence at event index" in text
        assert "header differences:" in text
        assert "\n    < " in text and "\n    > " in text
        identical = format_diff(diff_ledgers(left, left))
        assert "decision streams are identical" in identical

    def test_truncated_stream_reports_tail_divergence(
        self, tmp_path, base_scenario
    ):
        full, _ = record(base_scenario, tmp_path, "full")
        short_path = tmp_path / "short.jsonl"
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        short_path.write_text("\n".join(lines[:-3]) + "\n")
        diff = diff_ledgers(full, load_ledger(str(short_path)))
        assert not diff.identical
        assert diff.diffs == 0 and diff.only_left == 3
        assert diff.first_divergence.index == len(full.events) - 3
        assert diff.first_divergence.right is None


class TestExplain:
    def test_lifecycle_reconstruction(self, tmp_path, base_scenario):
        ledger, result = record(base_scenario, tmp_path, "run")
        pod = result.metrics.pods[0]
        report = explain_pod(ledger, pod.spec.name)
        assert report["pod"] == pod.spec.name
        assert report["submitted_at"] == pytest.approx(
            pod.submitted_at
        )
        (placement,) = report["placements"]
        assert placement["node"] == pod.node_name
        assert placement["t"] == pytest.approx(pod.bound_at)
        assert report["finished"]["outcome"] == "pod-completed"
        assert report["events"] == len(report["timeline"])
        text = format_explain(report)
        assert f"pod {pod.spec.name}" in text
        assert "submitted" in text and "placed on" in text

    def test_deferred_pod_reports_wait_reasons(self, tmp_path):
        # A 64 MiB PRM with an all-SGX workload: pods queue on EPC.
        contended = Scenario(
            trace=bursty_trace(7, 40),
            sgx_fraction=1.0,
            seed=1,
            epc_total_bytes=mib(64),
        )
        ledger, result = record(contended, tmp_path, "run")
        deferred = [
            event
            for event in ledger.events
            if event["kind"] == "deferral"
        ]
        assert deferred, "fixture regime must defer some pods"
        report = explain_pod(ledger, deferred[0]["pod"])
        assert report["deferral_passes"] >= 1
        assert sum(report["wait_reasons"].values()) == (
            report["deferral_passes"]
        )
        assert "deferred in" in format_explain(report)

    def test_recorded_requeue_omits_its_own_time(self, tmp_path):
        # Two strict 64 MiB PRMs with limits enforced: placed pods fail
        # their launch and are retried on the next pass.
        scenario = Scenario(
            trace="borg-synth:seed=7,jobs=24,window=120",
            sgx_fraction=1.0,
            epc_total_bytes=mib(64),
            standard_workers=1,
            sgx_workers=2,
            seed=1,
            enforce_epc_limits=True,
            epc_allow_overcommit=False,
        )
        ledger, _ = record(scenario, tmp_path, "run")
        requeued = [
            event for event in ledger.events if event["kind"] == "requeue"
        ]
        assert requeued, "fixture regime must requeue some pods"
        assert all("ready_at" not in event for event in requeued)
        report = explain_pod(ledger, requeued[0]["pod"])
        assert report["requeues"]
        for requeue in report["requeues"]:
            assert requeue == {"t": requeue["t"]}
        text = format_explain(report)
        assert "launch failed, requeued" in text
        assert "ready at" not in text

    def test_unknown_pod_raises(self, tmp_path, base_scenario):
        ledger, _ = record(base_scenario, tmp_path, "run")
        with pytest.raises(SimulationError, match="no event"):
            explain_pod(ledger, "no-such-pod")
        assert pod_events(ledger, "no-such-pod") == []


class TestSpans:
    def test_chrome_trace_export(self, tmp_path, base_scenario):
        result = base_scenario.with_(
            observe=ObserveConfig(
                trace_path=str(tmp_path / "run.trace.json")
            )
        ).run()
        assert result.trace_path is not None
        assert result.ledger_path is None
        import json

        document = json.loads(open(result.trace_path).read())
        events = document["traceEvents"]
        assert events, "a replay must record spans"
        names = {event["name"] for event in events}
        assert {"replay", "pass", "view_rebuild"} <= names
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        (replay_span,) = [e for e in events if e["name"] == "replay"]
        assert replay_span["args"]["sim_time"] > 0.0

    def test_recorder_api(self):
        recorder = SpanRecorder()
        t0 = recorder.begin()
        recorder.end(t0, "unit", 12.5)
        assert recorder.span_count == 1
        (event,) = recorder.to_dict()["traceEvents"]
        assert event["name"] == "unit"
        assert event["args"] == {"sim_time": 12.5}
        assert NULL_SPANS.begin() == 0.0
        assert NULL_SPANS.end(0.0, "ignored") is None
        assert NULL_SPANS.enabled is False


class TestMetrics:
    def test_prometheus_snapshot_of_a_run(
        self, tmp_path, base_scenario
    ):
        result = base_scenario.with_(
            observe=ObserveConfig(
                ledger_path=str(tmp_path / "run.jsonl"),
                metrics_path=str(tmp_path / "run.prom"),
            )
        ).run()
        text = open(result.metrics_path).read()
        assert "# TYPE repro_passes_total counter" in text
        assert f"repro_passes_total {result.passes_executed}\n" in text
        assert "outcome=" not in text
        assert "# TYPE repro_passes_reused_total counter" in text
        # The view counters agree with the ledger's cache_rebuild
        # records: each served snapshot is one reused record, and each
        # rebuilding pass rebuilt between one and every node's view.
        builds = [
            event["reused"]
            for event in load_ledger(result.ledger_path).events
            if event["kind"] == "cache_rebuild"
        ]
        assert (
            f"repro_view_snapshots_reused_total {builds.count(True)}\n"
            in text
        )
        (rebuilt,) = (
            int(line.split()[1])
            for line in text.splitlines()
            if line.startswith("repro_view_nodes_rebuilt_total ")
        )
        nodes = 4  # the paper's cluster
        assert builds.count(False) <= rebuilt <= nodes * builds.count(False)
        assert "# TYPE repro_pod_wait_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert (
            f"repro_pod_wait_seconds_count {len(result.metrics.pods)}"
            in text
        )
        assert "repro_makespan_seconds" in text
        # Determinism: a repeat run snapshots byte-identically.
        again = base_scenario.with_(
            observe=ObserveConfig(
                ledger_path=str(tmp_path / "again.jsonl"),
                metrics_path=str(tmp_path / "again.prom"),
            )
        ).run()
        assert open(again.metrics_path).read() == text

    def test_registry_rendering(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", 2, queue="sgx")
        registry.counter("jobs_total", 1, queue="sgx")
        registry.counter("jobs_total", 5, queue="std")
        registry.gauge("temperature", 21.5)
        for value in (0.5, 3.0, 400.0):
            registry.observe("wait_seconds", value)
        text = registry.render()
        assert 'jobs_total{queue="sgx"} 3' in text
        assert 'jobs_total{queue="std"} 5' in text
        assert "temperature 21.5" in text
        assert 'wait_seconds_bucket{le="1"} 1' in text
        assert 'wait_seconds_bucket{le="+Inf"} 3' in text
        assert "wait_seconds_sum 403.5" in text
        assert "wait_seconds_count 3" in text
        # Families render sorted, so output is deterministic.
        assert text.index("jobs_total") < text.index("temperature")
        assert len(DEFAULT_BUCKETS) >= 5
        assert NULL_METRICS.enabled is False
        assert NULL_METRICS.counter("x") is None
