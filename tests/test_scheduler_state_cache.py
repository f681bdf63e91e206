"""Cluster-state cache through the scheduler stack.

Covers the acceptance properties of the window-max store as the
scheduler's only monitoring input: every ``build_views`` of whole
replays and of a driven orchestrator equals a full Listing 1 scan
(``tests/view_reference.py``), a replay never imports the raw-series
database, the store's memory stays bounded by the window, and
``load_after`` matches ``load`` without allocating hypothetical views.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pass_reuse_reference import run_recomputing
from repro.api import Scenario
from repro.cluster.resources import ResourceVector
from repro.cluster.topology import paper_cluster
from repro.constants import (
    METRICS_PUSH_PERIOD_SECONDS,
    METRICS_WINDOW_SECONDS,
)
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.controller import Orchestrator
from repro.scheduler.base import NodeView
from repro.scheduler.binpack import BinpackScheduler
from repro.simulation.runner import run_replay
from repro.units import gib, mib
from view_reference import checking

#: The replay engines checked against the reference: the default pass
#: (which reuses provably unchanged passes) and the recomputing oracle.
ENGINE_MODES = pytest.mark.parametrize(
    "engine", ["periodic", "recomputing"]
)


def run_engine(scenario, engine):
    """``scenario.run()`` on *engine* (see :data:`ENGINE_MODES`)."""
    if engine == "recomputing":
        return run_recomputing(scenario)
    return scenario.run()


def drive(orchestrator, n_pods=6, until=30.0):
    """Submit a pod mix, collect metrics and schedule a few rounds."""
    scheduler = BinpackScheduler()
    for index in range(n_pods):
        if index % 2 == 0:
            spec = make_pod_spec(
                f"sgx-{index}",
                duration_seconds=300.0,
                declared_epc_bytes=mib(8),
            )
        else:
            spec = make_pod_spec(
                f"std-{index}",
                duration_seconds=300.0,
                declared_memory_bytes=gib(1),
            )
        orchestrator.submit(spec, now=0.0)
    now = 0.0
    while now < until:
        orchestrator.collect_metrics(now)
        orchestrator.scheduling_pass(scheduler, now=now)
        now += 5.0
    return now


def checked_run(scenario, engine):
    """*scenario* on *engine* with every view build compared with the
    full Listing 1 scan; the result and the builds checked."""
    with checking() as checked:
        result = run_engine(scenario, engine)
    return result, checked[0]


class TestBuildViewsEquivalence:
    def test_cached_views_equal_full_scan_views(self):
        """A driven orchestrator: every build, including one after the
        last pass, equals the full scan over the same samples."""
        with checking() as checked:
            orchestrator = Orchestrator(paper_cluster())
            now = drive(orchestrator)
            views = orchestrator.state_service.build_views(now)
        assert checked[0] > 1
        assert any(view.used != ResourceVector.zero() for view in views)

    def test_window_store_views_equal_raw_series_full_scan(self):
        """The default sink keeps no raw series, yet its views equal a
        full Listing 1 scan over the same samples stored in a TSDB,
        also while half the pods finish and their samples age out of
        the window."""
        with checking() as checked:
            orchestrator = Orchestrator(paper_cluster())
            now = drive(orchestrator, n_pods=8)
            service = orchestrator.state_service
            measured = service.build_views(now)
            running = [
                pod for pod in orchestrator.all_pods if pod.node_name
            ]
            for pod in running[::2]:
                if pod.started_at is None:
                    orchestrator.start_pod(pod, now)
                orchestrator.complete_pod(pod, now)
            for _ in range(8):
                now += 5.0
                orchestrator.collect_metrics(now)
                drained = service.build_views(now)
        assert checked[0] > 8
        assert measured != drained
        assert any(view.used != ResourceVector.zero() for view in drained)

    @ENGINE_MODES
    def test_signature_replay_equals_the_reference(self, engine):
        scenario = Scenario(
            trace="borg-synth:seed=7,jobs=120,overallocators=12",
            sgx_fraction=0.5,
            seed=3,
        )
        result, checked = checked_run(scenario, engine)
        assert checked > 0
        if engine == "recomputing":
            assert result.signature() == scenario.run().signature()

    @ENGINE_MODES
    def test_contended_replay_equals_the_reference(self, engine):
        """A standing EPC backlog, so passes really read the window.

        The default pass reuses the passes whose state the store proves
        unchanged; the recomputing oracle reuses none.  Both read views
        equal to the full scan, and their signatures match.
        """
        scenario = Scenario(
            trace="borg-synth:seed=42,jobs=60,window=5m",
            sgx_fraction=0.9,
            epc_total_bytes=mib(64),
            standard_workers=1,
            sgx_workers=1,
            seed=1,
        )
        result, checked = checked_run(scenario, engine)
        assert checked > 0
        if engine == "recomputing":
            assert result.signature() == scenario.run().signature()

    def test_replay_equals_the_reference(self, small_trace):
        """End to end, through the live replay."""
        with checking() as checked:
            outcome = run_replay(
                Scenario(
                    trace=small_trace,
                    scheduler="binpack",
                    sgx_fraction=0.5,
                    seed=11,
                )
            )
        assert checked[0] > 0
        assert outcome.orchestrator.all_pods


class TestZeroScanRegression:
    def test_scheduling_pass_issues_no_window_scans(self, monkeypatch):
        """Every pass is served by the window-max store: nothing scans
        a raw series."""
        from repro.monitoring.tsdb import TimeSeriesDatabase

        def scan(*args, **kwargs):
            raise AssertionError("a pass scanned a raw series")

        monkeypatch.setattr(TimeSeriesDatabase, "scan", scan)
        orchestrator = Orchestrator(paper_cluster())
        assert not hasattr(orchestrator, "db")
        drive(orchestrator, until=20.0)
        orchestrator.submit(
            make_pod_spec(
                "late", duration_seconds=60.0, declared_epc_bytes=mib(4)
            ),
            now=20.0,
        )
        orchestrator.collect_metrics(20.0)
        orchestrator.scheduling_pass(BinpackScheduler(), now=20.0)
        service = orchestrator.state_service
        assert service.store is orchestrator.aggregate_cache
        assert service.nodes_rebuilt > 0

    def test_a_replay_never_imports_the_raw_series_database(self):
        """The window-max store is the only sink: a replay, the
        scenario API and the CLI leave ``repro.monitoring.tsdb``
        unimported."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = textwrap.dedent(
            """
            import sys
            import repro.cli
            from repro.api import Scenario
            Scenario(
                trace="borg-synth:seed=7,jobs=40", sgx_fraction=0.5, seed=3
            ).run()
            print("repro.monitoring.tsdb" in sys.modules)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.stdout.strip() == "False"


class TestBoundedMemory:
    def test_store_retains_at_most_one_window_per_series(self, monkeypatch):
        """Long runs need bounded memory: the default sink keeps no
        O(retention) history, only what the 25 s window can still use.

        Checked after every scheduling pass of a replay, including the
        passes that return early on an empty queue (they query
        nothing, so only trimming on ingest bounds the store there).
        A max deque holds samples the window can still use plus at
        most one expired head, which decides whether a later sample
        raises the max.
        """
        scenario = Scenario(
            trace="borg-synth:seed=7,jobs=120,overallocators=12",
            sgx_fraction=0.5,
            seed=3,
        )
        bound = METRICS_WINDOW_SECONDS / METRICS_PUSH_PERIOD_SECONDS + 1
        checked = []
        original = Orchestrator.scheduling_pass

        def checked_pass(orchestrator, *args, **kwargs):
            result = original(orchestrator, *args, **kwargs)
            store = orchestrator.aggregate_cache
            live = 0
            for state in store._measurements.values():
                for node in state.nodes.values():
                    for maxdeque in node.series.values():
                        assert len(maxdeque) <= bound + 1
                        live += 1
            checked.append(live)
            return result

        monkeypatch.setattr(Orchestrator, "scheduling_pass", checked_pass)
        scenario.run()
        assert len(checked) > 100 and max(checked) > 0


_DIMS = st.integers(min_value=0, max_value=5000)


class TestLoadAfter:
    @given(
        cap=st.tuples(_DIMS, _DIMS, _DIMS),
        used=st.tuples(_DIMS, _DIMS, _DIMS),
        req=st.tuples(_DIMS, _DIMS, _DIMS),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_load_of_hypothetical_view(self, cap, used, req):
        view = NodeView(
            name="n",
            sgx_capable=cap[2] > 0,
            capacity=ResourceVector(*cap),
            used=ResourceVector(*used),
        )
        requests = ResourceVector(*req)
        hypothetical = NodeView(
            name="n",
            sgx_capable=view.sgx_capable,
            capacity=view.capacity,
            used=view.used + requests,
        )
        assert view.load_after(requests) == pytest.approx(hypothetical.load)

    def test_dimension_node_lacks_is_ignored(self):
        view = NodeView(
            name="std",
            sgx_capable=False,
            capacity=ResourceVector(cpu_millicores=1000, memory_bytes=1000),
            used=ResourceVector(cpu_millicores=500),
        )
        # EPC demand on a node with no EPC: inf ratio is ignored by
        # load(); load_after must do the same.
        assert view.load_after(ResourceVector(epc_pages=10)) == 0.5
