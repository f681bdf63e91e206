"""``Sweep``: grid expansion and serial/parallel/engine equivalence."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SWEEP_SCHEMA, Scenario, Sweep, expand_grid
from repro.errors import SimulationError
from repro.simulation.runner import run_replay
from repro.trace.borg import synthetic_scaled_trace


class TestExpandGrid:
    def test_cartesian_product_first_key_slowest(self):
        combos = expand_grid(
            {"a": (1, 2), "b": ("x", "y")}
        )
        assert combos == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_empty_grid(self):
        assert expand_grid({}) == []

    def test_empty_axis_rejected(self):
        with pytest.raises(SimulationError, match="no values"):
            expand_grid({"a": ()})


class TestSweepExpansion:
    def test_grid_expansion(self):
        sweep = Sweep(
            Scenario(trace="borg-synth:jobs=10"),
            grid={
                "scheduler": ("binpack", "spread"),
                "sgx_fraction": (0.0, 1.0),
            },
        )
        assert len(sweep) == 4
        assert [
            (s.scheduler, s.sgx_fraction) for s in sweep
        ] == [
            ("binpack", 0.0),
            ("binpack", 1.0),
            ("spread", 0.0),
            ("spread", 1.0),
        ]

    def test_variations_cross_grid(self):
        sweep = Sweep(
            Scenario(trace="borg-synth:jobs=10"),
            variations=[{"seed": 1}, {"seed": 2}],
            grid={"sgx_fraction": (0.0, 1.0)},
        )
        assert [(s.seed, s.sgx_fraction) for s in sweep] == [
            (1, 0.0),
            (1, 1.0),
            (2, 0.0),
            (2, 1.0),
        ]

    def test_no_axes_is_the_base_alone(self):
        base = Scenario(trace="borg-synth:jobs=10")
        sweep = Sweep(base)
        assert list(sweep) == [base]

    def test_unknown_field_dies_at_construction(self):
        with pytest.raises(SimulationError, match="warp"):
            Sweep(Scenario(trace="borg-synth:jobs=10"), grid={"warp": (1,)})

    def test_invalid_value_dies_at_construction(self):
        with pytest.raises(SimulationError, match="sgx_fraction"):
            Sweep(
                Scenario(trace="borg-synth:jobs=10"),
                grid={"sgx_fraction": (0.0, 3.0)},
            )

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "four"])
    def test_bad_workers_rejected(self, workers):
        sweep = Sweep(Scenario(trace="borg-synth:jobs=10"))
        with pytest.raises(SimulationError, match="workers"):
            sweep.run(workers=workers)


@pytest.fixture(scope="module")
def tiny_sweep():
    trace = synthetic_scaled_trace(seed=7, n_jobs=24, overallocators=2)
    return Sweep(
        Scenario(trace=trace, seed=1),
        grid={
            "scheduler": ("binpack", "spread"),
            "sgx_fraction": (0.0, 1.0),
        },
        name="tiny",
    )


class TestSweepExecution:
    @pytest.fixture(scope="class")
    def serial(self, tiny_sweep):
        return tiny_sweep.run()

    def test_results_keep_scenario_order(self, tiny_sweep, serial):
        assert [r.scenario for r in serial] == list(tiny_sweep)

    def test_parallel_is_bit_for_bit_serial(self, tiny_sweep, serial):
        parallel = tiny_sweep.run(workers=4)
        assert parallel.signatures() == serial.signatures()
        assert parallel.to_rows() == serial.to_rows()

    def test_more_workers_than_scenarios(self, tiny_sweep, serial):
        oversized = tiny_sweep.run(workers=16)
        assert oversized.signatures() == serial.signatures()

    def test_to_rows_one_per_scenario(self, serial):
        rows = serial.to_rows()
        assert len(rows) == 4
        assert all(row["submitted"] == 24 for row in rows)

    def test_to_json_schema(self, serial):
        payload = json.loads(serial.to_json())
        assert payload["schema"] == SWEEP_SCHEMA
        assert payload["sweep"] == "tiny"
        assert payload["count"] == 4
        assert len(payload["results"]) == 4

    def test_to_table_has_header_and_rows(self, serial):
        lines = serial.to_table().splitlines()
        assert "scenario" in lines[0]
        assert len(lines) == 2 + 4  # header, rule, one line per run

    def test_serial_fallback_without_fork(
        self, tiny_sweep, serial, monkeypatch
    ):
        """Spawn-only platforms degrade to serial, not to breakage."""
        import repro.api.sweep as sweep_module

        def no_fork(method=None):
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(
            sweep_module.multiprocessing, "get_context", no_fork
        )
        with pytest.warns(RuntimeWarning, match="fork"):
            fallback = tiny_sweep.run(workers=4)
        assert fallback.signatures() == serial.signatures()

    def test_plugin_scheduler_survives_the_pool(self, tiny_sweep):
        """Runtime-registered strategies resolve inside fork workers."""
        from repro.registry import SCHEDULERS, register_scheduler
        from repro.scheduler.binpack import BinpackScheduler

        @register_scheduler("test-pool-plugin")
        class PoolPluginScheduler(BinpackScheduler):
            name = "test-pool-plugin"

        try:
            sweep = Sweep(
                tiny_sweep.base.with_(scheduler="test-pool-plugin"),
                grid={"sgx_fraction": (0.0, 1.0)},
            )
            parallel = sweep.run(workers=2)
            assert parallel.signatures() == sweep.run().signatures()
        finally:
            SCHEDULERS.unregister("test-pool-plugin")


class TestEquivalenceSeeded:
    """Hypothesis-seeded: parallel sweep == serial == direct engine."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**16),
        run_seed=st.integers(min_value=0, max_value=2**16),
        sgx_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        scheduler=st.sampled_from(["binpack", "spread", "kube-default"]),
    )
    def test_three_ways_bit_for_bit(
        self, trace_seed, run_seed, sgx_fraction, scheduler
    ):
        trace = synthetic_scaled_trace(
            seed=trace_seed, n_jobs=12, overallocators=1
        )
        base = Scenario(
            trace=trace,
            scheduler=scheduler,
            sgx_fraction=sgx_fraction,
            seed=run_seed,
        )
        sweep = Sweep(
            base, grid={"event_driven": (False, True)}, name="hyp"
        )
        serial = sweep.run(workers=1)
        parallel = sweep.run(workers=4)
        assert serial.signatures() == parallel.signatures()

        # The engine entry, called directly, replays the identical
        # experiment.
        direct = run_replay(base)
        direct_signature = tuple(
            (
                pod.name,
                pod.phase.value,
                pod.submitted_at,
                pod.bound_at,
                pod.started_at,
                pod.finished_at,
                pod.node_name,
            )
            for pod in direct.metrics.pods
        )
        periodic = serial[0]
        assert periodic.pod_signature() == direct_signature
        assert (
            periodic.metrics.makespan_seconds
            == direct.metrics.makespan_seconds
        )
        # Event-driven composes with the sweep and stays equivalent.
        event_driven = serial[1]
        assert (
            event_driven.pod_signature() == periodic.pod_signature()
        )
