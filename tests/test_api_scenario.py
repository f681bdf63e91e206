"""``Scenario``: validation, immutability, and running it."""

import dataclasses
import json
import math

import pytest

from repro.api import RUN_SCHEMA, Scenario, Sweep
from repro.cli import main
from repro.errors import SimulationError
from repro.workload.malicious import MaliciousConfig

#: The scheduling-discipline knobs 12.0.0 removed: the paper's
#: discipline is the only one a scenario runs.
REMOVED_DISCIPLINE_FIELDS = (
    "use_measured",
    "strict_fcfs",
    "preserve_sgx_nodes",
    "scheduler_options",
    "requeue_backoff_seconds",
    "scheduler_period",
    "metrics_period",
)

#: The knobs 16.0.0 removed with node churn and migration: a replay's
#: cluster is fixed, and priority tiers are the built-in ones.
REMOVED_FIXED_CLUSTER_FIELDS = (
    "rebalance_period",
    "node_failures",
    "priority_classes",
)


class TestValidation:
    """Bad scenarios die at build time, with actionable messages."""

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, 2.0])
    def test_sgx_fraction_range(self, fraction):
        with pytest.raises(SimulationError, match="sgx_fraction"):
            Scenario(sgx_fraction=fraction)

    def test_unknown_scheduler_lists_known(self):
        with pytest.raises(SimulationError) as excinfo:
            Scenario(scheduler="wat")
        message = str(excinfo.value)
        assert "unknown scheduler 'wat'" in message
        for known in ("binpack", "kube-default", "spread"):
            assert known in message

    def test_unknown_workload_lists_known(self):
        with pytest.raises(SimulationError) as excinfo:
            Scenario(workload="wat")
        assert "unknown workload 'wat'" in str(excinfo.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epc_total_bytes": 0},
            {"max_sim_seconds": 0.0},
            {"standard_workers": 0},
            {"sgx_workers": -2},
            # Integer knobs: floats and bools die here, not mid-replay
            # in range() or numpy's SeedSequence.
            {"standard_workers": 2.5},
            {"sgx_workers": True},
            {"seed": 1.5},
            {"seed": True},
            {"preemption_priority_threshold": 1.5},
            {"observe": "ledger.jsonl"},
            # Registry names and the priority threshold.
            {"preemption_policy": "nope"},
            {"preemption_priority_threshold": "100"},
        ],
    )
    def test_out_of_range_knobs(self, kwargs):
        with pytest.raises(SimulationError):
            Scenario(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["epc_total_bytes", "max_sim_seconds"]
    )
    def test_non_finite_knobs_rejected(self, field, value):
        # Every comparison with NaN is False, so a lone ``value <= 0``
        # check accepts it; a NaN period silently changes the replay.
        with pytest.raises(SimulationError, match=field):
            Scenario(**{field: value})

    @pytest.mark.parametrize(
        "knob", ["trace_seed", "trace_jobs", "trace_overallocators"]
    )
    def test_removed_trace_knobs_raise_type_error(self, knob):
        with pytest.raises(TypeError, match=knob):
            Scenario(**{knob: 5})

    def test_plugin_without_standard_knobs_dies_at_build(self):
        # The engine builds every strategy with no arguments; a plugin
        # whose constructor needs one must die here, not with a bare
        # TypeError inside a pool worker.
        from repro.registry import SCHEDULERS, register_scheduler

        @register_scheduler("test-bespoke")
        class Bespoke:
            def __init__(self, flavour):
                self.flavour = flavour

        try:
            with pytest.raises(
                SimulationError,
                match="'test-bespoke' cannot be built with no arguments",
            ):
                Scenario(scheduler="test-bespoke")
        finally:
            SCHEDULERS.unregister("test-bespoke")

    def test_workload_needing_an_option_dies_at_build(self):
        # The workload check binds the engine's whole call, so a
        # required option the scenario does not give dies here too.
        from repro.registry import WORKLOADS, register_workload

        @register_workload("test-needy")
        def needy(cluster, trace, *, sgx_fraction=0.0, seed=0, size):
            return []

        try:
            with pytest.raises(SimulationError, match="'size'"):
                Scenario(workload="test-needy")
            Scenario(workload="test-needy", workload_options={"size": 3})
        finally:
            WORKLOADS.unregister("test-needy")

    def test_option_shadowing_a_standard_knob_rejected(self):
        with pytest.raises(SimulationError, match="shadow.*seed"):
            Scenario(workload_options={"seed": 3})

    @pytest.mark.parametrize(
        "field", REMOVED_DISCIPLINE_FIELDS + REMOVED_FIXED_CLUSTER_FIELDS
    )
    def test_removed_discipline_knobs_die_with_the_valid_fields(
        self, field, capsys
    ):
        # The fixed-cluster knobs ride along: every removed field is
        # unknown to with_, Sweep and ``repro sweep`` (exit 2) alike.
        expected = f"unknown scenario field(s) {field}; valid: "
        for build in (
            lambda: Scenario().with_(**{field: True}),
            lambda: Sweep(Scenario(), grid={field: (True,)}),
        ):
            with pytest.raises(SimulationError) as excinfo:
                build()
            assert expected in str(excinfo.value)
            assert "sgx_fraction" in str(excinfo.value)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--jobs", "10", "--grid", f"{field}=true"])
        assert excinfo.value.code == 2
        assert expected in capsys.readouterr().err

    def test_unknown_workload_option_dies_at_build(self):
        # hybrid_plans has a closed keyword signature, so a typo'd
        # option is caught by the construct-time signature check.
        with pytest.raises(SimulationError, match="workload_options"):
            Scenario(
                workload="hybrid", workload_options={"n_jbos": 3}
            )

    def test_malicious_workload_plus_side_deployment_rejected(self):
        with pytest.raises(SimulationError, match="squatters"):
            Scenario(
                workload="malicious",
                malicious=MaliciousConfig(epc_occupancy=0.5),
            )

    def test_with_rejects_unknown_fields(self):
        with pytest.raises(SimulationError) as excinfo:
            Scenario().with_(warp_factor=9)
        assert "warp_factor" in str(excinfo.value)
        assert "sgx_fraction" in str(excinfo.value)  # valid fields listed

    def test_with_revalidates(self):
        with pytest.raises(SimulationError):
            Scenario().with_(sgx_fraction=7.0)

    def test_immutability(self):
        scenario = Scenario()
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.sgx_fraction = 0.5

    def test_option_mappings_normalised(self):
        from_dict = Scenario(workload_options={"b": 1, "a": 2})
        from_items = Scenario(workload_options=(("a", 2), ("b", 1)))
        assert from_dict.workload_options == (("a", 2), ("b", 1))
        assert from_dict == from_items
        assert hash(from_dict) == hash(from_items)


class TestDerived:
    def test_label_defaults_and_override(self):
        assert (
            Scenario(scheduler="spread", sgx_fraction=0.5, seed=3).label
            == "spread/stress/sgx=0.5/seed=3"
        )
        assert Scenario(name="my-run").label == "my-run"

    def test_build_trace_scales_overallocators(self):
        trace = Scenario(trace="borg-synth:seed=7,jobs=60").build_trace()
        assert len(trace) == 60
        assert trace.overallocator_count == round(60 * 44 / 663)
        pinned = Scenario(
            trace="borg-synth:seed=7,jobs=60,overallocators=9"
        ).build_trace()
        assert pinned.overallocator_count == 9

    def test_explicit_trace_returned_as_is(self, small_trace):
        scenario = Scenario(trace=small_trace)
        assert scenario.build_trace() is small_trace


class TestRun:
    @pytest.fixture(scope="class")
    def result(self, request):
        scenario = Scenario(
            trace="borg-synth:seed=7,jobs=40,overallocators=4",
            sgx_fraction=0.5,
            seed=1,
        )
        return scenario.run()

    def test_all_jobs_complete(self, result):
        assert len(result.metrics.pods) == 40
        assert len(result.metrics.succeeded) == 40
        assert result.passes_executed > 0

    def test_to_row_summarises(self, result):
        row = result.to_row()
        assert row["scheduler"] == "binpack"
        assert row["workload"] == "stress"
        assert row["sgx_fraction"] == 0.5
        assert row["submitted"] == 40
        assert row["completed"] == 40
        assert row["failed"] == 0
        assert row["makespan_s"] == round(
            result.metrics.makespan_seconds, 3
        )
        assert row["passes_executed"] == result.passes_executed

    def test_to_json_schema(self, result):
        payload = json.loads(result.to_json())
        assert payload["schema"] == RUN_SCHEMA
        assert payload["completed"] == 40

    def test_to_table_contains_every_header(self, result):
        table = result.to_table()
        for header in result.to_row():
            assert header in table

    def test_result_is_picklable(self, result):
        import pickle

        clone = pickle.loads(pickle.dumps(result))
        assert clone.signature() == result.signature()
        assert clone.scenario == result.scenario

    def test_rerun_is_deterministic(self, result):
        again = result.scenario.run()
        assert again.signature() == result.signature()
