"""Scheduler/workload registries: round-trips and fail-fast errors."""

import inspect

import pytest

from repro.api import Scenario
from repro.errors import RegistryError
from repro.orchestrator.api import make_pod_spec
from repro.registry import (
    PREEMPTION_POLICIES,
    SCHEDULERS,
    TRACES,
    WORKLOADS,
    Registry,
    register_scheduler,
    register_workload,
    scheduler_names,
    workload_names,
)
from repro.scheduler.base import Scheduler
from repro.scheduler.kube_default import KubeDefaultScheduler
from repro.units import gib
from repro.workload.stress import SubmissionPlan


@pytest.fixture
def scratch():
    """A throwaway registry (the globals stay pristine)."""
    return Registry("thing")


class TestRegistry:
    def test_round_trip(self, scratch):
        @scratch.register("x")
        def factory():
            return 41

        assert "x" in scratch
        assert scratch.get("x") is factory
        assert scratch.get("x")() == 41

    def test_decorator_returns_factory_unchanged(self, scratch):
        def factory():
            pass

        assert scratch.register("x")(factory) is factory

    def test_duplicate_name_rejected(self, scratch):
        scratch.register("x")(lambda: None)
        with pytest.raises(RegistryError, match="already registered"):
            scratch.register("x")(lambda: None)

    def test_unknown_name_lists_known(self, scratch):
        scratch.register("alpha")(lambda: None)
        scratch.register("beta")(lambda: None)
        with pytest.raises(RegistryError) as excinfo:
            scratch.get("gamma")
        assert "unknown thing 'gamma'" in str(excinfo.value)
        assert "alpha, beta" in str(excinfo.value)

    def test_empty_registry_error_message(self, scratch):
        with pytest.raises(RegistryError, match="<none>"):
            scratch.get("x")

    def test_invalid_name_rejected(self, scratch):
        with pytest.raises(RegistryError):
            scratch.register("")
        with pytest.raises(RegistryError):
            scratch.register(None)

    def test_unregister(self, scratch):
        scratch.register("x")(lambda: None)
        scratch.unregister("x")
        assert "x" not in scratch
        with pytest.raises(RegistryError):
            scratch.unregister("x")

    def test_names_sorted_and_iterable(self, scratch):
        scratch.register("b")(lambda: None)
        scratch.register("a")(lambda: None)
        assert scratch.names() == ("a", "b")
        assert list(scratch) == ["a", "b"]
        assert len(scratch) == 2


class TestBuiltins:
    def test_builtin_schedulers_registered(self):
        assert set(scheduler_names()) >= {
            "binpack",
            "spread",
            "kube-default",
        }

    def test_builtin_workloads_registered(self):
        assert set(workload_names()) >= {
            "stress",
            "hybrid",
            "malicious",
        }

    def test_kube_default_drops_sgx_aware_knobs(self):
        # The baseline is its class: built with no arguments, it judges
        # feasibility on declared requests only, and nothing a scenario
        # sets can turn it into a measured-usage scheduler.
        factory = SCHEDULERS.get("kube-default")
        assert factory is KubeDefaultScheduler
        assert factory().use_measured is False
        assert SCHEDULERS.get("binpack")().use_measured is True


def unbindable(registry, *args, **kwargs):
    """``name: error`` for each factory ``(*args, **kwargs)`` cannot
    call."""
    failures = []
    for name in registry.names():
        try:
            inspect.signature(registry.get(name)).bind(*args, **kwargs)
        except TypeError as exc:
            failures.append(f"{name}: {exc}")
    return failures


class TestRegisteredFactories:
    """Every registered factory accepts the call its registry makes.

    ``repro_modules`` imports the whole package first, so every
    ``@register_*`` decorator has run and a duplicate name has raised.
    """

    def test_every_scheduler_builds_a_scenario(self, repro_modules):
        for name in SCHEDULERS.names():
            Scenario(scheduler=name)
        assert unbindable(SCHEDULERS) == []

    def test_every_preemption_policy_builds_a_scenario(
        self, repro_modules
    ):
        for name in PREEMPTION_POLICIES.names():
            Scenario(preemption_policy=name)
        assert unbindable(PREEMPTION_POLICIES) == []

    def test_every_workload_binds_cluster_and_trace(self, repro_modules):
        for name in WORKLOADS.names():
            Scenario(workload=name)
        assert unbindable(
            WORKLOADS, "cluster", "trace",
            sgx_fraction=0.5, seed=1,
        ) == []

    def test_every_trace_adapter_binds_spec_and_seed(self, repro_modules):
        assert unbindable(TRACES, spec="spec", seed=1) == []


class TestPluginScheduler:
    """A ~10-line strategy plugs in and replays end to end."""

    def test_plugin_round_trip(self, small_trace):
        @register_scheduler("test-last-fit")
        class LastFitScheduler(Scheduler):
            name = "test-last-fit"

            def _select(self, pod, candidates, views):
                for view in sorted(
                    candidates, key=lambda v: v.name, reverse=True
                ):
                    requests = pod.spec.resources.requests
                    if requests.fits_within(view.available):
                        return view
                return None

        try:
            result = Scenario(
                scheduler="test-last-fit",
                trace=small_trace,
                sgx_fraction=0.5,
                seed=1,
            ).run()
            assert len(result.metrics.succeeded) == 40
        finally:
            SCHEDULERS.unregister("test-last-fit")
        with pytest.raises(Exception, match="test-last-fit"):
            Scenario(scheduler="test-last-fit")


class TestPluginWorkload:
    def test_plugin_round_trip(self):
        @register_workload("test-two-pods")
        def two_pods(
            cluster,
            trace,
            *,
            sgx_fraction=0.0,
            seed=0,
            duration=30.0,
        ):
            plans = []
            for index in range(2):
                spec = make_pod_spec(
                    f"two-{index}",
                    duration_seconds=duration,
                    declared_memory_bytes=gib(1),
                )
                plans.append(
                    SubmissionPlan(
                        submit_time=float(index),
                        spec=spec,
                        job_id=index,
                        is_sgx=False,
                    )
                )
            return plans

        try:
            result = Scenario(
                workload="test-two-pods",
                workload_options={"duration": 45.0},
                trace="borg-synth:jobs=1",  # built but unused by the plugin
            ).run()
            assert len(result.metrics.pods) == 2
            assert len(result.metrics.succeeded) == 2
            turnarounds = result.metrics.turnaround_times()
            assert all(t >= 45.0 for t in turnarounds)
        finally:
            WORKLOADS.unregister("test-two-pods")

    def test_malicious_workload_standalone(self):
        result = Scenario(
            workload="malicious",
            workload_options={
                "epc_occupancy": 0.25,
                "duration_seconds": 120.0,
            },
            trace="borg-synth:jobs=1",
        ).run()
        # One squatter per SGX node on the paper's 2-node inventory.
        assert len(result.metrics.pods) == 2
        assert all(
            pod.spec.labels.get("origin") == "malicious"
            for pod in result.metrics.pods
        )
