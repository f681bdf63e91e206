"""Package-level API surface and error hierarchy."""

import pytest

import repro
from repro import errors


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "19.0.0"

    def test_quickstart_from_docstring_works(self):
        from repro import (
            BinpackScheduler,
            Orchestrator,
            make_pod_spec,
            paper_cluster,
        )
        from repro.units import mib

        orchestrator = Orchestrator(paper_cluster())
        pod = orchestrator.submit(
            make_pod_spec(
                "job", duration_seconds=60, declared_epc_bytes=mib(10)
            ),
            now=0.0,
        )
        orchestrator.scheduling_pass(BinpackScheduler(), now=1.0)
        assert pod.node_name.startswith("sgx-worker")


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        leaf_errors = [
            errors.EpcExhaustedError(1, 0),
            errors.EnclaveLimitExceededError("/pod", 2, 1),
            errors.EnclaveStateError("x"),
            errors.LaunchTokenError("x"),
            errors.DriverError("x"),
            errors.ResourceError("x"),
            errors.NodeError("x"),
            errors.CgroupError("x"),
            errors.PodSpecError("x"),
            errors.SchedulingError("x"),
            errors.QueryError("x"),
            errors.TraceError("x"),
            errors.SimulationError("x"),
        ]
        for error in leaf_errors:
            assert isinstance(error, errors.ReproError), error

    def test_sgx_errors_group(self):
        for cls in (
            errors.EpcExhaustedError,
            errors.EnclaveLimitExceededError,
            errors.EnclaveStateError,
            errors.LaunchTokenError,
            errors.DriverError,
        ):
            assert issubclass(cls, errors.SgxError)

    def test_structured_error_payloads(self):
        exhausted = errors.EpcExhaustedError(100, 5)
        assert exhausted.requested_pages == 100
        assert exhausted.free_pages == 5
        limit = errors.EnclaveLimitExceededError("/pod", 10, 4)
        assert limit.cgroup_path == "/pod"
        assert limit.owned_pages == 10
        assert limit.limit_pages == 4

    def test_one_except_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.TraceError("anything")
