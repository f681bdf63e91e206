"""The patched isgx driver: counters, ioctls, limit enforcement."""

import pytest

from repro.errors import (
    DriverError,
    EnclaveLimitExceededError,
    EpcExhaustedError,
)
from repro.sgx.aesm import AesmService
from repro.sgx.driver import (
    IOCTL_GET_EPC_USAGE,
    IOCTL_SET_POD_LIMIT,
    PARAM_FREE_PAGES,
    PARAM_TOTAL_PAGES,
    SgxDriver,
)
from repro.sgx.epc import EnclavePageCache
from repro.units import mib, pages

POD = "/kubepods/burstable/pod42"


@pytest.fixture
def epc() -> EnclavePageCache:
    return EnclavePageCache()


@pytest.fixture
def driver(epc) -> SgxDriver:
    return SgxDriver(epc)


@pytest.fixture
def aesm() -> AesmService:
    service = AesmService()
    service.start()
    return service


class TestModuleParameters:
    def test_total_pages_parameter(self, driver):
        assert driver.read_parameter(PARAM_TOTAL_PAGES) == 23_936

    def test_free_pages_tracks_allocations(self, driver, aesm):
        driver.register_process(1, POD)
        driver.create_enclave(1, size_bytes=mib(4))
        expected = 23_936 - pages(mib(4))
        assert driver.read_parameter(PARAM_FREE_PAGES) == expected

    def test_unknown_parameter_rejected(self, driver):
        with pytest.raises(DriverError):
            driver.read_parameter("sgx_bogus")


class TestIoctls:
    def test_get_epc_usage_ioctl(self, driver):
        driver.register_process(1, POD)
        driver.create_enclave(1, size_bytes=mib(1))
        assert driver.ioctl(IOCTL_GET_EPC_USAGE, pid=1) == pages(mib(1))

    def test_get_epc_usage_unknown_pid_is_zero(self, driver):
        assert driver.ioctl(IOCTL_GET_EPC_USAGE, pid=999) == 0

    def test_set_pod_limit_ioctl(self, driver):
        assert driver.ioctl(
            IOCTL_SET_POD_LIMIT, cgroup_path=POD, limit_pages=100
        ) == 0
        assert driver.pod_limit(POD) == 100

    def test_limit_settable_only_once(self, driver):
        driver.set_pod_limit(POD, 100)
        with pytest.raises(DriverError, match="settable once"):
            driver.set_pod_limit(POD, 200)

    def test_negative_limit_rejected(self, driver):
        with pytest.raises(DriverError):
            driver.set_pod_limit(POD, -1)

    def test_unknown_ioctl_rejected(self, driver):
        with pytest.raises(DriverError):
            driver.ioctl(0xFF)

    def test_clear_pod_allows_reuse(self, driver):
        driver.set_pod_limit(POD, 100)
        driver.clear_pod(POD)
        assert driver.pod_limit(POD) is None
        driver.set_pod_limit(POD, 200)  # fresh pod, same path


class TestLimitEnforcement:
    def test_enclave_within_limit_initializes(self, driver, aesm):
        driver.set_pod_limit(POD, pages(mib(10)))
        driver.register_process(1, POD)
        enclave = driver.create_enclave(1, size_bytes=mib(5))
        driver.initialize_enclave(1, enclave, aesm)

    def test_enclave_over_limit_denied_and_destroyed(self, driver, aesm, epc):
        driver.set_pod_limit(POD, pages(mib(1)))
        driver.register_process(1, POD)
        enclave = driver.create_enclave(1, size_bytes=mib(5))
        with pytest.raises(EnclaveLimitExceededError) as excinfo:
            driver.initialize_enclave(1, enclave, aesm)
        assert excinfo.value.cgroup_path == POD
        # Denial frees the pages, as the kernel would.
        assert epc.allocated_pages == 0

    def test_limit_counts_whole_pod_not_process(self, driver, aesm):
        # Two processes in the same cgroup share the pod's limit.
        driver.set_pod_limit(POD, pages(mib(6)))
        driver.register_process(1, POD)
        driver.register_process(2, POD)
        first = driver.create_enclave(1, size_bytes=mib(4))
        driver.initialize_enclave(1, first, aesm)
        second = driver.create_enclave(2, size_bytes=mib(4))
        with pytest.raises(EnclaveLimitExceededError):
            driver.initialize_enclave(2, second, aesm)

    def test_no_limit_set_means_no_denial(self, driver, aesm):
        driver.register_process(1, POD)
        enclave = driver.create_enclave(1, size_bytes=mib(20))
        driver.initialize_enclave(1, enclave, aesm)

    def test_enforcement_disabled_skips_check(self, epc, aesm):
        driver = SgxDriver(epc, enforce_limits=False)
        driver.set_pod_limit(POD, 1)
        driver.register_process(1, POD)
        enclave = driver.create_enclave(1, size_bytes=mib(5))
        driver.initialize_enclave(1, enclave, aesm)  # no denial


class TestProcessLifecycle:
    def test_double_registration_rejected(self, driver):
        driver.register_process(1, POD)
        with pytest.raises(DriverError):
            driver.register_process(1, POD)

    def test_create_enclave_requires_registration(self, driver):
        with pytest.raises(DriverError):
            driver.create_enclave(1, size_bytes=mib(1))

    def test_unregister_destroys_enclaves(self, driver, epc):
        driver.register_process(1, POD)
        driver.create_enclave(1, size_bytes=mib(5))
        driver.unregister_process(1)
        assert epc.allocated_pages == 0

    def test_unregister_unknown_pid_is_noop(self, driver):
        driver.unregister_process(12345)

    def test_strict_epc_propagates_exhaustion(self, driver):
        driver.register_process(1, POD)
        with pytest.raises(EpcExhaustedError):
            driver.create_enclave(1, size_bytes=mib(200))

    def test_destroy_enclave_releases(self, driver, epc):
        driver.register_process(1, POD)
        enclave = driver.create_enclave(1, size_bytes=mib(3))
        driver.destroy_enclave(1, enclave)
        assert epc.allocated_pages == 0
        assert driver.process_epc_pages(1) == 0

    def test_initialize_foreign_enclave_rejected(self, driver, aesm):
        driver.register_process(1, POD)
        driver.register_process(2, "/kubepods/burstable/podother")
        enclave = driver.create_enclave(1, size_bytes=mib(1))
        with pytest.raises(DriverError):
            driver.initialize_enclave(2, enclave, aesm)
