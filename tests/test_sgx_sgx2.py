"""SGX 2 (EDMM): dynamic enclaves and the ported limit enforcement."""

import pytest

from repro.errors import (
    DriverError,
    EnclaveLimitExceededError,
    EnclaveStateError,
    EpcExhaustedError,
    SgxError,
)
from repro.sgx.aesm import AesmService
from repro.sgx.driver import SgxDriver
from repro.sgx.epc import EnclavePageCache
from repro.sgx.sgx2 import Sgx2Enclave
from repro.units import mib, pages

POD = "/kubepods/burstable/podsgx2"


@pytest.fixture
def epc() -> EnclavePageCache:
    return EnclavePageCache()


@pytest.fixture
def driver(epc) -> SgxDriver:
    driver = SgxDriver(epc, sgx_version=2)
    driver.register_process(1, POD)
    return driver


@pytest.fixture
def aesm() -> AesmService:
    service = AesmService()
    service.start()
    return service


def initialized_dynamic_enclave(driver, aesm, size=mib(8)):
    enclave = driver.create_enclave(1, size_bytes=size, dynamic=True)
    driver.initialize_enclave(1, enclave, aesm)
    return enclave


class TestEpcResizePrimitives:
    def test_grow_allocation(self, epc):
        alloc = epc.allocate("pod", 100)
        grown = epc.grow_allocation(alloc, 50)
        assert grown.pages == 150
        assert epc.allocated_pages == 150

    def test_grow_respects_strict_capacity(self, epc):
        alloc = epc.allocate("pod", epc.total_pages)
        with pytest.raises(EpcExhaustedError):
            epc.grow_allocation(alloc, 1)

    def test_grow_overcommit_pages_out(self):
        epc = EnclavePageCache(allow_overcommit=True)
        alloc = epc.allocate("pod", epc.total_pages)
        grown = epc.grow_allocation(alloc, 100)
        assert grown.pages == epc.total_pages + 100
        assert epc.overcommitted
        assert epc.allocated_pages == epc.total_pages + 100

    def test_shrink_allocation(self, epc):
        alloc = epc.allocate("pod", 100)
        shrunk = epc.shrink_allocation(alloc, 40)
        assert shrunk.pages == 60
        assert epc.allocated_pages == 60

    def test_shrink_to_zero_rejected(self, epc):
        alloc = epc.allocate("pod", 100)
        with pytest.raises(SgxError, match="destroy"):
            epc.shrink_allocation(alloc, 100)

    def test_resize_dead_allocation_rejected(self, epc):
        alloc = epc.allocate("pod", 100)
        epc.release(alloc)
        with pytest.raises(SgxError):
            epc.grow_allocation(alloc, 1)
        with pytest.raises(SgxError):
            epc.shrink_allocation(alloc, 1)


class TestSgx2Enclave:
    def test_grow_after_init(self, driver, aesm, epc):
        enclave = initialized_dynamic_enclave(driver, aesm, size=mib(8))
        added = enclave.grow(mib(4))
        assert added == pages(mib(4))
        assert enclave.pages == pages(mib(8)) + pages(mib(4))
        assert epc.allocated_pages == enclave.pages

    def test_grow_before_init_rejected(self, driver):
        enclave = driver.create_enclave(1, size_bytes=mib(8), dynamic=True)
        with pytest.raises(EnclaveStateError, match="initialized"):
            enclave.grow(mib(1))

    def test_shrink_returns_pages(self, driver, aesm, epc):
        enclave = initialized_dynamic_enclave(driver, aesm, size=mib(8))
        enclave.shrink(mib(4))
        assert epc.allocated_pages == pages(mib(4))

    def test_sgx1_enclave_still_cannot_grow(self, aesm):
        epc = EnclavePageCache()
        driver = SgxDriver(epc, sgx_version=1)
        driver.register_process(1, POD)
        enclave = driver.create_enclave(1, size_bytes=mib(8))
        driver.initialize_enclave(1, enclave, aesm)
        with pytest.raises(EnclaveStateError, match="SGX 2"):
            enclave.grow(mib(1))

    def test_destroy_releases_grown_pages(self, driver, aesm, epc):
        enclave = initialized_dynamic_enclave(driver, aesm, size=mib(8))
        enclave.grow(mib(16))
        enclave.destroy()
        assert epc.allocated_pages == 0


class TestDriverSgx2Gating:
    def test_dynamic_enclave_rejected_on_sgx1(self):
        driver = SgxDriver(EnclavePageCache(), sgx_version=1)
        driver.register_process(1, POD)
        with pytest.raises(DriverError, match="SGX 1 mode"):
            driver.create_enclave(1, size_bytes=mib(8), dynamic=True)

    def test_bad_version_rejected(self):
        with pytest.raises(DriverError):
            SgxDriver(EnclavePageCache(), sgx_version=3)

    def test_grow_requires_dynamic_enclave(self, driver, aesm):
        static = driver.create_enclave(1, size_bytes=mib(8))
        driver.initialize_enclave(1, static, aesm)
        with pytest.raises(DriverError, match="dynamic"):
            driver.grow_enclave(1, static, mib(1))

    def test_shrink_requires_dynamic_enclave(self, driver, aesm):
        static = driver.create_enclave(1, size_bytes=mib(8))
        driver.initialize_enclave(1, static, aesm)
        with pytest.raises(DriverError, match="dynamic"):
            driver.shrink_enclave(1, static, mib(1))

    def test_foreign_enclave_rejected(self, driver, aesm):
        driver.register_process(2, "/kubepods/burstable/podother")
        enclave = initialized_dynamic_enclave(driver, aesm)
        with pytest.raises(DriverError, match="belong"):
            driver.grow_enclave(2, enclave, mib(1))


class TestPortedLimitEnforcement:
    """The paper's Sec. VI-G port: limits gate dynamic growth too."""

    def test_growth_within_limit_allowed(self, driver, aesm):
        driver.set_pod_limit(POD, pages(mib(16)))
        enclave = initialized_dynamic_enclave(driver, aesm, size=mib(8))
        assert driver.grow_enclave(1, enclave, mib(4)) == pages(mib(4))

    def test_growth_past_limit_denied(self, driver, aesm):
        driver.set_pod_limit(POD, pages(mib(10)))
        enclave = initialized_dynamic_enclave(driver, aesm, size=mib(8))
        with pytest.raises(EnclaveLimitExceededError):
            driver.grow_enclave(1, enclave, mib(4))
        # The denied growth left the enclave untouched.
        assert enclave.pages == pages(mib(8))

    def test_shrink_then_grow_within_limit(self, driver, aesm):
        driver.set_pod_limit(POD, pages(mib(10)))
        enclave = initialized_dynamic_enclave(driver, aesm, size=mib(8))
        driver.shrink_enclave(1, enclave, mib(6))
        assert driver.grow_enclave(1, enclave, mib(8)) == pages(mib(8))

    def test_no_enforcement_no_denial(self, aesm):
        driver = SgxDriver(
            EnclavePageCache(), enforce_limits=False, sgx_version=2
        )
        driver.register_process(1, POD)
        driver.set_pod_limit(POD, 1)
        enclave = initialized_dynamic_enclave(driver, aesm, size=mib(8))
        driver.grow_enclave(1, enclave, mib(4))  # no denial

    def test_limit_counts_all_pod_enclaves(self, driver, aesm):
        driver.set_pod_limit(POD, pages(mib(20)))
        first = initialized_dynamic_enclave(driver, aesm, size=mib(8))
        initialized_dynamic_enclave(driver, aesm, size=mib(8))
        with pytest.raises(EnclaveLimitExceededError):
            driver.grow_enclave(1, first, mib(8))


class TestIsolation:
    def test_sgx2_enclave_is_an_enclave(self, driver, aesm):
        enclave = initialized_dynamic_enclave(driver, aesm)
        assert isinstance(enclave, Sgx2Enclave)
        assert enclave.ecall("f").startswith("ok:")
