"""Resource vector arithmetic and comparisons."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.errors import ResourceError
from repro.units import gib


def vec(cpu=0, mem=0, epc=0) -> ResourceVector:
    return ResourceVector(
        cpu_millicores=cpu, memory_bytes=mem, epc_pages=epc
    )


class TestConstruction:
    def test_zero(self):
        zero = ResourceVector.zero()
        assert zero == vec()

    def test_non_int_rejected(self):
        with pytest.raises(ResourceError):
            ResourceVector(cpu_millicores=1.5)  # type: ignore[arg-type]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            vec().cpu_millicores = 5  # type: ignore[misc]


class TestArithmetic:
    def test_add(self):
        assert vec(1, 2, 3) + vec(4, 5, 6) == vec(5, 7, 9)

    def test_sub(self):
        assert vec(5, 7, 9) - vec(4, 5, 6) == vec(1, 2, 3)

    def test_sub_can_go_negative(self):
        result = vec(1) - vec(2)
        assert result.cpu_millicores == -1
        assert not result.is_nonnegative

    def test_clamp_floor(self):
        assert (vec(1) - vec(2)).clamp_floor() == vec(0)

    def test_addition_identity(self):
        v = vec(3, 4, 5)
        assert v + ResourceVector.zero() == v


class TestComparisons:
    def test_fits_within_true(self):
        assert vec(1, 1, 1).fits_within(vec(1, 1, 1))

    def test_fits_within_false_single_dimension(self):
        assert not vec(0, 2, 0).fits_within(vec(5, 1, 5))

    def test_requires_sgx(self):
        assert vec(epc=1).requires_sgx
        assert not vec(mem=gib(1)).requires_sgx


class TestUtilization:
    def test_repr_is_readable(self):
        assert "MiB" in repr(vec(epc=256))
