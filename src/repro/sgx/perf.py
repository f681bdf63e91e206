"""SGX performance model calibrated to the paper's measurements.

Section VI-D of the paper measures two startup costs for SGX processes
(Fig. 6) and reports the paging penalty for over-committed EPC:

* **PSW/AESM service startup** — "about 100 ms", independent of size,
  paid once per container because each container runs its own PSW.
* **Enclave memory allocation** — all enclave memory is committed at build
  time (for attestation measurement).  Allocation time shows "two clear
  linear trends": 1.6 ms/MiB up to the usable EPC (93.5 MiB), then a fixed
  ~200 ms delay plus 4.5 ms/MiB beyond the knee.
* **Paging slowdown** — over-committing the EPC costs "up to 1000x"
  (Section V-A, citing SCONE).  We model the slowdown as interpolating
  geometrically between 1x at ratio 1.0 and the maximum at a configurable
  saturation ratio, which reproduces the qualitative cliff without
  claiming precision the paper does not provide.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import (
    EPC_ALLOC_KNEE_PENALTY_SECONDS,
    EPC_ALLOC_SECONDS_PER_MIB_ABOVE,
    EPC_ALLOC_SECONDS_PER_MIB_BELOW,
    EPC_PAGING_MAX_SLOWDOWN,
    EPC_USABLE_BYTES,
    PSW_STARTUP_SECONDS,
    STANDARD_STARTUP_SECONDS,
)
from ..errors import SgxError
from ..units import bytes_to_mib


@dataclass(frozen=True)
class StartupBreakdown:
    """Decomposition of a process startup into its two measured phases."""

    psw_seconds: float
    allocation_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end startup latency."""
        return self.psw_seconds + self.allocation_seconds


class SgxPerfModel:
    """Latency model for SGX process startup and EPC paging.

    All parameters default to the paper's measured constants; experiments
    that sweep hypothetical hardware (Fig. 7's SGX 2 sizes) override
    ``usable_epc_bytes``.
    """

    def __init__(
        self,
        psw_startup_seconds: float = PSW_STARTUP_SECONDS,
        alloc_below_knee_s_per_mib: float = EPC_ALLOC_SECONDS_PER_MIB_BELOW,
        alloc_above_knee_s_per_mib: float = EPC_ALLOC_SECONDS_PER_MIB_ABOVE,
        knee_penalty_seconds: float = EPC_ALLOC_KNEE_PENALTY_SECONDS,
        usable_epc_bytes: int = EPC_USABLE_BYTES,
        paging_max_slowdown: float = EPC_PAGING_MAX_SLOWDOWN,
        paging_saturation_ratio: float = 2.0,
    ):
        if usable_epc_bytes <= 0:
            raise SgxError("usable EPC must be positive")
        if paging_max_slowdown < 1.0:
            raise SgxError("paging slowdown cannot be below 1x")
        if paging_saturation_ratio <= 1.0:
            raise SgxError("paging saturation ratio must exceed 1.0")
        self.psw_startup_seconds = psw_startup_seconds
        self.alloc_below = alloc_below_knee_s_per_mib
        self.alloc_above = alloc_above_knee_s_per_mib
        self.knee_penalty_seconds = knee_penalty_seconds
        self.usable_epc_bytes = usable_epc_bytes
        self.paging_max_slowdown = paging_max_slowdown
        self.paging_saturation_ratio = paging_saturation_ratio

    # -- startup --------------------------------------------------------

    def allocation_seconds(self, epc_bytes: int) -> float:
        """Time to commit *epc_bytes* of enclave memory at build time."""
        if epc_bytes < 0:
            raise SgxError(f"negative allocation: {epc_bytes}")
        below = min(epc_bytes, self.usable_epc_bytes)
        latency = bytes_to_mib(below) * self.alloc_below
        if epc_bytes > self.usable_epc_bytes:
            above = epc_bytes - self.usable_epc_bytes
            latency += (
                self.knee_penalty_seconds
                + bytes_to_mib(above) * self.alloc_above
            )
        return latency

    def startup(self, epc_bytes: int) -> StartupBreakdown:
        """Full startup breakdown for an SGX process of *epc_bytes*."""
        return StartupBreakdown(
            psw_seconds=self.psw_startup_seconds,
            allocation_seconds=self.allocation_seconds(epc_bytes),
        )

    def standard_startup(self) -> StartupBreakdown:
        """Startup for a standard (non-SGX) process: sub-millisecond."""
        return StartupBreakdown(
            psw_seconds=0.0,
            allocation_seconds=STANDARD_STARTUP_SECONDS,
        )

    # -- paging -----------------------------------------------------------

    def paging_slowdown(self, overcommit_ratio: float) -> float:
        """Execution slowdown factor at a given EPC over-commit ratio.

        Returns 1.0 at or below full occupancy, rising geometrically to
        ``paging_max_slowdown`` at ``paging_saturation_ratio`` and clamped
        there beyond it.
        """
        if overcommit_ratio <= 1.0:
            return 1.0
        span = self.paging_saturation_ratio - 1.0
        progress = min(1.0, (overcommit_ratio - 1.0) / span)
        # Geometric interpolation: smooth in log-space, matching the
        # "orders of magnitude" phrasing of the sources the paper cites.
        return self.paging_max_slowdown ** progress

