"""Resource vectors: the quantities the scheduler reasons about.

A :class:`ResourceVector` carries the three dimensions relevant to the
paper's placement problem — CPU (millicores, as Kubernetes counts them),
standard memory (bytes) and EPC (pages).  Vectors support the arithmetic
the filter and scoring phases need: addition, subtraction, comparison
against a capacity, and utilisation ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ResourceError
from ..units import fmt_bytes, pages_to_mib


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """An immutable (cpu, memory, epc) triple.

    ``cpu_millicores`` uses Kubernetes' milli-CPU convention (1000 = one
    core).  ``memory_bytes`` is standard RAM.  ``epc_pages`` counts 4 KiB
    EPC pages; zero for standard jobs and non-SGX nodes.
    """

    cpu_millicores: int = 0
    memory_bytes: int = 0
    epc_pages: int = 0

    def __post_init__(self):
        for name in ("cpu_millicores", "memory_bytes", "epc_pages"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ResourceError(f"{name} must be an int, got {value!r}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "ResourceVector":
        """The additive identity."""
        return _ZERO

    @classmethod
    def _unchecked(
        cls, cpu_millicores: int, memory_bytes: int, epc_pages: int
    ) -> "ResourceVector":
        """Construct without validation: arithmetic on vectors that are
        already validated only ever combines ints, and the isinstance
        sweep costs real time in per-candidate scheduler loops."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "cpu_millicores", cpu_millicores)
        object.__setattr__(vector, "memory_bytes", memory_bytes)
        object.__setattr__(vector, "epc_pages", epc_pages)
        return vector

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector._unchecked(
            self.cpu_millicores + other.cpu_millicores,
            self.memory_bytes + other.memory_bytes,
            self.epc_pages + other.epc_pages,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector._unchecked(
            self.cpu_millicores - other.cpu_millicores,
            self.memory_bytes - other.memory_bytes,
            self.epc_pages - other.epc_pages,
        )

    def clamp_floor(self) -> "ResourceVector":
        """Clamp all negative components to zero."""
        return ResourceVector._unchecked(
            max(0, self.cpu_millicores),
            max(0, self.memory_bytes),
            max(0, self.epc_pages),
        )

    # -- comparisons -----------------------------------------------------

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """Component-wise ``<=``: can this demand fit in *capacity*?"""
        return (
            self.cpu_millicores <= capacity.cpu_millicores
            and self.memory_bytes <= capacity.memory_bytes
            and self.epc_pages <= capacity.epc_pages
        )

    @property
    def is_nonnegative(self) -> bool:
        """Whether no component is negative."""
        return (
            self.cpu_millicores >= 0
            and self.memory_bytes >= 0
            and self.epc_pages >= 0
        )

    @property
    def requires_sgx(self) -> bool:
        """Whether this demand can only be met by an SGX-capable node."""
        return self.epc_pages > 0

    # -- derived metrics ---------------------------------------------------

    def dominant_finite_utilization(
        self,
        capacity: "ResourceVector",
        extra: Optional["ResourceVector"] = None,
    ) -> float:
        """Max utilisation against *capacity*, skipping infinite ratios.

        The scheduler's node-load score: dimensions the node lacks
        (zero capacity under demand) are ignored rather than reported
        as ``inf``.  With *extra*, scores the hypothetical total
        ``self + extra`` — computed straight from the components, so
        per-candidate hot paths allocate no intermediate vector or
        dict.  Returns 0.0 when every dimension is ignored.
        """
        if extra is None:
            pairs = (
                (self.cpu_millicores, capacity.cpu_millicores),
                (self.memory_bytes, capacity.memory_bytes),
                (self.epc_pages, capacity.epc_pages),
            )
        else:
            pairs = (
                (self.cpu_millicores + extra.cpu_millicores,
                 capacity.cpu_millicores),
                (self.memory_bytes + extra.memory_bytes,
                 capacity.memory_bytes),
                (self.epc_pages + extra.epc_pages, capacity.epc_pages),
            )
        best = None
        for demand, limit in pairs:
            if limit == 0:
                if demand > 0:
                    continue  # dimension the node lacks: inf, ignored
                ratio = 0.0
            else:
                ratio = demand / limit
            if best is None or ratio > best:
                best = ratio
        return 0.0 if best is None else best

    def __repr__(self) -> str:
        return (
            f"ResourceVector(cpu={self.cpu_millicores}m, "
            f"mem={fmt_bytes(self.memory_bytes)}, "
            f"epc={self.epc_pages}p/{pages_to_mib(self.epc_pages):.1f}MiB)"
        )


_ZERO = ResourceVector(0, 0, 0)
