"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause,
while tests can assert on precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


# --------------------------------------------------------------------------
# SGX substrate
# --------------------------------------------------------------------------

class SgxError(ReproError):
    """Base class for SGX substrate failures."""


class EpcExhaustedError(SgxError):
    """An EPC allocation could not be satisfied in strict mode."""

    def __init__(self, requested_pages: int, free_pages: int):
        super().__init__(
            f"EPC exhausted: requested {requested_pages} pages, "
            f"{free_pages} free"
        )
        self.requested_pages = requested_pages
        self.free_pages = free_pages


class EnclaveLimitExceededError(SgxError):
    """Enclave initialisation denied: pod exceeded its advertised EPC limit.

    Mirrors the paper's driver patch which denies ``__sgx_encl_init`` when
    the enclave owns more pages than its enclosing pod advertised.
    """

    def __init__(self, cgroup_path: str, owned_pages: int, limit_pages: int):
        super().__init__(
            f"enclave init denied for pod {cgroup_path!r}: owns "
            f"{owned_pages} EPC pages, limit is {limit_pages}"
        )
        self.cgroup_path = cgroup_path
        self.owned_pages = owned_pages
        self.limit_pages = limit_pages


class EnclaveStateError(SgxError):
    """An enclave lifecycle operation was attempted in the wrong state."""


class LaunchTokenError(SgxError):
    """Launch-token acquisition or validation failed."""


class DriverError(SgxError):
    """Generic SGX driver failure (unknown ioctl, double limit set...)."""


# --------------------------------------------------------------------------
# Cluster / orchestrator
# --------------------------------------------------------------------------

class ClusterError(ReproError):
    """Base class for cluster substrate failures."""


class ResourceError(ClusterError):
    """Invalid resource vector arithmetic or capacity violation."""


class NodeError(ClusterError):
    """Node-level failure (unknown pod, double bind...)."""


class CgroupError(ClusterError):
    """Invalid cgroup operation."""


class OrchestrationError(ReproError):
    """Base class for control-plane failures."""


class PodSpecError(OrchestrationError):
    """A pod specification is malformed."""


class SchedulingError(OrchestrationError):
    """The scheduler produced an invalid assignment."""


class RegistryError(ReproError):
    """A scheduler/workload registry lookup or registration failed."""


class PolicyError(OrchestrationError):
    """Invalid priority/QoS configuration or preemption plan."""


# --------------------------------------------------------------------------
# Monitoring
# --------------------------------------------------------------------------

class MonitoringError(ReproError):
    """Base class for metrics substrate failures."""


class QueryError(MonitoringError):
    """An InfluxQL query failed to parse or execute."""


# --------------------------------------------------------------------------
# Trace / simulation
# --------------------------------------------------------------------------

class TraceError(ReproError):
    """Invalid trace data or trace transformation."""


class SimulationError(ReproError):
    """Discrete-event engine failure (time travel, duplicate events...)."""
