"""Model of the patched Intel ``isgx`` Linux kernel driver.

The paper modifies the stock driver (115 lines of C, Section V-E) to

* expose EPC occupancy as module parameters readable under
  ``/sys/module/isgx/parameters``: ``sgx_nr_total_epc_pages`` and
  ``sgx_nr_free_pages``;
* add an ioctl reporting the EPC pages owned by a single process;
* add an ioctl by which Kubelet communicates a *cgroup path -> EPC page
  limit* pair at pod creation, settable **once** per pod so containers
  cannot reset their own limits;
* deny enclave initialisation (``__sgx_encl_init``) whenever the enclave's
  pages would push its pod past the advertised limit.

This module reproduces that interface.  The pseudo-file surface is modelled
by :meth:`SgxDriver.read_parameter`, and the two ioctls by
:meth:`SgxDriver.ioctl`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import DriverError, EnclaveLimitExceededError
from .aesm import AesmService
from .enclave import Enclave
from .epc import EnclavePageCache
from .sgx2 import Sgx2Enclave

#: ioctl number for querying a process's EPC occupancy (paper Sec. V-E).
IOCTL_GET_EPC_USAGE = 0xA0
#: ioctl number for communicating a pod's EPC limit (paper Sec. V-D/V-E).
IOCTL_SET_POD_LIMIT = 0xA1

#: Module-parameter pseudo-file names, as exposed under
#: ``/sys/module/isgx/parameters/``.
PARAM_TOTAL_PAGES = "sgx_nr_total_epc_pages"
PARAM_FREE_PAGES = "sgx_nr_free_pages"


@dataclass
class _ProcessRecord:
    """Book-keeping for one process that owns enclaves."""

    pid: int
    cgroup_path: str
    enclaves: List[Enclave] = field(default_factory=list)

    @property
    def epc_pages(self) -> int:
        """Pages owned by this process's live enclaves."""
        return sum(e.pages for e in self.enclaves)


class SgxDriver:
    """The per-node SGX driver: counters, limits, and EINIT gating.

    Parameters
    ----------
    epc:
        The node's EPC model.
    enforce_limits:
        Whether the paper's limit-enforcement patch is active.  Fig. 11
        compares runs with this on and off.
    sgx_version:
        1 (current hardware) or 2 (EDMM-capable, Section VI-G).  On
        version 1 the driver refuses dynamic enclaves and runtime
        resizing, exactly like the stock driver.
    """

    def __init__(
        self,
        epc: EnclavePageCache,
        enforce_limits: bool = True,
        sgx_version: int = 1,
    ):
        if sgx_version not in (1, 2):
            raise DriverError(f"unsupported SGX version {sgx_version}")
        self.epc = epc
        self.enforce_limits = enforce_limits
        self.sgx_version = sgx_version
        self._limits: Dict[str, int] = {}
        self._processes: Dict[int, _ProcessRecord] = {}

    # -- module parameters (pseudo-files) ---------------------------------

    def read_parameter(self, name: str) -> int:
        """Read a module parameter as the monitoring probe would.

        Supported names mirror the pseudo-files the patch adds below
        ``/sys/module/isgx/parameters/``.
        """
        if name == PARAM_TOTAL_PAGES:
            return self.epc.total_pages
        if name == PARAM_FREE_PAGES:
            return self.epc.free_pages
        raise DriverError(f"unknown module parameter {name!r}")

    # -- ioctl surface -----------------------------------------------------

    def ioctl(self, number: int, **kwargs) -> int:
        """Dispatch an ioctl as user space would.

        ``IOCTL_GET_EPC_USAGE`` expects ``pid=`` and returns the pages
        owned by that process.  ``IOCTL_SET_POD_LIMIT`` expects
        ``cgroup_path=`` and ``limit_pages=`` and returns 0 on success.
        """
        if number == IOCTL_GET_EPC_USAGE:
            return self.process_epc_pages(kwargs["pid"])
        if number == IOCTL_SET_POD_LIMIT:
            self.set_pod_limit(kwargs["cgroup_path"], kwargs["limit_pages"])
            return 0
        raise DriverError(f"unknown ioctl 0x{number:X}")

    def process_epc_pages(self, pid: int) -> int:
        """EPC pages owned by process *pid* (0 for unknown processes)."""
        record = self._processes.get(pid)
        return record.epc_pages if record else 0

    def set_pod_limit(self, cgroup_path: str, limit_pages: int) -> None:
        """Record a pod's EPC page limit, keyed by cgroup path.

        The driver accepts each pod's limit exactly once ("limits can only
        be set once for each pod, therefore preventing the containers
        themselves from resetting them", Sec. V-E).
        """
        if limit_pages < 0:
            raise DriverError(f"negative limit: {limit_pages}")
        if cgroup_path in self._limits:
            raise DriverError(
                f"limit already set for pod {cgroup_path!r}; "
                "limits are settable once"
            )
        self._limits[cgroup_path] = limit_pages

    def pod_limit(self, cgroup_path: str) -> Optional[int]:
        """The limit recorded for a pod, or ``None`` if none was set."""
        return self._limits.get(cgroup_path)

    def clear_pod(self, cgroup_path: str) -> None:
        """Forget a pod's limit at pod teardown (cgroup removal)."""
        self._limits.pop(cgroup_path, None)

    # -- enclave lifecycle hooks -------------------------------------------

    def register_process(self, pid: int, cgroup_path: str) -> None:
        """Track a process so its enclaves can be attributed to a pod."""
        if pid in self._processes:
            raise DriverError(f"pid {pid} already registered")
        self._processes[pid] = _ProcessRecord(pid=pid, cgroup_path=cgroup_path)

    def unregister_process(self, pid: int) -> None:
        """Destroy all enclaves of *pid* and forget it (process exit)."""
        record = self._processes.pop(pid, None)
        if record is None:
            return
        for enclave in record.enclaves:
            enclave.destroy()

    def create_enclave(
        self,
        pid: int,
        size_bytes: int,
        signer: str = "vendor",
        dynamic: bool = False,
    ) -> Enclave:
        """ECREATE + EADD on behalf of *pid*.

        ``dynamic=True`` requests an SGX 2 enclave whose memory can be
        resized after EINIT; it requires ``sgx_version >= 2``.  May
        raise :class:`~repro.errors.EpcExhaustedError` when the node
        runs strict (no over-commit) EPC accounting.
        """
        record = self._require_process(pid)
        if dynamic and self.sgx_version < 2:
            raise DriverError(
                "dynamic enclaves require SGX 2 (EDMM); this driver "
                "runs in SGX 1 mode"
            )
        enclave_cls = Sgx2Enclave if dynamic else Enclave
        enclave = enclave_cls(
            owner=record.cgroup_path,
            epc=self.epc,
            size_bytes=size_bytes,
            signer=signer,
        )
        record.enclaves.append(enclave)
        return enclave

    def grow_enclave(
        self, pid: int, enclave: Enclave, extra_bytes: int
    ) -> int:
        """EAUG on behalf of *pid*, with the limit check ported to SGX 2.

        The paper estimates this port as modest (Section VI-G): the same
        per-pod comparison that gates ``__sgx_encl_init`` gates dynamic
        growth — a pod may never own more pages than it advertised.
        Returns the pages added.
        """
        from ..units import pages as bytes_to_pages

        record = self._require_process(pid)
        if enclave not in record.enclaves:
            raise DriverError(
                f"enclave {enclave.enclave_id} does not belong to pid {pid}"
            )
        if not isinstance(enclave, Sgx2Enclave):
            raise DriverError(
                "runtime growth requires an SGX 2 (dynamic) enclave"
            )
        if self.enforce_limits:
            limit = self._limits.get(record.cgroup_path)
            if limit is not None:
                owned = self._pod_pages(record.cgroup_path)
                wanted = owned + bytes_to_pages(extra_bytes)
                if wanted > limit:
                    raise EnclaveLimitExceededError(
                        record.cgroup_path, wanted, limit
                    )
        return enclave.grow(extra_bytes)

    def shrink_enclave(
        self, pid: int, enclave: Enclave, fewer_bytes: int
    ) -> int:
        """EREMOVE on behalf of *pid*; returns the pages released."""
        record = self._require_process(pid)
        if enclave not in record.enclaves:
            raise DriverError(
                f"enclave {enclave.enclave_id} does not belong to pid {pid}"
            )
        if not isinstance(enclave, Sgx2Enclave):
            raise DriverError(
                "runtime shrinking requires an SGX 2 (dynamic) enclave"
            )
        return enclave.shrink(fewer_bytes)

    def initialize_enclave(
        self, pid: int, enclave: Enclave, aesm: AesmService
    ) -> None:
        """EINIT with the paper's limit check spliced in.

        Compares the pages owned by the enclave's *pod* (all processes in
        the same cgroup) against the advertised limit, and denies
        initialisation — destroying the enclave, as the kernel would free
        its pages — when the limit is exceeded.
        """
        record = self._require_process(pid)
        if enclave not in record.enclaves:
            raise DriverError(
                f"enclave {enclave.enclave_id} does not belong to pid {pid}"
            )
        if self.enforce_limits:
            limit = self._limits.get(record.cgroup_path)
            if limit is not None:
                owned = self._pod_pages(record.cgroup_path)
                if owned > limit:
                    enclave.destroy()
                    record.enclaves.remove(enclave)
                    raise EnclaveLimitExceededError(
                        record.cgroup_path, owned, limit
                    )
        token = aesm.get_launch_token(enclave.measurement, enclave.signer)
        enclave.initialize(token)

    def destroy_enclave(self, pid: int, enclave: Enclave) -> None:
        """Tear one enclave down and release its pages."""
        record = self._require_process(pid)
        if enclave in record.enclaves:
            record.enclaves.remove(enclave)
        enclave.destroy()

    # -- internals ----------------------------------------------------------

    def _require_process(self, pid: int) -> _ProcessRecord:
        record = self._processes.get(pid)
        if record is None:
            raise DriverError(f"pid {pid} is not registered with the driver")
        return record

    def _pod_pages(self, cgroup_path: str) -> int:
        """Pages owned by every process in the pod's cgroup."""
        return sum(
            r.epc_pages
            for r in self._processes.values()
            if r.cgroup_path == cgroup_path
        )
