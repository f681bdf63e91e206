"""Calibrated synthetic Google Borg trace generator.

The public 2011 trace is not redistributable inside this repository, so
experiments run on a synthetic trace drawn from distributions calibrated
to the marginals the paper publishes:

* **Job duration** (Fig. 4) — all jobs last at most 300 s, with a smooth
  CDF; modelled as ``300 * Beta(1.8, 1.2)`` (mean 180 s).
* **Max memory usage** (Fig. 3) — a fraction of the largest machine,
  capped at 0.5 with most jobs below 0.1; modelled as
  ``0.5 * Beta(0.6, 3.1)``.  Jointly with the duration model this puts
  the all-SGX replay at the EPC offered load that Fig. 7's measured
  drain times imply (about 1.35x capacity on 128 MiB hardware).
* **Assigned (declared) memory** — honest jobs declare slightly more
  than they use (a ``1 + Exp(0.25)`` inflation factor); a configurable
  number of jobs *under-declare* (``U(0.3, 0.9)`` deflation), matching
  the 44-of-663 over-allocators of Section VI-F.
* **Arrivals** — a Poisson process.  Sampling every 1200th job of a
  Poisson stream is itself a Poisson stream at 1/1200th the rate, so the
  scaled trace is generated directly at the thinned rate (663 jobs per
  hour) rather than materialising ~800 k jobs to discard 99.9 % of them.
* **Concurrency** (Fig. 5) — the 125 k-145 k band of concurrently
  *running* jobs is dominated by long-running services the paper never
  schedules; modelled as a service floor plus the batch load implied by
  Little's law under a diurnally modulated arrival rate with the dip the
  paper selects its slice from.

Every draw comes from a seeded :class:`numpy.random.Generator`; the same
seed always yields the same trace.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..constants import (
    TRACE_MAX_JOB_DURATION_SECONDS,
    TRACE_MAX_MEMORY_FRACTION,
    TRACE_OVERALLOCATOR_COUNT,
    TRACE_SCALED_JOB_COUNT,
    TRACE_SLICE_END_SECONDS,
    TRACE_SLICE_START_SECONDS,
)
from ..errors import TraceError
from .schema import JobRecord, Trace

#: Duration model: 300 * Beta(a, b) seconds (mean 180 s).  The mean is
#: calibrated jointly with the memory model so the all-SGX replay carries
#: the EPC offered load implied by Fig. 7's drain times (~1.35 at the
#: 128 MiB EPC of real hardware) while staying under Fig. 4's 300 s cap.
_DURATION_BETA = (1.8, 1.2)
#: Max-memory model: 0.5 * Beta(a, b) of the reference machine
#: (mean ~0.081, ~65 % of jobs below 0.1; Fig. 3's shape).
_MEMORY_BETA = (0.6, 3.1)
#: Honest declaration inflation: assigned = max * (1 + Exp(scale)).
_DECLARE_INFLATION_SCALE = 0.25
#: Under-declaration range for over-allocating jobs.
_UNDER_DECLARE_RANGE = (0.3, 0.9)


class BorgTraceGenerator:
    """Deterministic synthetic trace factory.

    Parameters
    ----------
    seed:
        Seed for all randomness; identical seeds give identical traces.
    max_duration:
        Duration cap (the paper's trace maxes at 300 s).
    max_memory_fraction:
        Cap on the max-memory fraction (0.5 in the paper's Fig. 3).
    service_floor:
        Long-running service jobs underpinning Fig. 5's concurrency band.
    """

    def __init__(
        self,
        seed: int = 0,
        max_duration: float = TRACE_MAX_JOB_DURATION_SECONDS,
        max_memory_fraction: float = TRACE_MAX_MEMORY_FRACTION,
        service_floor: int = 95_000,
    ):
        if max_duration <= 0:
            raise TraceError("max duration must be positive")
        if not 0 < max_memory_fraction <= 1:
            raise TraceError("max memory fraction must be in (0, 1]")
        self.seed = seed
        self.max_duration = max_duration
        self.max_memory_fraction = max_memory_fraction
        self.service_floor = service_floor

    # -- scaled trace (the evaluation workload) ------------------------------

    def scaled_trace(
        self,
        n_jobs: int = TRACE_SCALED_JOB_COUNT,
        overallocators: int = TRACE_OVERALLOCATOR_COUNT,
        window_seconds: Optional[float] = None,
    ) -> Trace:
        """The paper's evaluation workload: the sliced, stride-sampled trace.

        Generates *n_jobs* submissions over *window_seconds* (defaults to
        the 1-hour slice length), with exactly *overallocators* jobs that
        use more memory than they declare.  Submit times start at 0 — the
        slice is already renumbered, as the replay harness expects.
        """
        if n_jobs <= 0:
            raise TraceError(f"need a positive job count, got {n_jobs}")
        if not 0 <= overallocators <= n_jobs:
            raise TraceError(
                f"overallocators ({overallocators}) must be within "
                f"0..{n_jobs}"
            )
        if window_seconds is None:
            window_seconds = float(
                TRACE_SLICE_END_SECONDS - TRACE_SLICE_START_SECONDS
            )
        rng = np.random.default_rng(self.seed)
        # A Poisson process conditioned on its count is ordered uniforms.
        submit_times = np.sort(
            rng.uniform(0.0, window_seconds, size=n_jobs)
        )
        durations = self._durations(rng, n_jobs)
        max_memory = self._max_memory(rng, n_jobs)
        assigned = self._assigned_memory(
            rng, max_memory, overallocators
        )
        jobs = [
            JobRecord(
                job_id=index,
                submit_time=float(submit_times[index]),
                duration=float(durations[index]),
                assigned_memory=float(assigned[index]),
                max_memory=float(max_memory[index]),
            )
            for index in range(n_jobs)
        ]
        return Trace(jobs)

    # -- full-trace statistics (Figs. 3-5) -----------------------------------

    def marginal_samples(
        self, n_samples: int = 20_000
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(durations, max_memory) samples of the full-trace marginals.

        Figures 3 and 4 plot distributions over the whole trace; this
        draws a large i.i.d. sample of the same distributions the scaled
        trace uses.
        """
        rng = np.random.default_rng(self.seed + 1)
        return self._durations(rng, n_samples), self._max_memory(
            rng, n_samples
        )

    def arrival_rate(self, t_seconds: float) -> float:
        """Batch-job arrival rate (jobs/s) at trace time *t_seconds*.

        Diurnally modulated, with a local minimum inside the paper's
        evaluation slice — "this slice of trace, while being the less
        job-intensive in terms of concurrent jobs for the considered
        time interval, still injects an intensive load" (Section VI-B).
        """
        base = 221.0  # ~663 sampled jobs/hour * 1200 stride
        day_fraction = (t_seconds % 86_400.0) / 86_400.0
        # Minimum near t ~ 8280 s (the slice midpoint).
        modulation = 1.0 + 0.10 * math.cos(
            2.0 * math.pi * (day_fraction - 8_280.0 / 86_400.0) + math.pi
        )
        return base * modulation

    def concurrency_series(
        self, hours: float = 24.0, step_seconds: float = 600.0
    ) -> List[Tuple[float, float]]:
        """(time, concurrently running jobs) over the first *hours*.

        Fig. 5's series: the service floor (with slow seeded churn) plus
        the batch concurrency implied by Little's law (rate x mean
        duration) at each instant.
        """
        rng = np.random.default_rng(self.seed + 2)
        mean_duration = float(
            self.max_duration
            * _DURATION_BETA[0]
            / (_DURATION_BETA[0] + _DURATION_BETA[1])
        )
        series: List[Tuple[float, float]] = []
        churn = 0.0
        t = 0.0
        end = hours * 3600.0
        while t <= end:
            churn = 0.98 * churn + float(rng.normal(0.0, 400.0))
            batch = self.arrival_rate(t) * mean_duration
            # Services scale the band into the 125k-145k range.
            services = self.service_floor * (
                1.0 + 0.05 * math.sin(2.0 * math.pi * t / 86_400.0)
            )
            series.append((t, services + batch + churn))
            t += step_seconds
        return series

    # -- distribution internals -------------------------------------------

    def _durations(self, rng: np.random.Generator, n: int) -> np.ndarray:
        a, b = _DURATION_BETA
        return self.max_duration * rng.beta(a, b, size=n)

    def _max_memory(self, rng: np.random.Generator, n: int) -> np.ndarray:
        a, b = _MEMORY_BETA
        samples = self.max_memory_fraction * rng.beta(a, b, size=n)
        # Avoid degenerate zero-memory jobs (the trace has none).
        return np.clip(samples, 1e-4, self.max_memory_fraction)

    def _assigned_memory(
        self,
        rng: np.random.Generator,
        max_memory: np.ndarray,
        overallocators: int,
    ) -> np.ndarray:
        n = len(max_memory)
        inflation = 1.0 + rng.exponential(_DECLARE_INFLATION_SCALE, size=n)
        assigned = np.minimum(max_memory * inflation, 1.0)
        if overallocators > 0:
            chosen = rng.choice(n, size=overallocators, replace=False)
            low, high = _UNDER_DECLARE_RANGE
            deflation = rng.uniform(low, high, size=overallocators)
            assigned[chosen] = max_memory[chosen] * deflation
        # Everything must stay a valid fraction.
        return np.clip(assigned, 1e-5, 1.0)


def synthetic_scaled_trace(seed: int = 0, **kwargs) -> Trace:
    """Shorthand for the default evaluation workload at a given seed."""
    return BorgTraceGenerator(seed=seed).scaled_trace(**kwargs)
