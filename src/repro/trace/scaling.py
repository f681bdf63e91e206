"""Trace down-scaling: the two reductions of Section VI-B.

Google's cluster has ~12 500 machines; the paper's has 4 workers.  The
trace is scaled down along two dimensions before replay:

* **Time reduction** — keep only the 1-hour slice [6480 s, 10080 s) of
  the first day, long enough to stabilise the system because no job
  exceeds 300 s;
* **Frequency reduction** — keep every 1200th job (:func:`iter_stride`),
  leaving enough jobs to cause contention without flooding the
  cluster.

Each trace reader applies both as it streams: ``borg-csv`` on its
columns (``start``/``window``/``stride``), the public adapters through
:func:`repro.trace.adapters.common.apply_scaling`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import TraceError
from .schema import JobRecord, Trace


def iter_stride(jobs: Iterable[JobRecord], stride: int) -> Iterator[JobRecord]:
    """Every *stride*-th record of a job stream, starting at the first.

    Frequency reduction applied on the fly, holding no more than one
    record.
    """
    if stride <= 0:
        raise TraceError(f"stride must be positive, got {stride}")
    for index, job in enumerate(jobs):
        if index % stride == 0:
            yield job


def renumber_from_zero(trace: Trace) -> Trace:
    """Shift submit times so the first submission happens at t=0."""
    jobs = trace.jobs
    if not jobs:
        return Trace()
    origin = jobs[0].submit_time
    return Trace(job.shifted(-origin) for job in jobs)
