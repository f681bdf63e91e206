"""Trace data model.

A :class:`JobRecord` carries exactly the four metrics the paper extracts
from the Borg trace (Section VI-B): submission time, duration, *assigned*
memory (what the job declares to the orchestrator) and *maximal memory
usage* (what it actually consumes).  Memory is expressed as a fraction of
the largest machine in Google's cluster — the trace never discloses
absolute values — and is mapped to bytes only at materialisation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List

from ..errors import TraceError


@dataclass(frozen=True)
class JobRecord:
    """One job of the (scaled or full) trace."""

    job_id: int
    submit_time: float
    duration: float
    #: Declared memory, fraction of the reference machine (0..1).
    assigned_memory: float
    #: Actual peak memory, fraction of the reference machine (0..1).
    max_memory: float

    def __post_init__(self):
        # One chained comparison each: NaN fails it too.
        if not 0.0 <= self.submit_time < math.inf:
            raise TraceError(
                f"job {self.job_id}: negative or non-finite submit time "
                f"({self.submit_time})"
            )
        if not 0.0 < self.duration < math.inf:
            raise TraceError(
                f"job {self.job_id}: non-positive or non-finite duration "
                f"({self.duration})"
            )
        for name in ("assigned_memory", "max_memory"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise TraceError(
                    f"job {self.job_id}: {name}={value} outside [0, 1]"
                )

    @property
    def end_time(self) -> float:
        """Submission plus useful duration (ignores queueing)."""
        return self.submit_time + self.duration

    @property
    def overallocates(self) -> bool:
        """Whether the job uses more memory than it advertises.

        These are the 44-of-663 jobs that strict limit enforcement kills
        immediately after launch (Section VI-F).
        """
        return self.max_memory > self.assigned_memory

    def shifted(self, offset: float) -> "JobRecord":
        """Copy with the submit time shifted by *offset* seconds."""
        return replace(self, submit_time=self.submit_time + offset)


class Trace:
    """An ordered collection of job records.

    Construction validates the submit-time axis **once**: every
    submit time and duration must be finite.  :class:`JobRecord`
    rejects both at construction; this re-check guards records built
    around ``__post_init__`` — a NaN submit time would silently
    corrupt the sort that everything downstream (replay order,
    windowing, renumbering) relies on.  After the sort, submit times
    are monotone and the first record's non-negativity guarantee
    covers the rest.
    """

    def __init__(self, jobs: Iterable[JobRecord] = ()):
        self._jobs: List[JobRecord] = sorted(
            jobs, key=lambda j: (j.submit_time, j.job_id)
        )
        for job in self._jobs:
            if not (
                math.isfinite(job.submit_time)
                and math.isfinite(job.duration)
            ):
                raise TraceError(
                    f"job {job.job_id}: non-finite submit time "
                    f"({job.submit_time}) or duration ({job.duration})"
                )

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self._jobs)

    def __getitem__(self, index: int) -> JobRecord:
        return self._jobs[index]

    @property
    def jobs(self) -> List[JobRecord]:
        """All jobs, submission order."""
        return list(self._jobs)

    # -- aggregate properties ------------------------------------------------

    @property
    def span_seconds(self) -> float:
        """Time between first submission and last job end."""
        if not self._jobs:
            return 0.0
        return max(j.end_time for j in self._jobs) - self._jobs[0].submit_time

    @property
    def total_duration_seconds(self) -> float:
        """Sum of useful durations — Fig. 10's dotted "Trace" bar."""
        return sum(j.duration for j in self._jobs)

    @property
    def overallocator_count(self) -> int:
        """Jobs whose actual memory exceeds the declared amount."""
        return sum(1 for j in self._jobs if j.overallocates)
