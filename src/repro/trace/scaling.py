"""Trace down-scaling: the two reductions of Section VI-B.

Google's cluster has ~12 500 machines; the paper's has 4 workers.  The
trace is scaled down along two dimensions before replay:

* **Time reduction** — keep only the 1-hour slice [6480 s, 10080 s) of
  the first day, long enough to stabilise the system because no job
  exceeds 300 s;
* **Frequency reduction** — keep every 1200th job, leaving enough jobs
  to cause contention without flooding the cluster.

``borg-synth`` draws the scaled slice directly; ``borg-csv`` applies
both reductions to its columns as it streams
(``start``/``window``/``stride``) and renumbers what it keeps with
:func:`renumber_from_zero`.
"""

from __future__ import annotations

from .schema import Trace


def renumber_from_zero(trace: Trace) -> Trace:
    """Shift submit times so the first submission happens at t=0."""
    jobs = trace.jobs
    if not jobs:
        return Trace()
    origin = jobs[0].submit_time
    return Trace(job.shifted(-origin) for job in jobs)
