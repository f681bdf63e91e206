"""SGX-aware scheduling: the paper's primary contribution.

The scheduler combines two kinds of data (Section IV): the *declared*
resource requests of pending jobs, and *measured* usage fetched from the
time-series database with sliding-window queries.  Infeasible job-node
combinations are filtered out (hardware compatibility, saturation), then
a placement policy picks among the survivors:

* :class:`~repro.scheduler.binpack.BinpackScheduler` — fill nodes in a
  consistent order, SGX nodes last for standard jobs;
* :class:`~repro.scheduler.spread.SpreadScheduler` — minimise the
  standard deviation of node loads;
* :class:`~repro.scheduler.kube_default.KubeDefaultScheduler` — the
  baseline: Kubernetes' declared-requests-only behaviour.
"""

from .base import (
    Assignment,
    ClusterStateService,
    NodeView,
    Scheduler,
    SchedulingOutcome,
)
from .binpack import BinpackScheduler
from .filtering import feasible_candidates
from .kube_default import KubeDefaultScheduler
from .spread import SpreadScheduler

__all__ = [
    "Assignment",
    "BinpackScheduler",
    "ClusterStateService",
    "KubeDefaultScheduler",
    "NodeView",
    "Scheduler",
    "SchedulingOutcome",
    "SpreadScheduler",
    "feasible_candidates",
]
