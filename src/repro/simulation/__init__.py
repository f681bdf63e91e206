"""Discrete-event simulation of the cluster and control plane.

The paper's Fig. 7 experiment is itself a simulation that "uses the exact
same algorithms and behaves in the same way as our concrete scheduler";
this package generalises that: the *entire* evaluation replays through
:func:`repro.simulation.runner.run_replay` (a :class:`repro.api.Scenario`
in, a :class:`ReplayResult` out), driving the real orchestrator,
schedulers and SGX substrate with a deterministic event loop instead of
wall-clock daemons.
"""

from .engine import EventHandle, SimulationEngine
from .metrics import QueueSample, ReplayMetrics
from .runner import ReplayResult, make_scheduler, run_replay

__all__ = [
    "EventHandle",
    "QueueSample",
    "ReplayMetrics",
    "ReplayResult",
    "SimulationEngine",
    "make_scheduler",
    "run_replay",
]
