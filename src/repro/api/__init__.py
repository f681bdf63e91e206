"""The scenario layer: the one way to run experiments.

Three pieces compose:

* **registries** (:mod:`repro.registry`, re-exported here) — scheduling
  strategies and workload materialisers plug in by name with a
  decorator and become addressable from scenarios and the CLI;
* :class:`Scenario` — a validated, immutable description of one
  experiment with ``.run() -> RunResult``;
* :class:`Sweep` — a declared grid/list of scenario variations,
  executed serially or over a ``multiprocessing`` pool with results
  proven bit-for-bit identical to serial execution.

Quickstart::

    from repro.api import Scenario, Sweep

    # one run
    print(Scenario(scheduler="spread", sgx_fraction=0.5).run().to_table())

    # a parallel sweep over a grid, dumped as JSON
    sweep = Sweep(
        Scenario(trace="borg-synth:jobs=200"),
        grid={"scheduler": ("binpack", "spread"),
              "sgx_fraction": (0.0, 0.5, 1.0)},
    )
    print(sweep.run(workers=4).to_json())

``Scenario`` is also the replay engine's only configuration: call
:func:`repro.simulation.runner.run_replay` with one when the live
orchestrator is needed.
"""

from ..registry import (
    PREEMPTION_POLICIES,
    SCHEDULERS,
    WORKLOADS,
    Registry,
    preemption_policy_names,
    register_preemption_policy,
    register_scheduler,
    register_workload,
    scheduler_names,
    workload_names,
)
from .format import (
    RUN_SCHEMA,
    SWEEP_SCHEMA,
    format_table,
    rows_to_json,
    rows_to_table,
)
from ..obs.ledger import ObserveConfig
from .scenario import RunResult, Scenario
from .sweep import Sweep, SweepResult, expand_grid

__all__ = [
    "PREEMPTION_POLICIES",
    "RUN_SCHEMA",
    "SCHEDULERS",
    "SWEEP_SCHEMA",
    "ObserveConfig",
    "Registry",
    "RunResult",
    "Scenario",
    "Sweep",
    "SweepResult",
    "WORKLOADS",
    "expand_grid",
    "format_table",
    "preemption_policy_names",
    "register_preemption_policy",
    "register_scheduler",
    "register_workload",
    "rows_to_json",
    "rows_to_table",
    "scheduler_names",
    "workload_names",
]
