"""repro — SGX-aware container orchestration for heterogeneous clusters.

A from-scratch Python reproduction of Vaucher et al., "SGX-Aware
Container Orchestration for Heterogeneous Clusters" (ICDCS 2018),
including every substrate the paper's system stands on: an SGX/EPC model
with the patched Linux driver interface, a Kubernetes-like control plane
whose kubelets advertise each usable EPC page as a resource item,
Heapster and SGX-probe monitoring into a window-max store that answers
Listing 1's query, the Google Borg trace pipeline, and a
discrete-event simulator that replays the paper's entire evaluation.
The InfluxQL engine that runs Listing 1 verbatim is a test oracle in
``tests/``; its time-series database
(:mod:`repro.monitoring.tsdb`) stays in the package only because
``bench/run.py`` imports it to time its write path.

Quick start::

    from repro import (
        Orchestrator, paper_cluster, BinpackScheduler, make_pod_spec,
    )
    from repro.units import mib

    orchestrator = Orchestrator(paper_cluster())
    pod = orchestrator.submit(
        make_pod_spec("job", duration_seconds=60,
                      declared_epc_bytes=mib(10)),
        now=0.0,
    )
    orchestrator.scheduling_pass(BinpackScheduler(), now=1.0)
    print(pod.node_name)  # 'sgx-worker-0'

or replay the paper's whole evaluation workload through the scenario
layer::

    from repro import Scenario, Sweep

    result = Scenario(sgx_fraction=0.5).run()
    print(result.metrics.mean_waiting_seconds())

    sweep = Sweep(Scenario(), grid={"sgx_fraction": (0.0, 0.5, 1.0)})
    print(sweep.run(workers=3).to_table())
"""

from .cluster.node import Node, NodeSpec
from .cluster.resources import ResourceVector
from .cluster.topology import Cluster, paper_cluster, uniform_cluster
from .orchestrator.api import (
    PodPhase,
    PodSpec,
    ResourceRequirements,
    WorkloadProfile,
    make_pod_spec,
)
from .orchestrator.controller import Orchestrator
from .orchestrator.pod import Pod
from .policy import PreemptionPolicy, QosClass, resolve_priority
from .scheduler.binpack import BinpackScheduler
from .scheduler.kube_default import KubeDefaultScheduler
from .scheduler.spread import SpreadScheduler
from .simulation.runner import ReplayResult, run_replay
from .trace.borg import BorgTraceGenerator, synthetic_scaled_trace
from .workload.malicious import MaliciousConfig

__version__ = "19.0.0"

# The scenario layer sits on top of everything above; importing it
# after the core packages keeps the orchestrator <-> scheduler import
# cycle resolving in the order the control plane expects.
from .api import (  # noqa: E402
    RunResult,
    Scenario,
    Sweep,
    SweepResult,
    register_scheduler,
    register_workload,
)

__all__ = [
    "BinpackScheduler",
    "BorgTraceGenerator",
    "Cluster",
    "KubeDefaultScheduler",
    "MaliciousConfig",
    "Node",
    "NodeSpec",
    "Orchestrator",
    "Pod",
    "PodPhase",
    "PodSpec",
    "PreemptionPolicy",
    "QosClass",
    "ReplayResult",
    "ResourceRequirements",
    "ResourceVector",
    "RunResult",
    "Scenario",
    "SpreadScheduler",
    "Sweep",
    "SweepResult",
    "WorkloadProfile",
    "__version__",
    "make_pod_spec",
    "paper_cluster",
    "register_scheduler",
    "register_workload",
    "resolve_priority",
    "run_replay",
    "synthetic_scaled_trace",
    "uniform_cluster",
]
