"""Ablation benches: the design choices DESIGN.md calls out.

1. **Measured usage vs declared requests** — the paper's central design
   point: live probe data reclaims over-declared headroom.
2. **SGX-nodes-last ordering** — preserving scarce EPC nodes for the
   jobs that need them.
3. **FCFS skip vs strict head-of-line blocking** — the queue discipline.
"""

from conftest import run_once
from repro.api import Scenario
from repro.simulation.runner import run_replay
from repro.units import fmt_duration


def _summarise(label, result, benchmark):
    metrics = result.metrics
    print(
        f"  {label:32s} mean wait {metrics.mean_waiting_seconds():7.1f}s  "
        f"makespan {fmt_duration(metrics.makespan_seconds)}"
    )
    benchmark.extra_info[f"mean_wait[{label}]"] = (
        metrics.mean_waiting_seconds()
    )
    return metrics


def test_ablation_measured_vs_declared(benchmark, trace):
    """Measured-usage scheduling vs the declared-only baseline."""

    def run():
        measured = run_replay(
            Scenario(
                trace=trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        declared = run_replay(
            Scenario(
                trace=trace,
                scheduler="kube-default",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        return measured, declared

    measured, declared = run_once(benchmark, run)
    print("\n[Ablation] measured usage vs declared requests (100% SGX)")
    m = _summarise("binpack (measured)", measured, benchmark)
    d = _summarise("kube-default (declared)", declared, benchmark)
    assert m.mean_waiting_seconds() < 0.8 * d.mean_waiting_seconds()
    assert m.makespan_seconds < d.makespan_seconds


def test_ablation_sgx_nodes_last(benchmark, trace):
    """Preserving SGX nodes for SGX jobs in a mixed workload."""

    def run():
        preserved = run_replay(
            Scenario(
                trace=trace,
                scheduler="binpack",
                sgx_fraction=0.5,
                seed=1,
            )
        )
        mixed = run_replay(
            Scenario(
                trace=trace,
                scheduler="binpack",
                sgx_fraction=0.5,
                seed=1,
                preserve_sgx_nodes=False,
            )
        )
        return preserved, mixed

    preserved, mixed = run_once(benchmark, run)
    print("\n[Ablation] SGX-nodes-last node ordering (50% SGX)")
    p = _summarise("preserve SGX nodes (paper)", preserved, benchmark)
    n = _summarise("no preservation", mixed, benchmark)

    def sgx_mean(metrics):
        waits = metrics.waiting_times(
            [x for x in metrics.succeeded if x.requires_sgx]
        )
        return sum(waits) / len(waits)

    # Letting standard jobs squat SGX nodes cannot help SGX jobs.
    assert sgx_mean(p) <= sgx_mean(n) + 1.0


def test_ablation_strict_fcfs(benchmark, trace):
    """Kubernetes-like skipping vs strict head-of-line blocking."""

    def run():
        skip = run_replay(
            Scenario(
                trace=trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
            )
        )
        strict = run_replay(
            Scenario(
                trace=trace,
                scheduler="binpack",
                sgx_fraction=1.0,
                seed=1,
                strict_fcfs=True,
            )
        )
        return skip, strict

    skip, strict = run_once(benchmark, run)
    print("\n[Ablation] FCFS with skipping vs strict head-of-line")
    s = _summarise("skip unschedulable (paper)", skip, benchmark)
    h = _summarise("strict head-of-line", strict, benchmark)
    # Head-of-line blocking wastes capacity whenever the oldest job is
    # a large enclave: it can only lengthen the batch.
    assert h.makespan_seconds >= 0.95 * s.makespan_seconds
    assert h.mean_waiting_seconds() >= 0.9 * s.mean_waiting_seconds()
