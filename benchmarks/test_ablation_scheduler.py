"""Ablation bench: measured usage against declared requests.

The paper's central design point (Section IV): live probe data
reclaims over-declared headroom.  The declared-only side is the
``kube-default`` baseline, the one strategy that judges feasibility
on declared requests alone.
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
