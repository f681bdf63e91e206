"""Benchmark harness configuration.

Every figure bench regenerates one table/figure of the paper and prints the
same rows/series the paper reports (run pytest with ``-s`` to see them;
they are also attached to the pytest-benchmark ``extra_info``).

Replays are deterministic and internally timed by the simulated clock,
so wall-clock benchmarking uses one round per figure: the interesting
output is the figure's data, the benchmark timing documents the cost of
regenerating it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments.common import default_trace

# The InfluxQL engine is the monitoring test oracle and lives in tests/;
# the Listing 1 bench imports it from there.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))


@pytest.fixture(scope="session")
def trace():
    """The 663-job evaluation workload, shared across benches."""
    return default_trace()


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark *fn* with a single round (replays are deterministic)."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
