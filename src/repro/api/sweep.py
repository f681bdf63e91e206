"""``Sweep``: a declared family of scenarios, run serially or in parallel.

The paper's figures are sweeps — EPC sizes (Fig. 7), SGX shares
(Fig. 8), strategies (Figs. 9/10), limit policies (Fig. 11) — and a
:class:`Sweep` declares one as data: a base :class:`Scenario` plus
either explicit ``variations`` (a list of field-override mappings) or
a ``grid`` (field -> values, expanded as a cartesian product)::

    from repro.api import Scenario, Sweep

    sweep = Sweep(
        Scenario(scheduler="binpack"),
        grid={"sgx_fraction": (0.0, 0.5, 1.0)},
    )
    result = sweep.run(workers=4)
    print(result.to_table())

``run(workers=N)`` fans the scenarios out over a ``multiprocessing``
pool.  Replays are deterministic functions of the scenario alone (no
state crosses runs: each orchestrator numbers its own pods), so
parallel results are bit-for-bit identical to serial execution — the
test suite proves it on every run.
"""

from __future__ import annotations

import multiprocessing
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from .format import SWEEP_SCHEMA, rows_to_json, rows_to_table
from .scenario import RunResult, Scenario


def _run_scenario(scenario: Scenario) -> RunResult:
    """Module-level pool target (spawn contexts need it picklable)."""
    return scenario.run()


def expand_grid(
    grid: Mapping[str, Sequence[object]],
) -> List[Dict[str, object]]:
    """Field-override dicts for the cartesian product of *grid*.

    Insertion order of the mapping fixes the axis order, so the first
    key varies slowest — like nested for-loops reading top to bottom.
    """
    if not grid:
        return []
    axes = []
    for key, values in grid.items():
        values = list(values)
        if not values:
            raise SimulationError(f"grid axis {key!r} has no values")
        axes.append([(key, value) for value in values])
    return [dict(combo) for combo in product(*axes)]


class Sweep:
    """A base scenario and its variations, expanded at construction.

    ``variations`` and ``grid`` compose: every variation is crossed
    with every grid point (either may be omitted).  Unknown field
    names die here, before anything runs.
    """

    def __init__(
        self,
        base: Scenario,
        variations: Sequence[Mapping[str, object]] = (),
        grid: Optional[Mapping[str, Sequence[object]]] = None,
        name: str = "",
    ):
        self.base = base
        self.name = name
        variation_list: List[Mapping[str, object]] = (
            [dict(v) for v in variations] if variations else [{}]
        )
        grid_list = expand_grid(grid) if grid else [{}]
        self.scenarios: Tuple[Scenario, ...] = tuple(
            base.with_(**{**variation, **point})
            for variation in variation_list
            for point in grid_list
        )

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def run(self, workers: int = 1) -> "SweepResult":
        """Execute every scenario; *workers* > 1 uses a process pool.

        Results keep scenario order regardless of which worker
        finished first, and are bit-for-bit identical to a
        ``workers=1`` run.

        The pool uses the ``fork`` start method so workers inherit the
        parent's registries — scenarios naming a plugin scheduler or
        workload registered at runtime resolve in the workers too.  A
        spawn-only platform (Windows) could not see those runtime
        registrations, so without ``fork`` the sweep falls back to
        serial execution (same results, one process) with a warning.
        """
        if not isinstance(workers, int) or workers < 1:
            raise SimulationError(
                f"workers must be a positive integer: {workers!r}"
            )
        context = None
        if workers > 1 and len(self.scenarios) > 1:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                warnings.warn(
                    "parallel sweeps need the 'fork' start method; "
                    "running serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if context is None:
            results = [
                scenario.run() for scenario in self.scenarios
            ]
        else:
            processes = min(workers, len(self.scenarios))
            with context.Pool(processes=processes) as pool:
                # chunksize=1: scenarios vary wildly in cost (a 32 MiB
                # EPC run drains for hours of simulated time), so
                # fine-grained dispatch beats pre-chunking.
                results = pool.map(
                    _run_scenario, self.scenarios, chunksize=1
                )
        return SweepResult(results=tuple(results), name=self.name)


@dataclass(frozen=True)
class SweepResult:
    """All runs of one sweep, in scenario order."""

    results: Tuple[RunResult, ...]
    name: str = ""

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> RunResult:
        return self.results[index]

    def signatures(self) -> Tuple:
        """Per-run signatures, for whole-sweep equivalence checks."""
        return tuple(result.signature() for result in self.results)

    def to_rows(self) -> List[Dict[str, object]]:
        """One summary row per run (the shared formatter input)."""
        return [result.to_row() for result in self.results]

    def to_json(self, indent: int = 2, **extra: object) -> str:
        """The schema-tagged sweep JSON document."""
        if self.name:
            extra.setdefault("sweep", self.name)
        return rows_to_json(
            self.to_rows(), schema=SWEEP_SCHEMA, indent=indent, **extra
        )

    def to_table(self) -> str:
        """All runs as one text table."""
        return rows_to_table(self.to_rows())
