"""Two-level sharded scheduling: cells, dispatcher, sharded engine.

The cluster splits into *cells* under a partition policy
(:mod:`~repro.cells.policies`, pluggable via
``@repro.registry.register_cell_policy``); each cell runs its own
scheduler over its own pending queue and event queue
(:mod:`~repro.cells.queue`, :mod:`~repro.cells.engine`); the global
dispatcher (:mod:`~repro.cells.dispatch`) routes submissions to cells
and spills persistently deferred pods across them.  The replay driver
tying it together is :class:`~repro.cells.runner.CellReplay`, entered
through ``Scenario(cells=...)`` / ``repro run --cells``.

Importing this package registers the built-in cell policies
(``balanced``, ``region``, ``capacity-class``).
"""

from .dispatch import Cell, GlobalDispatcher
from .engine import GLOBAL_CELL, CellEventHandle, ShardedEngine
from .policies import node_region, partition_nodes
from .queue import CellQueueRouter
from .runner import CellReplay

__all__ = [
    "GLOBAL_CELL",
    "Cell",
    "CellEventHandle",
    "CellQueueRouter",
    "CellReplay",
    "GlobalDispatcher",
    "ShardedEngine",
    "node_region",
    "partition_nodes",
]
