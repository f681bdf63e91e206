"""The two-level sharded replay: per-cell passes over a global clock.

:class:`CellReplay` subclasses the flat replay driver and swaps three
things in: the :class:`~repro.cells.engine.ShardedEngine` (per-cell
event queues, deterministic merge), the
:class:`~repro.cells.queue.CellQueueRouter` injected as the
orchestrator's pending queue, and a per-tick scheduling step that runs
one pass *per cell* — each cell with its own scheduler instance (own
candidate index, own statics cache) over its own slice of the node
views and its own pending snapshot.

Determinism and the ``cells=1`` oracle gate shape every choice here:

* views are built **once per tick** (the state service is stateful —
  its fingerprint/clean-snapshot reuse must see the same call pattern
  as the flat oracle) and partitioned by the dispatcher's node map;
* cells execute in id order; within a cell the pass is byte-identical
  to the flat one (same ``scheduling_pass`` code path);
* pods a cell cannot ever host are re-routed by the dispatcher at
  pass time — or rejected exactly like the oracle when *no* cell can
  host them;
* pods a cell keeps deferring spill to the next-best feasible cell
  after ``cell_spillover_after`` consecutive deferrals.

With one cell the router delegates to a single queue, the dispatcher
routes everything to cell 0 and never spills, and the engine's shared
sequence counter makes the merge order equal the flat heap's — the
whole construction collapses, bit for bit, onto the oracle.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..orchestrator.controller import Orchestrator
from ..orchestrator.pod import Pod
from ..simulation.runner import _Replay, make_scheduler
from .dispatch import Cell, GlobalDispatcher
from .engine import GLOBAL_CELL, ShardedEngine
from .policies import partition_nodes
from .queue import CellQueueRouter


class CellReplay(_Replay):
    """One sharded replay in flight; built by ``run_replay``."""

    __slots__ = (
        "cells", "dispatcher", "router", "_deferral_streaks",
        "_rerouted_uids",
    )

    # -- construction hooks ------------------------------------------------

    def _make_orchestrator(self, queue=None) -> Orchestrator:
        """Partition the cluster, then build the control plane around
        the cell router instead of the flat queue."""
        scenario = self.scenario
        cell_count = scenario.cells
        assert cell_count is not None
        assignment = partition_nodes(
            self.cluster.nodes,
            cell_count,
            scenario.cell_policy,
            seed=scenario.seed,
        )
        names_by_cell: List[List[str]] = [[] for _ in range(cell_count)]
        for node in self.cluster.nodes:
            names_by_cell[assignment[node.name]].append(node.name)
        self.cells = [
            Cell(cell_id, names, make_scheduler(scenario))
            for cell_id, names in enumerate(names_by_cell)
        ]
        self.dispatcher = GlobalDispatcher(self.cells)
        self.router = CellQueueRouter(
            cell_count,
            self.dispatcher,
            requeue_backoff_seconds=scenario.requeue_backoff_seconds,
        )
        self._deferral_streaks: Dict[str, int] = {}
        self._rerouted_uids: Set[str] = set()
        orchestrator = super()._make_orchestrator(queue=self.router)
        self.dispatcher.bind(
            orchestrator.kubelets,
            self.router,
            {node.name: node for node in self.cluster.nodes},
        )
        return orchestrator

    def _make_engine(self) -> ShardedEngine:
        assert self.scenario.cells is not None
        return ShardedEngine(cells=self.scenario.cells)

    # -- cell-routed event scheduling --------------------------------------

    def _cell_of_node(self, node_name: str) -> int:
        return self.dispatcher.cell_of_node.get(node_name, GLOBAL_CELL)

    def _schedule_start(self, pod: Pod, startup_seconds: float) -> None:
        assert pod.node_name is not None
        self.engine.schedule_in(
            startup_seconds,
            lambda p=pod: self._start(p),
            self._cell_of_node(pod.node_name),
        )

    def _arm(self, job, delay: float) -> None:
        """The flat arm, landing the finish event in the node's cell.

        A node's finish events stay in its own cell's queue, and move
        with the job on a cross-cell migration via the fused cancel.
        """
        job.finish_handle = self.engine.reschedule_in(
            job.finish_handle,
            delay,
            job.finish_action,
            self._cell_of_node(job.node_name),
        )

    # -- the per-cell scheduling step --------------------------------------

    def _execute_pass(self, now: float) -> None:
        """One scheduling pass per cell, in cell-id order.

        The pending snapshots are taken up front (a pass must not see
        pods another cell's pass just re-routed *this tick*), the
        views are built once and sliced by the node map, and each
        cell's pass outcome feeds the shared bookkeeping.  Preemption,
        requeues and rejections all run inside the per-cell pass,
        byte-identically to the flat path.
        """
        router = self.router
        pending_by_cell = [
            router.cell_snapshot(cell.cell_id, now) for cell in self.cells
        ]
        views_by_cell: List[List] = [[] for _ in self.cells]
        if any(pending_by_cell):
            # Built once per tick, exactly like the flat oracle: the
            # state service's fingerprint/clean-snapshot reuse is
            # stateful, so extra builds would change later skip
            # decisions.  An all-empty tick builds nothing, also like
            # the oracle.
            cell_of_node = self.dispatcher.cell_of_node
            for view in self.orchestrator.state_service.build_views(now):
                cell_id = cell_of_node.get(view.name)
                if cell_id is not None:
                    views_by_cell[cell_id].append(view)
        self._rerouted_uids.clear()
        deferred_by_cell: List[List[Pod]] = []
        spans = self.obs.spans
        for cell in self.cells:
            span_start = spans.begin()
            result = self.orchestrator.scheduling_pass(
                cell.scheduler,
                now,
                pending=pending_by_cell[cell.cell_id],
                views=views_by_cell[cell.cell_id],
                on_unschedulable=(
                    lambda pod, current=cell.cell_id: (
                        self._reroute_unschedulable(pod, current)
                    )
                ),
            )
            spans.end(span_start, "cell_pass", now, cell.cell_id)
            self._consume_pass_result(result, now)
            deferred_by_cell.append(result.deferred)
        self._update_spillover(deferred_by_cell)

    def _reroute_unschedulable(self, pod: Pod, current: int) -> bool:
        """A cell-local ``can_ever_fit`` failure: spill or reject.

        ``True`` moves the pod to a feasible cell (it stays pending);
        ``False`` means no cell in the cluster could ever host it —
        the pass rejects it, matching the flat oracle's verdict.
        """
        target = self.dispatcher.spill_target(pod, current)
        if target is None:
            return False
        self.router.move(pod, target)
        self._rerouted_uids.add(pod.uid)
        self._deferral_streaks.pop(pod.uid, None)
        self.spillover_count += 1
        ledger = self.obs.ledger
        if ledger.enabled:
            ledger.emit(
                self.engine.now, "spillover",
                pod=pod.name, from_cell=current, to_cell=target,
                cause="unschedulable",
            )
        return True

    def _update_spillover(
        self, deferred_by_cell: List[List[Pod]]
    ) -> None:
        """Advance deferral streaks; spill the persistently deferred.

        A pod deferred ``cell_spillover_after`` ticks in a row moves
        to the next-best feasible cell — but only one whose queue is
        strictly shorter than its current cell's, so a *globally*
        saturated cluster does not ping-pong its whole backlog between
        equally overloaded cells every tick.  Pods that progressed —
        placed, killed, or just not deferred this tick — drop out of
        the streak table because it is rebuilt from this tick's
        deferrals only; a pod that stays keeps retrying the spill on
        every subsequent deferred tick.
        """
        threshold = self.scenario.cell_spillover_after
        router = self.router
        streaks: Dict[str, int] = {}
        for cell, deferred in zip(
            self.cells, deferred_by_cell, strict=True
        ):
            for pod in deferred:
                uid = pod.uid
                if uid in self._rerouted_uids:
                    continue  # fresh in its new cell; streak restarts
                if pod not in router:
                    continue  # left the queue mid-pass (preemption)
                streak = self._deferral_streaks.get(uid, 0) + 1
                if streak >= threshold:
                    target = self.dispatcher.spill_target(
                        pod, cell.cell_id
                    )
                    if target is not None and (
                        router.cell_len(target)
                        < router.cell_len(cell.cell_id)
                    ):
                        router.move(pod, target)
                        self.spillover_count += 1
                        ledger = self.obs.ledger
                        if ledger.enabled:
                            ledger.emit(
                                self.engine.now, "spillover",
                                pod=pod.name,
                                from_cell=cell.cell_id,
                                to_cell=target,
                                cause="deferred",
                            )
                        continue
                streaks[uid] = streak
        self._deferral_streaks = streaks

    # -- node churn --------------------------------------------------------

    def _crash_node(self, node_name: str) -> None:
        # The dispatcher must forget the node *before* the base class
        # resubmits its orphans: their re-routing must not count the
        # dead node's capacity or hardware classes.
        live_nodes = {
            node.name: node
            for node in self.cluster.nodes
            if node.name != node_name
        }
        self.dispatcher.note_node_removed(node_name, live_nodes)
        super()._crash_node(node_name)
