"""Discrete-event engine: ordering, cancellation, termination."""

import math

import pytest

from repro.errors import SimulationError
from repro.simulation.engine import SimulationEngine


class TestOrdering:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(3.0, lambda: fired.append(3))
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1, 2, 3]

    def test_ties_break_by_scheduling_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append("first"))
        engine.schedule_at(1.0, lambda: fired.append("second"))
        engine.run()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]
        assert engine.now == 5.0

    def test_schedule_in_is_relative(self):
        engine = SimulationEngine(start_time=10.0)
        seen = []
        engine.schedule_in(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [15.0]

    def test_events_can_schedule_events(self):
        engine = SimulationEngine()
        fired = []

        def chain():
            fired.append(engine.now)
            if engine.now < 3.0:
                engine.schedule_in(1.0, chain)

        engine.schedule_at(1.0, chain)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]


class TestValidation:
    def test_scheduling_in_past_rejected(self):
        engine = SimulationEngine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule_in(-1.0, lambda: None)

    # Every comparison with NaN is False, so ``time < now`` and
    # ``delay < 0`` let it through and its key breaks the heap order.
    def test_nan_time_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(math.nan, lambda: None)
        assert engine.pending_events == 0

    def test_nan_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_in(math.nan, lambda: None)
        assert engine.pending_events == 0

    def test_nan_reschedule_rejected_before_cancelling(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule_in(1.0, lambda: fired.append(1))
        with pytest.raises(SimulationError):
            engine.reschedule_in(handle, math.nan, lambda: None)
        # The old event is untouched: still live, still counted.
        assert not handle.cancelled
        assert engine.pending_events == 1
        engine.run()
        assert fired == [1]

    def test_runaway_loop_detected(self):
        engine = SimulationEngine()

        def forever():
            engine.schedule_in(0.0, forever)

        engine.schedule_at(0.0, forever)
        with pytest.raises(SimulationError, match="runaway"):
            engine.run(max_events=1000)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = SimulationEngine()
        handle = engine.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()

    def test_pending_events_excludes_cancelled(self):
        engine = SimulationEngine()
        keep = engine.schedule_at(1.0, lambda: None)
        drop = engine.schedule_at(2.0, lambda: None)
        drop.cancel()
        assert engine.pending_events == 1
        assert keep.time == 1.0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_when_idle(self):
        engine = SimulationEngine()
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_fired_events_counter(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.run()
        assert engine.fired_events == 1


class TestPendingCounter:
    def test_counter_tracks_schedule_fire_cancel(self):
        engine = SimulationEngine()
        handles = [
            engine.schedule_at(float(i), lambda: None) for i in range(5)
        ]
        assert engine.pending_events == 5
        handles[0].cancel()
        assert engine.pending_events == 4
        engine.run(until=2.5)
        assert engine.pending_events == 2

    def test_cancel_after_fire_is_noop(self):
        engine = SimulationEngine()
        handle = engine.schedule_at(1.0, lambda: None)
        engine.run()
        assert engine.pending_events == 0
        handle.cancel()
        handle.cancel()
        assert engine.pending_events == 0

    def test_counter_matches_queue_census(self):
        engine = SimulationEngine()
        handles = [
            engine.schedule_at(float(i % 7), lambda: None) for i in range(50)
        ]
        for handle in handles[::3]:
            handle.cancel()
        census = sum(1 for e in engine._queue if not e[2].cancelled)
        assert engine.pending_events == census

    def test_cancel_during_run_keeps_counter_consistent(self):
        engine = SimulationEngine()
        victim = engine.schedule_at(5.0, lambda: None)
        engine.schedule_at(1.0, victim.cancel)
        engine.run()
        assert engine.pending_events == 0
        assert engine.fired_events == 1


class TestCompaction:
    def test_dominating_cancellations_shrink_the_heap(self):
        engine = SimulationEngine()
        handles = [
            engine.schedule_at(float(i), lambda: None) for i in range(1000)
        ]
        for handle in handles[:900]:
            handle.cancel()
        assert engine.pending_events == 100
        # Dead handles were compacted away, not retained until their
        # timestamps drain.
        assert len(engine._queue) <= 200

    def test_compaction_preserves_firing_order(self):
        engine = SimulationEngine()
        fired = []
        keepers = []
        for i in range(300):
            engine.schedule_at(float(i), lambda i=i: fired.append(i))
            if i % 10 == 0:
                keepers.append(i)
        # Cancel everything not a keeper (in one pass so the heap sees
        # many dead entries at once and compacts mid-stream).
        for _, _, handle in list(engine._queue):
            if int(handle.time) not in keepers:
                handle.cancel()
        engine.run()
        assert fired == keepers

    def test_small_cancel_counts_do_not_compact(self):
        engine = SimulationEngine()
        handles = [
            engine.schedule_at(float(i), lambda: None) for i in range(20)
        ]
        for handle in handles[:10]:
            handle.cancel()
        assert len(engine._queue) == 20  # below the compaction floor
        engine.run()
        assert engine.fired_events == 10

    def test_threshold_is_proportional_to_heap_size(self):
        # The compaction trigger scales with the heap: cancelled
        # handles may pile up to just under half the heap, and the
        # very next cancel that tips the ratio compacts.  Pin the
        # bound exactly so the policy can't silently regress to a
        # fixed count.
        n = 400
        engine = SimulationEngine()
        handles = [
            engine.schedule_at(float(i), lambda: None) for i in range(n)
        ]
        # One shy of the threshold: cancelled * 2 < len(queue).
        for handle in handles[: n // 2 - 1]:
            handle.cancel()
        assert len(engine._queue) == n  # not yet compacted
        assert engine._cancelled == n // 2 - 1
        # Tipping cancel: cancelled * 2 == len(queue) -> compact.
        handles[n // 2 - 1].cancel()
        assert len(engine._queue) == engine.pending_events == n // 2
        assert engine._cancelled == 0

    def test_compaction_floor_exempts_tiny_heaps(self):
        floor = SimulationEngine.COMPACT_MIN_QUEUE
        engine = SimulationEngine()
        handles = [
            engine.schedule_at(float(i), lambda: None)
            for i in range(floor - 1)
        ]
        for handle in handles:
            handle.cancel()
        # Every event cancelled, yet the heap stays intact: below the
        # floor, compaction would cost more than the dead entries do.
        assert len(engine._queue) == floor - 1
        engine.run()
        assert engine.fired_events == 0
