"""Object-layout regressions for the hot-path rebuild.

Every class in the hot-path modules is slotted, and no slotted class
in the package gets a ``__dict__`` back from a base.  The lean layouts
(``__slots__`` on pods, records, node views and TSDB points) must not
change any observable semantics: pickling of the public API types
keeps working, Pod keeps identity equality/hash, and NodeView keeps
generated field-wise equality while staying unhashable.
"""

import importlib
import pickle

import pytest

from repro.api import Scenario
from repro.cluster.resources import ResourceVector
from repro.monitoring.tsdb import Point
from repro.orchestrator.api import make_pod_spec
from repro.orchestrator.pod import Pod
from repro.scheduler.base import NodeView
from repro.simulation.engine import SimulationEngine

TINY = dict(trace="borg-synth:jobs=20", sgx_fraction=0.5, seed=3)

#: Modules a replay runs per pod, per event or per monitoring sample.
#: A class here without ``__slots__`` (or ``@dataclass(slots=True)``)
#: gives every instance a ``__dict__`` again.
HOT_LAYOUT_MODULES = (
    "repro.monitoring.aggregate",
    "repro.monitoring.heapster",
    "repro.monitoring.probe",
    "repro.obs.ledger",
    "repro.obs.metrics",
    "repro.obs.observer",
    "repro.obs.spans",
    "repro.orchestrator.kubelet",
    "repro.orchestrator.pod",
    "repro.orchestrator.queue",
    "repro.scheduler.base",
    "repro.scheduler.binpack",
    "repro.simulation.engine",
    "repro.simulation.runner",
)


def classes_of(module):
    """Every class *module* defines, nested classes included."""
    def own(namespace):
        return [
            value for value in namespace.values()
            if isinstance(value, type)
            and value.__module__ == module.__name__
        ]

    found, pending = [], own(vars(module))
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(own(vars(cls)))
    return sorted(found, key=lambda cls: cls.__qualname__)


class TestSlottedLayouts:
    @pytest.mark.parametrize("name", HOT_LAYOUT_MODULES)
    def test_every_hot_class_is_slotted(self, name):
        module = importlib.import_module(name)
        unslotted = [
            cls.__qualname__ for cls in classes_of(module)
            # Protocols are structural types, never instantiated.
            if not getattr(cls, "_is_protocol", False)
            and ("__slots__" not in vars(cls) or cls.__dictoffset__)
        ]
        assert unslotted == [], f"{name}: classes with a __dict__"

    def test_no_slotted_class_inherits_a_dict(self, repro_modules):
        leaky = [
            f"{module.__name__}.{cls.__qualname__}"
            for module in repro_modules
            for cls in classes_of(module)
            if "__slots__" in vars(cls) and cls.__dictoffset__
        ]
        assert leaky == [], "slotted classes whose bases add a __dict__"


class TestPickleRoundTrips:
    def test_pod_spec_round_trips(self):
        spec = make_pod_spec(
            "job", duration_seconds=30.0, declared_epc_bytes=8 << 20
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.resources.requests == spec.resources.requests

    def test_scenario_round_trips(self):
        scenario = Scenario(scheduler="spread", **TINY)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario

    def test_run_result_round_trips_with_identical_signature(self):
        result = Scenario(**TINY).run()
        clone = pickle.loads(pickle.dumps(result))
        assert clone.signature() == result.signature()
        assert clone.to_row() == result.to_row()

    def test_point_round_trips(self):
        point = Point.make(1.5, 42.0, {"nodename": "n", "pod_name": "p"})
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert hash(clone) == hash(point)
        assert clone.tags == point.tags


class TestPodIdentitySemantics:
    def test_equality_is_identity(self):
        spec = make_pod_spec("twin", duration_seconds=10.0)
        first, second = Pod(spec, 0.0, "1"), Pod(spec, 0.0, "2")
        assert first == first
        assert first != second  # same spec, distinct pods

    def test_hash_is_identity_and_set_usable(self):
        spec = make_pod_spec("twin", duration_seconds=10.0)
        pods = {Pod(spec, 0.0, str(uid)) for uid in range(3)}
        assert len(pods) == 3

    def test_slots_prevent_stray_attributes(self):
        pod = Pod(make_pod_spec("p", duration_seconds=1.0), 0.0, "1")
        with pytest.raises(AttributeError):
            pod.scratch = 1


class TestNodeViewSemantics:
    def make_view(self):
        return NodeView(
            name="n",
            sgx_capable=True,
            capacity=ResourceVector(1000, 2000, 30),
            used=ResourceVector(100, 200, 3),
        )

    def test_equality_is_field_wise(self):
        assert self.make_view() == self.make_view()
        other = self.make_view()
        other.used = ResourceVector(101, 200, 3)
        assert self.make_view() != other

    def test_stays_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.make_view())

    def test_slots_prevent_stray_attributes(self):
        with pytest.raises(AttributeError):
            self.make_view().scratch = 1


class TestRescheduleFusion:
    """engine.reschedule_in == handle.cancel() + schedule_in, exactly."""

    def test_matches_unfused_pair(self):
        fused, unfused = SimulationEngine(), SimulationEngine()
        noop = lambda: None  # noqa: E731
        fh = fused.schedule_in(5.0, noop)
        uh = unfused.schedule_in(5.0, noop)
        fh2 = fused.reschedule_in(fh, 7.0, noop)
        uh.cancel()
        uh2 = unfused.schedule_in(7.0, noop)
        assert (fh2.time, fh2.seq) == (uh2.time, uh2.seq)
        assert fh.cancelled and uh.cancelled
        assert fused.pending_events == unfused.pending_events == 1

    def test_none_and_fired_handles_count_as_fresh_schedules(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.reschedule_in(None, 1.0, lambda: fired.append(1))
        engine.run(until=2.0)
        assert fired == [1]
        # The fired handle is inert: rescheduling it must not disturb
        # the pending count the way cancelling a live event would.
        engine.reschedule_in(handle, 1.0, lambda: None)
        assert engine.pending_events == 1

    def test_negative_delay_rejected(self):
        from repro.errors import SimulationError

        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.reschedule_in(None, -1.0, lambda: None)

    def test_compaction_triggers_through_fused_path(self):
        engine = SimulationEngine()
        handles = [
            engine.schedule_in(float(i), lambda: None) for i in range(64)
        ]
        for handle in handles[:40]:
            engine.reschedule_in(handle, 100.0, lambda: None)
        # 40 cancels against a >=32-entry heap must have compacted at
        # least once: the heap never holds >2x the live events.
        assert len(engine._queue) <= 2 * engine.pending_events
        assert engine.pending_events == 64
