"""Pluggable registries for schedulers and workloads.

The paper's whole evaluation is "replay one scaled Borg trace under
many configurations"; what varies between configurations is *which
strategy places pods* and *which workload the trace materialises
into*.  Both are now extension points: a strategy or workload plugs in
with a decorator and is immediately addressable by name from
:class:`repro.api.Scenario` and the CLI —

    from repro.registry import register_scheduler

    @register_scheduler("my-policy")
    class MyScheduler(Scheduler):
        ...

    Scenario(scheduler="my-policy").run()

Lookups fail fast with the sorted list of known names, so a typo in a
scenario dies at build time, not deep inside a replay.

This module is intentionally a leaf: it imports nothing but the error
hierarchy, so scheduler and workload modules can register themselves
at import time without cycles.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

from .errors import RegistryError


class Registry:
    """A small name -> factory map with fail-fast semantics.

    * registering a taken name raises (plugins cannot silently shadow
      a built-in or each other);
    * looking up an unknown name raises with the sorted known names.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: Dict[str, Callable] = {}

    def register(self, name: str) -> Callable[[Callable], Callable]:
        """Decorator: bind *name* to the decorated factory.

        The factory is returned unchanged, so classes stay directly
        constructible and functions directly callable.
        """
        if not name or not isinstance(name, str):
            raise RegistryError(
                f"{self.kind} names must be non-empty strings, "
                f"got {name!r}"
            )

        def decorator(factory: Callable) -> Callable:
            if name in self._factories:
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered "
                    f"({self._factories[name]!r})"
                )
            self._factories[name] = factory
            return factory

        return decorator

    def get(self, name: str) -> Callable:
        """The factory registered under *name*; raises with the known
        names when absent."""
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise RegistryError(
                f"unknown {self.kind} {name!r}; known: {known}"
            ) from None

    def unregister(self, name: str) -> None:
        """Remove *name* (primarily for tests tearing down plugins)."""
        if name not in self._factories:
            known = ", ".join(self.names()) or "<none>"
            raise RegistryError(
                f"unknown {self.kind} {name!r}; known: {known}"
            )
        del self._factories[name]

    def names(self) -> Tuple[str, ...]:
        """Sorted registered names."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {list(self.names())})"


#: Scheduling strategies addressable by ``Scenario(scheduler=...)``.
#: Factories are called with the standard knobs (``use_measured``,
#: ``strict_fcfs``, ``preserve_sgx_nodes``, ``indexed``) plus any
#: scenario-level ``scheduler_options`` and must return a
#: :class:`repro.scheduler.base.Scheduler`.
SCHEDULERS = Registry("scheduler")

#: Workload materialisers addressable by ``Scenario(workload=...)``.
#: Factories are called as ``factory(cluster, trace, *, sgx_fraction,
#: seed, scheduler_name, **options)`` and must return a list of
#: :class:`repro.workload.stress.SubmissionPlan`.  A factory that
#: never reads the trace may set ``consumes_trace = False`` on itself;
#: ``Scenario.run`` then skips the trace synthesis for it.
WORKLOADS = Registry("workload")

#: Preemption planners addressable by ``Scenario(preemption_policy=...)``.
#: Factories are called with no arguments and must return a
#: :class:`repro.policy.preemption.PreemptionPolicy`.  The built-in
#: ``none`` (the default) keeps the paper's strictly non-preemptive
#: orchestrator.
PREEMPTION_POLICIES = Registry("preemption policy")

#: Trace adapters addressable by ``Scenario(trace="name:key=val,...")``.
#: Factories are called as ``factory(spec=TraceSpec, seed=int)`` —
#: ``seed`` is the spec's ``seed`` option resolved against
#: ``DEFAULT_TRACE_SEED`` — and must return a
#: :class:`repro.trace.schema.Trace`.  The built-ins live in
#: :mod:`repro.trace.adapters`; ``repro traces`` lists the catalogue.
TRACES = Registry("trace adapter")

#: Cell partition policies addressable by
#: ``Scenario(cell_policy=...)``.  Factories are called as
#: ``factory(nodes=Sequence[Node], cells=int, seed=int)`` and must
#: return a mapping of node name -> cell id covering every node
#: exactly once with ids in ``[0, cells)`` —
#: :func:`repro.cells.policies.partition_nodes` enforces the totality
#: contract on every call.  The built-ins (``balanced``, ``region``,
#: ``capacity-class``) live in :mod:`repro.cells.policies`.
CELLS = Registry("cell policy")


def register_scheduler(name: str) -> Callable[[Callable], Callable]:
    """Class/function decorator adding a scheduler strategy by name."""
    return SCHEDULERS.register(name)


def register_workload(name: str) -> Callable[[Callable], Callable]:
    """Function decorator adding a workload materialiser by name."""
    return WORKLOADS.register(name)


def register_preemption_policy(name: str) -> Callable[[Callable], Callable]:
    """Class/function decorator adding a preemption planner by name."""
    return PREEMPTION_POLICIES.register(name)


def register_trace(name: str) -> Callable[[Callable], Callable]:
    """Function decorator adding a trace adapter by name."""
    return TRACES.register(name)


def register_cell_policy(name: str) -> Callable[[Callable], Callable]:
    """Function decorator adding a cell partition policy by name."""
    return CELLS.register(name)


def scheduler_names() -> Tuple[str, ...]:
    """Sorted names of all registered scheduling strategies."""
    return SCHEDULERS.names()


def workload_names() -> Tuple[str, ...]:
    """Sorted names of all registered workloads."""
    return WORKLOADS.names()


def preemption_policy_names() -> Tuple[str, ...]:
    """Sorted names of all registered preemption planners."""
    return PREEMPTION_POLICIES.names()


def trace_names() -> Tuple[str, ...]:
    """Sorted names of all registered trace adapters."""
    return TRACES.names()


def cell_policy_names() -> Tuple[str, ...]:
    """Sorted names of all registered cell partition policies."""
    return CELLS.names()
