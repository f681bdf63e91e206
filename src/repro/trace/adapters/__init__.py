"""Trace adapters: one ``trace=`` spec names the workload.

The package ships the paper's Borg workload in two forms, both
addressable through one string grammar: ``borg-synth``, the
calibrated synthetic slice behind every figure, and ``borg-csv``, a
prepared Borg CSV streamed from disk::

    Scenario(trace="borg-synth:seed=7,jobs=500").run()
    Scenario(trace="borg-csv:path=trace.csv,window=1h,sample=0.05")

A spec is ``name`` or ``name:key=value,key=value``
(:mod:`repro.trace.spec` owns the grammar).  The name selects an
adapter from the :data:`repro.registry.TRACES` registry; the options
parameterise it.  Any other trace either becomes ``borg-csv``'s five
columns or plugs in with the decorator the two built-ins use::

    from repro.registry import register_trace

    @register_trace("my-trace")
    def build_my_trace(spec, seed):
        options = spec.reader("seed")
        ...
        return Trace(...)

Adapters are called as ``factory(spec=TraceSpec, seed=int)`` where
``seed`` is the spec's ``seed`` option resolved against
``DEFAULT_TRACE_SEED``; a registry test holds every registered
factory to that signature.
"""

from __future__ import annotations

from typing import List, NamedTuple, Union

from ...constants import DEFAULT_TRACE_SEED
from ...errors import TraceError
from ...registry import TRACES, register_trace, trace_names
from ..schema import Trace
from ..spec import TraceSpec, parse_trace_spec


def resolve_trace(spec: Union[str, TraceSpec]) -> Trace:
    """Build the :class:`Trace` a spec (string or parsed) describes.

    The spec's ``seed`` option (default ``DEFAULT_TRACE_SEED``) is
    resolved here and passed to the adapter explicitly, so every
    adapter sees the same seeding convention.  Unknown names die with
    the sorted catalogue; bad option values die with the offending
    key.
    """
    if isinstance(spec, str):
        spec = parse_trace_spec(spec)
    factory = TRACES.get(spec.name)
    seed = spec.reader().integer("seed", DEFAULT_TRACE_SEED)
    trace = factory(spec=spec, seed=seed)
    if not isinstance(trace, Trace):
        raise TraceError(
            f"trace adapter {spec.name!r} returned "
            f"{type(trace).__name__}, expected Trace"
        )
    return trace


class TraceCatalogueEntry(NamedTuple):
    """One row of the ``repro traces`` listing."""

    name: str
    summary: str
    spec_example: str
    needs_path: bool


def trace_catalogue() -> List[TraceCatalogueEntry]:
    """All registered adapters with their self-descriptions, sorted.

    Adapters advertise themselves through three optional attributes
    on the factory — ``summary``, ``spec_example``, ``needs_path`` —
    which every built-in sets.
    """
    entries = []
    for name in trace_names():
        factory = TRACES.get(name)
        entries.append(
            TraceCatalogueEntry(
                name=name,
                summary=getattr(factory, "summary", ""),
                spec_example=getattr(factory, "spec_example", name),
                needs_path=bool(getattr(factory, "needs_path", False)),
            )
        )
    return entries


__all__ = [
    "TraceCatalogueEntry",
    "TRACES",
    "register_trace",
    "resolve_trace",
    "trace_catalogue",
    "trace_names",
]

# Import the built-in adapters last so their @register_trace calls see
# a fully initialised registry; the import is for its side effect.
from . import borg as _borg  # noqa: E402,F401
