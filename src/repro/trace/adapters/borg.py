"""The two built-in trace adapters: the paper's Borg workload, as specs.

``borg-synth`` is the calibrated synthetic generator behind every
figure (:class:`repro.trace.borg.BorgTraceGenerator`, its over-allocator
share scaled with ``jobs``);
``borg-csv`` replays a prepared five-column CSV — the shape
:mod:`repro.trace.loader` documents — parsed in chunks into columns
and windowed/downsampled before any record is built.

``borg-csv``'s scaling grammar: :func:`read_scaling` parses ``start``,
``window``, ``sample``/``stride`` and ``limit``;
:func:`repro.trace.loader.iter_borg_csv` applies them to the parsed
columns as the file streams, and :func:`materialise` sorts the kept
records into a :class:`Trace`, renumbered to t=0 when the spec's
``renumber`` says so.  The window is *relative to the first record's
submit time* (``start=0`` is the beginning of the trace), so a trace
timestamped from any origin clips the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ...constants import (
    TRACE_OVERALLOCATOR_COUNT,
    TRACE_SCALED_JOB_COUNT,
)
from ...errors import TraceError
from ...registry import register_trace
from ..borg import BorgTraceGenerator
from ..loader import iter_borg_csv
from ..scaling import renumber_from_zero
from ..schema import JobRecord, Trace
from ..spec import SpecOptions, TraceSpec


@dataclass(frozen=True)
class StreamScaling:
    """The parsed scaling knobs of one ``borg-csv`` spec."""

    start: Optional[float] = None
    window: Optional[float] = None
    stride: int = 1
    limit: Optional[int] = None

    @property
    def bounds(self) -> Optional[Tuple[float, float]]:
        """The relative window ``[start, end)``, or ``None`` if unclipped."""
        if self.start is None and self.window is None:
            return None
        start = self.start or 0.0
        end = start + self.window if self.window is not None else math.inf
        return start, end

    @property
    def active(self) -> bool:
        return (
            self.start is not None
            or self.window is not None
            or self.stride != 1
            or self.limit is not None
        )


def read_scaling(options: SpecOptions) -> StreamScaling:
    """Claim and parse the shared scaling options.

    ``sample`` is a keep-fraction mapped onto the nearest stride
    (``sample=0.05`` keeps every 20th record — the paper's own
    frequency reduction, deterministic and streaming-friendly);
    ``stride`` names the stride directly.  Both together are a
    contradiction and die.
    """
    start = options.duration("start", None)
    window = options.duration("window", None)
    sample = options.fraction("sample", None)
    stride = options.integer("stride", None, minimum=1)
    limit = options.integer("limit", None, minimum=1)
    if sample is not None and stride is not None:
        raise TraceError(
            "trace spec options 'sample' and 'stride' both given; "
            "they set the same downsampling knob"
        )
    if sample is not None:
        if sample <= 0.0:
            raise TraceError(
                f"trace spec option 'sample' must be in (0, 1], "
                f"got {sample:g}"
            )
        stride = max(1, round(1.0 / sample))
    if start is not None and start < 0:
        raise TraceError(
            f"trace spec option 'start' must be >= 0, got {start:g}"
        )
    if window is not None and window <= 0:
        raise TraceError(
            f"trace spec option 'window' must be positive, "
            f"got {window:g}"
        )
    return StreamScaling(
        start=start, window=window, stride=stride or 1, limit=limit
    )


def materialise(
    records: Iterable[JobRecord], renumber: bool
) -> Trace:
    """The kept records as a :class:`Trace`, renumbered to t=0 if asked."""
    trace = Trace(records)
    return renumber_from_zero(trace) if renumber else trace


def default_overallocators(n_jobs: int) -> int:
    """The paper's over-allocator share (44 of 663) scaled to *n_jobs*."""
    return round(
        n_jobs * TRACE_OVERALLOCATOR_COUNT / TRACE_SCALED_JOB_COUNT
    )


@register_trace("borg-synth")
def build_borg_synth(spec: TraceSpec, seed: int) -> Trace:
    """The calibrated synthetic scaled Borg trace (the paper's workload).

    Options: ``seed`` (default 42), ``jobs`` (default 663, the scaled
    slice), ``overallocators`` (default: the paper's 44-of-663 share
    scaled with ``jobs``), ``window`` (submission span, default the
    1-hour slice; accepts duration suffixes, e.g. ``window=2h``).
    """
    options = spec.reader("seed")
    jobs = options.integer("jobs", None, minimum=1)
    overallocators = options.integer("overallocators", None, minimum=0)
    window = options.duration("window", None)
    options.finish()
    kwargs = {}
    if jobs is not None:
        kwargs["n_jobs"] = jobs
        kwargs["overallocators"] = default_overallocators(jobs)
    if overallocators is not None:
        kwargs["overallocators"] = overallocators
    if window is not None:
        kwargs["window_seconds"] = window
    return BorgTraceGenerator(seed=seed).scaled_trace(**kwargs)


build_borg_synth.summary = (
    "calibrated synthetic scaled Borg trace (the paper's workload)"
)
build_borg_synth.spec_example = "borg-synth:seed=7,jobs=500"
build_borg_synth.needs_path = False


@register_trace("borg-csv")
def build_borg_csv(spec: TraceSpec, seed: int) -> Trace:
    """A prepared Borg-shape CSV, streamed.

    Options: ``path`` (required), ``start``/``window`` (relative clip),
    ``sample`` (keep-fraction) or ``stride``, ``limit``, ``renumber``
    (default: only when any scaling option is active, so a plain
    ``borg-csv:path=...`` load keeps the file's submit times).
    The ``seed`` option is accepted for spec uniformity but unused —
    the file is the randomness.
    """
    options = spec.reader("seed")
    path = options.path()
    scaling = read_scaling(options)
    renumber = options.flag("renumber", scaling.active)
    options.finish()
    return materialise(
        iter_borg_csv(path, scaling.bounds, scaling.stride, scaling.limit),
        renumber,
    )


build_borg_csv.summary = (
    "prepared Borg-shape CSV (job_id, submit, duration, assigned, max)"
)
build_borg_csv.spec_example = "borg-csv:path=trace.csv,window=1h"
build_borg_csv.needs_path = True
