"""Borg-shaped trace adapters: the paper's own workload, as specs.

``borg-synth`` is the calibrated synthetic generator behind every
figure (:class:`repro.trace.borg.BorgTraceGenerator`, its over-allocator
share scaled with ``jobs``);
``borg-csv`` replays a prepared four-metric CSV — the shape
:func:`repro.trace.loader.load_borg_csv` documents — streamed through
the shared windowing/downsampling pipeline.
"""

from __future__ import annotations

from ...constants import (
    TRACE_OVERALLOCATOR_COUNT,
    TRACE_SCALED_JOB_COUNT,
)
from ...registry import register_trace
from ..borg import BorgTraceGenerator
from ..loader import iter_borg_csv
from ..schema import Trace
from ..spec import TraceSpec
from .common import apply_scaling, materialise, read_scaling


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
    ``borg-csv:path=...`` load equals ``load_borg_csv`` exactly).
    The ``seed`` option is accepted for spec uniformity but unused —
    the file is the randomness.
    """
    options = spec.reader("seed")
    path = options.path()
    scaling = read_scaling(options)
    renumber = options.flag("renumber", scaling.active)
    options.finish()
    return materialise(
        apply_scaling(iter_borg_csv(path), scaling), renumber
    )


build_borg_csv.summary = (
    "prepared Borg-shape CSV (job_id, submit, duration, assigned, max)"
)
build_borg_csv.spec_example = "borg-csv:path=trace.csv,window=1h"
build_borg_csv.needs_path = True
