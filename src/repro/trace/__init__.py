"""Google Borg trace substrate.

The paper evaluates against the 2011 Google Borg trace, down-scaled along
two dimensions (Section VI-B): a 1-hour time slice ([6480 s, 10080 s) of
the first day) and frequency sampling (every 1200th job), yielding 663
jobs of which 44 allocate more memory than they advertise.

The public trace itself is not redistributable here, so this package
provides both a streaming reader for a prepared CSV of the trace
(:mod:`repro.trace.loader`) and a calibrated synthetic generator
(:mod:`repro.trace.borg`) reproducing the published marginals: the
duration CDF of Fig. 4, the max-memory CDF of Fig. 3 and the concurrency
band of Fig. 5.  All evaluation numbers in the paper are functions of
these marginals at the scaled size, which is what the substitution
preserves.

Both are trace adapters (:mod:`repro.trace.adapters`), addressed by one
spec string resolved via :func:`resolve_trace`: ``borg-synth`` (the
generator, e.g. ``"borg-synth:seed=7,jobs=500"``) and ``borg-csv``
(the file, e.g. ``"borg-csv:path=trace.csv,window=1h,sample=0.1"``).
Any other trace is converted to ``borg-csv``'s five columns or
registered as a plugin with :func:`repro.registry.register_trace`.
"""

from .adapters import resolve_trace, trace_catalogue
from .borg import BorgTraceGenerator, synthetic_scaled_trace
from .scaling import renumber_from_zero
from .schema import JobRecord, Trace
from .spec import (
    TraceSpec,
    format_trace_spec,
    make_trace_spec,
    parse_trace_spec,
)
from .stats import cdf_at

__all__ = [
    "BorgTraceGenerator",
    "JobRecord",
    "Trace",
    "TraceSpec",
    "cdf_at",
    "format_trace_spec",
    "make_trace_spec",
    "parse_trace_spec",
    "renumber_from_zero",
    "resolve_trace",
    "synthetic_scaled_trace",
    "trace_catalogue",
]
