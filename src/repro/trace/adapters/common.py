"""The scaling grammar of ``borg-csv``, the file-backed adapter.

:func:`read_scaling` parses ``start``, ``window``, ``sample``/``stride``
and ``limit``; :func:`repro.trace.loader.iter_borg_csv` applies them to
the parsed columns as the file streams, and :func:`materialise` sorts
the kept records into a :class:`Trace`, renumbered to t=0 when the
spec's ``renumber`` says so.  The window is *relative to the first
record's submit time* (``start=0`` is the beginning of the trace), so
a trace timestamped from any origin clips the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ...errors import TraceError
from ..scaling import renumber_from_zero
from ..schema import JobRecord, Trace
from ..spec import SpecOptions


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
