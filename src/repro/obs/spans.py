"""Span recording: Chrome trace-event JSON for Perfetto.

Spans measure the *replay machinery itself* — the whole replay, each
scheduling pass, view rebuilds, preemption planning.
They are wall-time intervals (``time.perf_counter``) annotated with the
simulated time at which the work happened, exported as complete-event
(``"ph": "X"``) Chrome trace-event JSON: open the file in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` and the replay's hot
path renders as a flame timeline.

Like the ledger, the disabled recorder is allocation-free: the begin/
end protocol passes positionally, :data:`NULL_SPANS` returns ``0.0``
from :meth:`begin` and drops :meth:`end`, so an unobserved replay pays
two empty method calls per pass and allocates nothing.  Wall-clock
reads live here — outside the simulated-time packages — on purpose:
span durations are diagnostic, never an input to any scheduling
decision, so determinism of the replay (and of the ledger) is
untouched.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

#: Trace-event category for all replay spans.
SPAN_CATEGORY = "replay"


class SpanRecorder:
    """Collects complete-event spans relative to its creation instant."""

    enabled = True

    __slots__ = ("_origin", "_events")

    def __init__(self):
        self._origin = time.perf_counter()
        self._events: List[Dict[str, object]] = []

    def begin(self) -> float:
        """Start a span; pass the returned token to :meth:`end`."""
        return time.perf_counter()

    def end(self, t0: float, name: str,
            sim_time: Optional[float] = None) -> None:
        """Close the span opened at ``t0`` under ``name``.

        ``sim_time`` tags the span with the simulated clock.
        Positional-friendly so the null recorder's call sites never
        build keyword dicts.
        """
        now = time.perf_counter()
        args: Dict[str, object] = {}
        if sim_time is not None:
            args["sim_time"] = sim_time
        self._events.append({
            "name": name,
            "cat": SPAN_CATEGORY,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (t0 - self._origin) * 1e6,
            "dur": (now - t0) * 1e6,
            "args": args,
        })

    @property
    def span_count(self) -> int:
        """Spans recorded so far."""
        return len(self._events)

    def to_dict(self) -> Dict[str, object]:
        """The Chrome trace-event JSON object."""
        return {
            "traceEvents": self._events,
            "displayTimeUnit": "ms",
        }

    def write(self, path: str) -> str:
        """Write the trace JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path


class NullSpanRecorder:
    """The disabled recorder: ``begin``/``end`` cost one empty call."""

    enabled = False

    __slots__ = ()

    def begin(self) -> float:
        return 0.0

    def end(self, t0: float, name: str,
            sim_time: Optional[float] = None) -> None:
        return None

    @property
    def span_count(self) -> int:
        return 0

    def to_dict(self) -> Dict[str, object]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def write(self, path: str) -> Optional[str]:
        return None


#: The shared disabled span recorder.
NULL_SPANS = NullSpanRecorder()
