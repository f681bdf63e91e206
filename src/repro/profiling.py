"""Profiling harness for whole-replay hot-path work.

Two complementary views of one scenario run:

* **Deterministic top frames** — the run executes under
  :mod:`cProfile`; the report keeps the top-N frames by internal time
  (``tottime``), which is what the layer-by-layer allocation diet is
  steered by.
* **Collapsed stacks** — a background sampling thread snapshots the
  run's Python stack at a fixed interval and folds the samples into
  Brendan Gregg's collapsed format (``frame;frame;frame count``, one
  stack per line), directly consumable by ``flamegraph.pl`` and
  compatible viewers.

Both views come from a single run (the sampler observes the profiled
run), so sampled stacks carry cProfile's tracing overhead.  That skews
absolute times but not the *shape* of the flame graph, which is what
the collapsed output is for; the ``wall_seconds`` figure in the report
is measured around the traced run and should not be quoted as the
scenario's native speed — ``bench/run.py`` owns that number.

The CLI front-end is ``repro profile`` (see :mod:`repro.cli`), which
accepts every scenario flag ``repro run`` does and is wired into CI as
an uploaded artifact.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

#: Schema tag of :meth:`ProfileReport.to_json` documents.
PROFILE_SCHEMA = "repro.profile/v1"

#: Default number of frames kept in the top-frame table.
DEFAULT_TOP = 25

#: Default sampling interval (seconds) for collapsed stacks.
DEFAULT_SAMPLE_INTERVAL = 0.005

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class FrameStat:
    """One function's aggregate cost in the profiled run."""

    function: str
    file: str
    line: int
    ncalls: int
    primitive_calls: int
    tottime: float
    cumtime: float


def _frame_label(filename: str, name: str) -> str:
    """A short ``file.py:func`` label for stack frames."""
    return f"{os.path.basename(filename)}:{name}"


class _StackSampler(threading.Thread):
    """Samples one thread's Python stack into collapsed-stack counts.

    Purely observational: it never touches the sampled thread's state,
    so the simulated run's results (seeded RNG, event order) are
    bit-identical with and without sampling.
    """

    def __init__(self, target_ident: int, interval: float):
        super().__init__(name="repro-profile-sampler", daemon=True)
        self._target = target_ident
        self._interval = interval
        self._stop_event = threading.Event()
        self.counts: Dict[str, int] = {}
        self.samples = 0

    def run(self) -> None:  # pragma: no cover - timing-dependent thread
        wait = self._stop_event.wait
        while not wait(self._interval):
            frame = sys._current_frames().get(self._target)
            if frame is None:
                continue
            stack: List[str] = []
            while frame is not None:
                code = frame.f_code
                stack.append(_frame_label(code.co_filename, code.co_name))
                frame = frame.f_back
            stack.reverse()
            key = ";".join(stack)
            self.counts[key] = self.counts.get(key, 0) + 1
            self.samples += 1

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


@dataclass(frozen=True, slots=True)
class ProfileReport:
    """What one profiled run measured."""

    wall_seconds: float
    total_calls: int
    primitive_calls: int
    frames: Tuple[FrameStat, ...]
    #: Collapsed stack -> number of samples that hit it.
    collapsed: Dict[str, int]
    sample_count: int
    sample_interval: float

    def top_table(self, limit: Optional[int] = None) -> str:
        """The top-frame table, ``tottime``-descending."""
        frames = self.frames if limit is None else self.frames[:limit]
        header = (
            f"{'ncalls':>12s}  {'tottime':>9s}  {'percall':>9s}  "
            f"{'cumtime':>9s}  function"
        )
        lines = [header]
        for frame in frames:
            calls = (
                str(frame.ncalls)
                if frame.ncalls == frame.primitive_calls
                else f"{frame.ncalls}/{frame.primitive_calls}"
            )
            percall = (
                frame.tottime / frame.ncalls if frame.ncalls else 0.0
            )
            where = _frame_label(frame.file, frame.function)
            if frame.line:
                where += f":{frame.line}"
            lines.append(
                f"{calls:>12s}  {frame.tottime:9.4f}  {percall:9.6f}  "
                f"{frame.cumtime:9.4f}  {where}"
            )
        return "\n".join(lines)

    def collapsed_lines(self) -> List[str]:
        """``stack count`` lines in flamegraph.pl collapsed format.

        Sorted by descending count then stack text, so output is
        stable for a given sample set.
        """
        ordered = sorted(
            self.collapsed.items(), key=lambda item: (-item[1], item[0])
        )
        return [f"{stack} {count}" for stack, count in ordered]

    def to_dict(self) -> Dict[str, object]:
        """The report as a schema-tagged plain document."""
        return {
            "schema": PROFILE_SCHEMA,
            "wall_seconds": self.wall_seconds,
            "total_calls": self.total_calls,
            "primitive_calls": self.primitive_calls,
            "frames": [
                {
                    "function": frame.function,
                    "file": frame.file,
                    "line": frame.line,
                    "ncalls": frame.ncalls,
                    "primitive_calls": frame.primitive_calls,
                    "tottime": frame.tottime,
                    "cumtime": frame.cumtime,
                }
                for frame in self.frames
            ],
            "samples": {
                "count": self.sample_count,
                "interval_seconds": self.sample_interval,
                "stacks": [
                    {"stack": stack, "count": count}
                    for stack, count in sorted(
                        self.collapsed.items(),
                        key=lambda item: (-item[1], item[0]),
                    )
                ],
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a schema-tagged JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def write_collapsed(self, path: str) -> int:
        """Write the collapsed stacks to *path*; returns lines written.

        The file feeds straight into ``flamegraph.pl`` (or speedscope's
        collapsed importer).
        """
        lines = self.collapsed_lines()
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)


def profile_call(
    fn: Callable[[], T],
    top: int = DEFAULT_TOP,
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
) -> Tuple[T, ProfileReport]:
    """Run *fn* under cProfile plus the stack sampler.

    Returns ``(fn's result, report)``.  *top* bounds the frame table;
    *sample_interval* <= 0 disables sampling (collapsed output empty).
    """
    sampler: Optional[_StackSampler] = None
    if sample_interval > 0:
        sampler = _StackSampler(threading.get_ident(), sample_interval)
        sampler.start()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    try:
        profiler.enable()
        try:
            result = fn()
        finally:
            profiler.disable()
    finally:
        wall = time.perf_counter() - start
        if sampler is not None:
            sampler.stop()
    stats = pstats.Stats(profiler)
    entries = []
    total_calls = 0
    primitive_calls = 0
    for (filename, line, name), row in stats.stats.items():
        cc, nc, tt, ct, _callers = row
        total_calls += nc
        primitive_calls += cc
        entries.append(
            FrameStat(
                function=name,
                file=filename,
                line=line,
                ncalls=nc,
                primitive_calls=cc,
                tottime=tt,
                cumtime=ct,
            )
        )
    # tottime-descending; (file, line, name) breaks exact-time ties so
    # two runs of the same workload list frames in a stable order.
    entries.sort(
        key=lambda f: (-f.tottime, f.file, f.line, f.function)
    )
    report = ProfileReport(
        wall_seconds=wall,
        total_calls=total_calls,
        primitive_calls=primitive_calls,
        frames=tuple(entries[:top]),
        collapsed=dict(sampler.counts) if sampler is not None else {},
        sample_count=sampler.samples if sampler is not None else 0,
        sample_interval=sample_interval if sample_interval > 0 else 0.0,
    )
    return result, report


def profile_scenario(
    scenario,
    top: int = DEFAULT_TOP,
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
):
    """Profile one :class:`repro.api.Scenario` run.

    Returns ``(RunResult, ProfileReport)``.  The scenario executes
    exactly as :meth:`Scenario.run` would — profiling observes, never
    perturbs, so the result's :meth:`~repro.api.RunResult.signature`
    matches an unprofiled run bit for bit.
    """
    return profile_call(
        scenario.run, top=top, sample_interval=sample_interval
    )
