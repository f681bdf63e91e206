"""Ledger diffing: pinpoint the first decision two runs disagree on.

Modelled on failcore's ``Replayer`` report mode: walk two recorded
decision streams in lockstep, count hits (positions where both runs
took the identical decision) and diffs (positions where they did
not), and surface the *first divergence* with a few records of
context from each side — the moment one run's control plane first
chose differently, which is where a divergence hunt starts.

Headers are compared field-by-field as well: when two ledgers differ,
the header diff usually names the knob (seed, engine flag, preemption
policy) that explains *why* the decision streams split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from .ledger import LEDGER_SCHEMA


@dataclass(frozen=True)
class LedgerFile:
    """One parsed ledger: its header dict and ordered event records."""

    path: str
    header: Dict[str, object]
    events: List[Dict[str, object]]


def load_ledger(path: str) -> LedgerFile:
    """Parse a ``repro.ledger/v2`` JSONL file.

    Raises :class:`~repro.errors.SimulationError` when the file is
    missing, empty, not JSONL, or not a ledger.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
    except OSError as exc:
        raise SimulationError(f"cannot read ledger {path!r}: {exc}") from exc
    if not lines:
        raise SimulationError(f"ledger {path!r} is empty")
    try:
        records = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise SimulationError(
            f"ledger {path!r} is not JSON lines: {exc}"
        ) from exc
    header = records[0]
    if not isinstance(header, dict) or header.get("schema") != LEDGER_SCHEMA:
        raise SimulationError(
            f"ledger {path!r} does not start with a {LEDGER_SCHEMA} header"
        )
    return LedgerFile(path=path, header=header, events=records[1:])


@dataclass(frozen=True)
class Divergence:
    """The first position where the two decision streams disagree."""

    #: 0-based event index of the divergence.
    index: int
    #: The left run's record at that index (``None`` when it ended).
    left: Optional[Dict[str, object]]
    #: The right run's record at that index (``None`` when it ended).
    right: Optional[Dict[str, object]]
    #: Up to ``context`` shared-prefix records preceding the split.
    context: List[Dict[str, object]] = field(default_factory=list)


@dataclass(frozen=True)
class LedgerDiff:
    """Failcore-style hit/diff statistics for two decision streams."""

    left_path: str
    right_path: str
    left_events: int
    right_events: int
    #: Lockstep positions where both records were identical.
    hits: int
    #: Lockstep positions where the records differed.
    diffs: int
    #: Tail records only the left / right run emitted.
    only_left: int
    only_right: int
    #: Header fields whose values differ: ``(key, left, right)``.
    header_diffs: List[Tuple[str, object, object]]
    first_divergence: Optional[Divergence]

    @property
    def identical(self) -> bool:
        """Whether the two decision streams match record-for-record."""
        return self.diffs == 0 and self.only_left == 0 and self.only_right == 0

    def to_dict(self) -> Dict[str, object]:
        first = None
        if self.first_divergence is not None:
            first = {
                "index": self.first_divergence.index,
                "left": self.first_divergence.left,
                "right": self.first_divergence.right,
                "context": self.first_divergence.context,
            }
        return {
            "schema": LEDGER_SCHEMA,
            "left": self.left_path,
            "right": self.right_path,
            "left_events": self.left_events,
            "right_events": self.right_events,
            "hits": self.hits,
            "diffs": self.diffs,
            "only_left": self.only_left,
            "only_right": self.only_right,
            "identical": self.identical,
            "header_diffs": [
                {"field": key, "left": left, "right": right}
                for key, left, right in self.header_diffs
            ],
            "first_divergence": first,
        }


def _header_diffs(
    left: Dict[str, object], right: Dict[str, object]
) -> List[Tuple[str, object, object]]:
    diffs: List[Tuple[str, object, object]] = []
    left_config = left.get("config") or {}
    right_config = right.get("config") or {}
    for key in sorted(set(left_config) | set(right_config)):
        a, b = left_config.get(key), right_config.get(key)
        if a != b:
            diffs.append((f"config.{key}", a, b))
    if left.get("seed") != right.get("seed"):
        diffs.append(("seed", left.get("seed"), right.get("seed")))
    return diffs


def diff_ledgers(
    left: LedgerFile, right: LedgerFile, context: int = 3
) -> LedgerDiff:
    """Walk both event streams in lockstep and report the statistics."""
    overlap = min(len(left.events), len(right.events))
    hits = diffs = 0
    first: Optional[Divergence] = None
    for index in range(overlap):
        if left.events[index] == right.events[index]:
            hits += 1
        else:
            diffs += 1
            if first is None:
                first = Divergence(
                    index=index,
                    left=left.events[index],
                    right=right.events[index],
                    context=left.events[max(0, index - context):index],
                )
    only_left = len(left.events) - overlap
    only_right = len(right.events) - overlap
    if first is None and (only_left or only_right):
        first = Divergence(
            index=overlap,
            left=left.events[overlap] if only_left else None,
            right=right.events[overlap] if only_right else None,
            context=left.events[max(0, overlap - context):overlap],
        )
    return LedgerDiff(
        left_path=left.path,
        right_path=right.path,
        left_events=len(left.events),
        right_events=len(right.events),
        hits=hits,
        diffs=diffs,
        only_left=only_left,
        only_right=only_right,
        header_diffs=_header_diffs(left.header, right.header),
        first_divergence=first,
    )


def _format_record(record: Optional[Dict[str, object]]) -> str:
    if record is None:
        return "<stream ended>"
    return json.dumps(record, sort_keys=True)


def format_diff(diff: LedgerDiff) -> str:
    """Human-readable report (mirrors the failcore report mode)."""
    lines = [
        f"ledger diff: {diff.left_path} vs {diff.right_path}",
        f"  events: {diff.left_events} vs {diff.right_events}",
        f"  hits: {diff.hits}  diffs: {diff.diffs}"
        f"  only-left: {diff.only_left}  only-right: {diff.only_right}",
    ]
    if diff.header_diffs:
        lines.append("  header differences:")
        for key, a, b in diff.header_diffs:
            lines.append(f"    {key}: {a!r} vs {b!r}")
    if diff.identical:
        lines.append("  decision streams are identical")
        return "\n".join(lines)
    first = diff.first_divergence
    lines.append(f"  first divergence at event index {first.index}:")
    for record in first.context:
        lines.append(f"    = {_format_record(record)}")
    lines.append(f"    < {_format_record(first.left)}")
    lines.append(f"    > {_format_record(first.right)}")
    return "\n".join(lines)
