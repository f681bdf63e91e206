"""The decision ledger: every scheduling decision, one JSONL record.

The replay engines answer *what* happened (``RunResult`` counters,
bit-for-bit signatures); the ledger answers *why*.  Every decision the
control plane takes — a pass beginning, a placement, a deferral with
its wait reason, an eviction with its planner cost, a trigger firing,
a view-cache rebuild — is appended as one compact record and streamed
to a JSON-lines file:

* line 1 is the **header**: the ``repro.ledger/v2`` schema tag, the
  run's seed, a primitive snapshot of the replay config (so a diff can
  say *which knob* differed) and the declared event kinds;
* every further line is one **event**: ``{"t": sim_time, "i": seq,
  "kind": ..., **payload}`` with sorted keys, so two deterministic
  runs produce byte-identical files.

The schema is frozen in :data:`LEDGER_EVENT_KINDS`: every emit site
may only use a declared kind and that kind's declared payload fields,
and payload values must be primitives (pod *names*, node *names*,
counts, costs — never live ``Pod``/``NodeView`` objects).  The OBS001
static-analysis rule enforces both at lint time; :meth:`DecisionLedger.
emit` re-checks at run time so a drifting caller cannot silently write
undocumented records.

**The disabled path is allocation-free.**  Emit sites follow the
idiom::

    ledger = self.ledger
    if ledger.enabled:
        ledger.emit(now, "placement", pod=pod.name, node=chosen.name,
                    runner_ups=len(candidates) - 1)

:data:`NULL_LEDGER` answers ``enabled`` with a plain ``False`` class
attribute, so a disabled replay pays one attribute read per site and
never builds the keyword dict.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import SimulationError

#: Schema tag written into every ledger header.
LEDGER_SCHEMA = "repro.ledger/v2"

#: Ledger records buffered before a stream flush.
BUFFER_RECORDS = 4096

#: The frozen ``repro.ledger/v2`` schema table: event kind -> the
#: payload fields that kind may carry (beyond the implicit ``t``
#: sim-time, ``i`` sequence number and ``kind`` discriminator).  Emit
#: sites must stay inside this table — OBS001 checks statically,
#: :meth:`DecisionLedger.emit` at run time — and it holds only what
#: replays record: every kind has an emit site, and no field is one
#: constant at every site of its kind.
LEDGER_EVENT_KINDS: Dict[str, Tuple[str, ...]] = {
    #: A scheduling pass started over a non-empty pending snapshot.
    "pass_begin": ("pending",),
    #: The pass finished: its outcome counts.
    "pass_end": (
        "placed", "deferred", "rejected", "requeued", "killed",
        "evicted", "preemptions",
    ),
    #: The strategy bound a pod to a node.
    "placement": ("pod", "node", "runner_ups"),
    #: The pass left a pod pending, with its classified wait reason.
    "deferral": ("pod", "reason"),
    #: The pass rejected a pod as permanently unschedulable (the pod's
    #: ``failure_reason`` says why).
    "rejection": ("pod",),
    #: A launch failed transiently; the pod went back to the queue,
    #: eligible again on the next pass.
    "requeue": ("pod",),
    #: A launch failed terminally; the pod was killed at admission.
    "launch_killed": ("pod", "node", "reason"),
    #: The preemption planner's verdict for one deferred pod
    #: (``node`` is ``None`` / ``cost`` is ``-1.0`` when no eviction
    #: set helps).
    "preemption_plan": ("pod", "node", "victims", "cost"),
    #: A planned preemption executed: the pod placed by evicting.
    "preemption": ("pod", "node", "victims", "cost"),
    #: One victim killed (and resubmitted) by the preemption step.
    "eviction": ("victim", "node", "preemptor", "lost_work_s"),
    #: A cluster transition that could make a scheduling pass useful
    #: (``event`` is ``pod-submitted``, ``pod-requeued``,
    #: ``pod-completed`` or ``pod-killed``).
    "trigger": ("event", "pod", "node"),
    #: The state service served node views (rebuilt or reused).
    "cache_rebuild": ("reused",),
    #: The replay converged; the run's headline counters.
    "run_end": ("makespan_s", "passes", "preemptions", "evictions"),
}

#: Frozen-set mirror of the table for O(1) payload validation.
_KIND_FIELDS: Dict[str, frozenset] = {
    kind: frozenset(fields)
    for kind, fields in LEDGER_EVENT_KINDS.items()
}

#: One shared encoder — ``json.dumps`` with non-default arguments
#: builds a fresh ``JSONEncoder`` per call.  Used for the header line
#: and as the fallback for values the fast formatter below does not
#: special-case.
_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
).encode

#: Printable ASCII minus ``"`` and ``\`` — strings of these need no
#: JSON escaping, which covers every generated pod/node/reason name.
_SAFE_STR = re.compile(r'^[ !#-\[\]-~]*$').match


def _json_value(value) -> str:
    """JSON-encode one primitive, byte-compatible with ``_encode``.

    ``repr`` of an int/float is exactly the json module's rendering
    (both use the shortest-repr float algorithm); anything unusual —
    escapes, non-primitives (which raise, as before) — falls back to
    the real encoder.
    """
    cls = value.__class__
    if cls is str:
        if _SAFE_STR(value):
            return '"' + value + '"'
        return _encode(value)
    if cls is bool:
        return "true" if value else "false"
    if cls is int or cls is float:
        return repr(value)
    if value is None:
        return "null"
    return _encode(value)


def _record_encoder(kind: str, fields: Tuple[str, ...]):
    """Compile a serialiser for one kind's records, keys pre-sorted.

    Every record of a kind has exactly the declared field set (emit
    validates), so its serialised shape is static up to the values:
    the keys, their sorted order and the ``kind`` literal are baked
    into a generated f-string function at import time, leaving only
    the value rendering on the flush path.  The sequence number is
    ledger-assigned and always an int, so it skips the value
    formatter entirely; key names ride in as default arguments
    because f-strings (before 3.12) cannot nest the quote style of
    their own delimiter.
    """
    keys = sorted({*fields, "t", "i", "kind"})
    consts = {}
    parts = []
    for pos, key in enumerate(keys):
        if key == "kind":
            parts.append(f'"kind":"{kind}"')
            continue
        name = f"_k{pos}"
        consts[name] = key
        if key == "i":
            parts.append(f'"i":{{record[{name}]}}')
        else:
            parts.append(f'"{key}":{{_value(record[{name}])}}')
    defaults = ", ".join(f'{name}="{key}"' for name, key in consts.items())
    source = (
        f"def _enc(record, _value=_json_value, {defaults}):\n"
        f"    return f'{{{{{','.join(parts)}}}}}'\n"
    )
    namespace = {"_json_value": _json_value}
    exec(source, namespace)
    return namespace["_enc"]


#: kind -> compiled record serialiser.
_ENCODERS = {
    kind: _record_encoder(kind, fields)
    for kind, fields in LEDGER_EVENT_KINDS.items()
}


def _encode_record(record: Dict[str, object]) -> str:
    return _ENCODERS[record["kind"]](record)


#: Scenario fields kept out of the header: where the ledger goes, the
#: display label, and the trace source — a ``Trace`` object's default
#: ``repr`` holds its memory address, which would make repeat runs'
#: ledgers differ.
_UNSIGNED_FIELDS = frozenset(("observe", "name", "trace"))


def config_signature(config) -> Dict[str, object]:
    """A primitive snapshot of a scenario's engine knobs.

    Primitive fields pass through; structured ones (option tuples,
    failure schedules, malicious configs) are captured as their
    deterministic ``repr``.  :data:`_UNSIGNED_FIELDS` are skipped —
    two runs must not diff as divergent because one wrote its ledger
    to a different path.
    """
    signature: Dict[str, object] = {}
    for config_field in dataclasses.fields(config):
        name = config_field.name
        if name in _UNSIGNED_FIELDS:
            continue
        value = getattr(config, name)
        if value is None or isinstance(value, (str, int, float, bool)):
            signature[name] = value
        else:
            signature[name] = repr(value)
    return signature


@dataclass(frozen=True, slots=True)
class ObserveConfig:
    """What one observed run should export, and where.

    Hashable and picklable (it rides on the frozen ``Scenario``); any
    ``None`` path disables that exporter, and with all three unset the
    replay keeps the null observer — the allocation-free disabled
    path.
    """

    #: JSONL decision-ledger output (``repro.ledger/v2``).
    ledger_path: Optional[str] = None
    #: Chrome trace-event JSON output (load in Perfetto / about:tracing).
    trace_path: Optional[str] = None
    #: Prometheus text-exposition snapshot of the run's metrics.
    metrics_path: Optional[str] = None

    @property
    def active(self) -> bool:
        """Whether any exporter is configured."""
        return (
            self.ledger_path is not None
            or self.trace_path is not None
            or self.metrics_path is not None
        )


class DecisionLedger:
    """Bounded-memory event buffer streaming to a JSONL file.

    Records are validated at emit time and serialised in batches
    (sorted keys, compact separators) at every
    :data:`BUFFER_RECORDS`-th event, so memory stays bounded however
    long the replay runs, the serialisation cost stays off the
    scheduler's hot loop, and the on-disk order is exactly emission
    order — sim-time ordered, sequence-tagged.
    """

    enabled = True

    __slots__ = ("path", "_buffer", "_seq", "_handle", "_counts")

    def __init__(self, path: str):
        self.path = path
        self._buffer: list = []
        self._seq = 0
        self._handle = None
        self._counts: Dict[str, int] = {}

    def open(self, header: Dict[str, object]) -> None:
        """Open the output file and write the header line."""
        if self._handle is not None:
            raise SimulationError(f"ledger {self.path} already open")
        self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.write(
            json.dumps(header, sort_keys=True, separators=(",", ":"))
            + "\n"
        )

    def emit(self, now: float, kind: str, **payload) -> None:
        """Append one decision record (validated against the schema)."""
        fields = _KIND_FIELDS.get(kind)
        if fields is None:
            raise SimulationError(
                f"ledger event kind {kind!r} is not declared in "
                f"{LEDGER_SCHEMA}'s LEDGER_EVENT_KINDS"
            )
        if payload.keys() != fields:
            # Records of one kind always have one shape: emit sites
            # pass every declared field, so diffs compare like to like.
            unexpected = sorted(payload.keys() - fields)
            missing = sorted(fields - payload.keys())
            raise SimulationError(
                f"ledger event {kind!r} payload mismatch: "
                f"unexpected {unexpected}, missing {missing}"
            )
        # The kwargs dict is ours; completing it in place saves a
        # copy per record on the emit hot path.  Serialisation is
        # deferred to the flush so its cache footprint lands in one
        # burst every BUFFER_RECORDS events instead of interleaved
        # with the scheduler's hot loop.
        payload["t"] = now
        payload["i"] = self._seq
        payload["kind"] = kind
        self._seq += 1
        buffer = self._buffer
        buffer.append(payload)
        if len(buffer) >= BUFFER_RECORDS:
            self._flush()

    def _flush(self) -> None:
        if self._handle is None:
            raise SimulationError(
                f"ledger {self.path} emitted to before open()"
            )
        if self._buffer:
            counts = self._counts
            for record in self._buffer:
                kind = record["kind"]
                counts[kind] = counts.get(kind, 0) + 1
            self._handle.write(
                "\n".join(map(_encode_record, self._buffer)) + "\n"
            )
            self._buffer.clear()

    def close(self) -> None:
        """Flush the tail and close the stream (idempotent)."""
        if self._handle is None:
            return
        self._flush()
        self._handle.close()
        self._handle = None

    @property
    def events_emitted(self) -> int:
        """Total events emitted so far."""
        return self._seq

    @property
    def counts(self) -> Dict[str, int]:
        """Events emitted so far, by kind (a defensive copy).

        Flushed records are tallied in batches; the unflushed tail is
        counted here, so the property is exact at any point.
        """
        counts = dict(self._counts)
        for record in self._buffer:
            kind = record["kind"]
            counts[kind] = counts.get(kind, 0) + 1
        return counts


class NullLedger:
    """The disabled ledger: ``enabled`` is ``False``, everything no-ops.

    Emit sites guard on ``enabled`` and never call :meth:`emit`, so
    the disabled path costs one attribute read — but the methods exist
    and are harmless for callers that skip the guard.
    """

    enabled = False

    __slots__ = ()

    path = None

    def open(self, header: Dict[str, object]) -> None:
        return None

    def emit(self, now: float, kind: str, **payload) -> None:
        return None

    def close(self) -> None:
        return None

    @property
    def events_emitted(self) -> int:
        return 0

    @property
    def counts(self) -> Dict[str, int]:
        return {}


#: The shared disabled ledger every component starts with.
NULL_LEDGER = NullLedger()
