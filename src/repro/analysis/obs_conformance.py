"""Ledger rule OBS001: emit sites conform to the frozen schema table.

The decision ledger's value rests on two invariants the runtime only
enforces on *observed* runs (the null ledger validates nothing):

* **declared kinds and fields** — every ``<ledger>.emit(now, kind,
  field=...)`` call anywhere in the tree uses a string-literal kind
  declared in :data:`repro.obs.ledger.LEDGER_EVENT_KINDS` (the
  ``repro.ledger/v2`` schema table) and passes exactly declared
  payload fields, so ``repro diff`` compares records whose shape is
  known in advance and consumers can parse any ledger against one
  table;
* **primitive payloads** — emit sites pass scalars (``pod.name``,
  ``len(victims)``, ``plan.cost``), never a live ``Pod``/``NodeView``/
  plan object whose mutable state would be serialised mid-flight (or
  fail to serialise at all).  A bare name like ``pod=pod`` at an emit
  site is almost always this mistake; attribute reads off the same
  objects are the supported idiom.

Both bugs bite only when somebody records a run — typically while
debugging a divergence, the worst moment to discover the ledger is
malformed — so they are linted here instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Tuple

from ..obs.ledger import LEDGER_EVENT_KINDS
from .source import ModuleSource, Violation

#: Bare names that denote live engine objects at emit sites.  Passing
#: one as a payload value would capture a mutable ``Pod``/``NodeView``/
#: plan reference in the record; emit sites must pass primitives
#: (``pod.name``, ``len(victims)``, ...).
LIVE_OBJECT_NAMES = frozenset({
    "pod", "pods", "view", "views", "node", "victim", "victims",
    "replacement", "preemptor", "job", "plan", "candidate",
    "candidates", "kubelet", "outcome", "result", "spec", "self",
})


def _receiver_is_ledger(func: ast.Attribute) -> bool:
    """Whether ``<receiver>.emit`` reads like a ledger emit call."""
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return "ledger" in receiver.id.lower()
    if isinstance(receiver, ast.Attribute):
        return "ledger" in receiver.attr.lower()
    return False


def ledger_conformance(
    modules: Sequence[ModuleSource],
) -> Iterator[Violation]:
    """OBS001: ledger emit sites off the schema table: an undeclared
    event kind or payload field, a non-literal kind, a ``**`` payload
    or a live engine object as a payload value."""
    for module in modules:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and _receiver_is_ledger(node.func)
            ):
                yield from _emit_violations(module.relpath, node)


def _emit_violations(path: str, call: ast.Call) -> Iterator[Violation]:
    line = call.lineno
    declared: Optional[Tuple[str, ...]] = None
    if len(call.args) < 2:
        yield (
            path,
            line,
            "ledger emit without a positional (now, kind) prefix; "
            "the kind cannot be checked against the schema table",
        )
    else:
        kind_node = call.args[1]
        if not (
            isinstance(kind_node, ast.Constant)
            and isinstance(kind_node.value, str)
        ):
            yield (
                path,
                line,
                "ledger event kind is not a string literal; "
                "schema conformance cannot see it",
            )
        elif kind_node.value not in LEDGER_EVENT_KINDS:
            yield (
                path,
                line,
                f"ledger event kind {kind_node.value!r} is not declared "
                "in LEDGER_EVENT_KINDS",
            )
        else:
            declared = LEDGER_EVENT_KINDS[kind_node.value]
    for keyword in call.keywords:
        if keyword.arg is None:
            yield (
                path,
                line,
                "ledger emit payload uses **splat; fields must be "
                "spelled out so the schema table stays checkable",
            )
            continue
        if declared is not None and keyword.arg not in declared:
            yield (
                path,
                line,
                f"payload field {keyword.arg!r} is not declared for "
                "this event kind in LEDGER_EVENT_KINDS",
            )
        value = keyword.value
        if isinstance(value, ast.Name) and value.id in LIVE_OBJECT_NAMES:
            yield (
                path,
                line,
                f"payload value {value.id!r} is a live engine object; "
                f"records must carry primitives (e.g. {value.id}.name)",
            )
