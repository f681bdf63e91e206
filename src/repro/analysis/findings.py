"""``Finding``: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True, slots=True)
class Finding:
    """One violation: rule + location + message + how to fix it.

    ``path`` is relative to the analysed package root (e.g.
    ``scheduler/binpack.py``), so findings are stable across checkouts
    and installs.
    """

    rule: str
    path: str
    line: int
    message: str
    hint: str = ""

    def sort_key(self) -> Tuple[str, int, str]:
        """Stable report order: by file, then line, then rule."""
        return (self.path, self.line, self.rule)

    def location(self) -> str:
        """``path:line`` as editors and CI annotations expect."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        """The JSON document entry (schema ``repro.check/v1``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }
