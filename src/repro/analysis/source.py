"""Source model: the parsed modules every rule reads.

Rules never touch the filesystem; they see :class:`ModuleSource`
objects (path + AST).  Parsing happens once per file regardless of how
many rules run.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

from ..errors import SimulationError

#: One rule violation before it becomes a finding: ``(path, line,
#: message)``, the path relative to the analysed root.
Violation = Tuple[str, int, str]


class ModuleSource:
    """One parsed source file.

    ``relpath`` uses forward slashes relative to the package root, so
    findings are portable across platforms and installs.
    """

    __slots__ = ("relpath", "tree")

    def __init__(self, relpath: str, text: str):
        self.relpath = relpath
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:  # pragma: no cover - broken tree
            raise SimulationError(
                f"cannot parse {relpath}: {exc}"
            ) from exc

    @property
    def package(self) -> str:
        """First path component (``scheduler`` for
        ``scheduler/binpack.py``); ``""`` for top-level modules."""
        head, _, tail = self.relpath.partition("/")
        return head if tail else ""


def load_modules(root: Path) -> List[ModuleSource]:
    """Parse every ``*.py`` under *root* (recursively), in path order."""
    root = Path(root)
    if root.is_file():
        return [ModuleSource(root.name, root.read_text())]
    if not root.is_dir():
        raise SimulationError(f"no such source tree: {root}")
    return [
        ModuleSource(path.relative_to(root).as_posix(), path.read_text())
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]
