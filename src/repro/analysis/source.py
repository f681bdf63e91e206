"""Source model: parsed modules and the project tree.

Checks never touch the filesystem; they see :class:`ModuleSource`
objects (path + AST) grouped into a :class:`Project`.  Parsing happens
once per file regardless of how many rules run.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List

from ..errors import SimulationError


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


class Project:
    """All modules of one analysed tree, in sorted path order."""

    __slots__ = ("root", "modules")

    def __init__(self, root: Path, modules: List[ModuleSource]):
        self.root = root
        self.modules = sorted(modules, key=lambda m: m.relpath)

    def __iter__(self) -> Iterator[ModuleSource]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


def load_project(root: Path) -> Project:
    """Parse every ``*.py`` under *root* (recursively) into a Project."""
    root = Path(root)
    if root.is_file():
        return Project(
            root.parent,
            [ModuleSource(root.name, root.read_text())],
        )
    if not root.is_dir():
        raise SimulationError(f"no such source tree: {root}")
    modules = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relpath = path.relative_to(root).as_posix()
        modules.append(ModuleSource(relpath, path.read_text()))
    return Project(root, modules)
