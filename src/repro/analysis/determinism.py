"""Determinism rules DET001-DET004.

Each rule statically catches one way a change can break the bit-for-bit
replay guarantee: drawing from global RNG state (DET001), reading the
wall clock where only simulated time may flow (DET002), letting set
iteration order leak into decisions (DET003) and ordering by object
identity (DET004).  Each is a function from the parsed modules to the
``(path, line, message)`` violations it finds.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .source import ModuleSource, Violation

#: DET002: packages where the simulated clock is the only clock.
#: Wall-clock reads (``time.time``, ``datetime.now``, ...) anywhere
#: here would desynchronise replays from the oracle.
SIMULATED_TIME_PACKAGES = frozenset({
    "simulation", "orchestrator", "scheduler", "sgx", "monitoring",
})

#: DET003/DET004: packages whose control flow decides placements,
#: evictions or event order: iteration order is behaviour there.
DECISION_PATH_PACKAGES = frozenset({
    "simulation", "orchestrator", "scheduler", "sgx", "policy",
    "monitoring", "cluster",
})


class ImportMap:
    """Which local names are the ``random``/``numpy``/clock modules."""

    __slots__ = (
        "random_modules", "numpy_modules", "numpy_random_modules",
        "time_modules", "datetime_modules", "datetime_classes",
        "clock_names",
    )

    def __init__(self, tree: ast.AST):
        self.random_modules: Set[str] = set()
        self.numpy_modules: Set[str] = set()
        self.numpy_random_modules: Set[str] = set()
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        #: Local names that *are* wall-clock callables, via
        #: ``from time import monotonic`` style imports.
        self.clock_names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_modules.add(bound)
                    elif alias.name == "numpy":
                        self.numpy_modules.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.numpy_random_modules.add(alias.asname)
                        else:
                            self.numpy_modules.add(bound)
                    elif alias.name == "time":
                        self.time_modules.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random_modules.add(
                                alias.asname or alias.name
                            )
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME_ATTRS:
                            self.clock_names.add(
                                alias.asname or alias.name
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.datetime_classes.add(
                                alias.asname or alias.name
                            )

    def is_numpy_random(self, node: ast.expr) -> bool:
        """Whether *node* denotes the ``numpy.random`` module."""
        if isinstance(node, ast.Name):
            return node.id in self.numpy_random_modules
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.numpy_modules
        )


#: ``time`` module attributes that read (or depend on) the wall clock.
_WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
})

#: ``datetime``/``date`` classmethods that read the wall clock.
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: ``numpy.random`` constructors that are deterministic *when seeded*.
_SEEDED_NUMPY_FACTORIES = frozenset({"default_rng", "SeedSequence"})


def unseeded_random(modules: Sequence[ModuleSource]) -> Iterator[Violation]:
    """DET001: module-global or unseeded RNG anywhere in the tree.

    Only ``random.Random(seed)`` and ``np.random.default_rng(seed)``
    draw reproducibly.
    """
    for module in modules:
        path = module.relpath
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                # ``from random import shuffle`` smuggles the global
                # generator in under a local name; the import itself is
                # the hazard (``Random`` — the seedable class — is the
                # one defensible member).
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name != "Random"
                )
                if bad:
                    yield (
                        path,
                        node.lineno,
                        "from random import "
                        f"{', '.join(bad)} binds the module-global "
                        "generator",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            value = func.value
            if (
                isinstance(value, ast.Name)
                and value.id in imports.random_modules
            ):
                if func.attr == "Random" and (node.args or node.keywords):
                    continue  # random.Random(seed): seeded instance
                yield (
                    path,
                    node.lineno,
                    f"random.{func.attr}(...) uses the module-global "
                    "generator" if func.attr != "Random"
                    else "random.Random() without a seed",
                )
            elif imports.is_numpy_random(value):
                if func.attr in _SEEDED_NUMPY_FACTORIES and (
                    node.args or node.keywords
                ):
                    continue  # np.random.default_rng(seed)
                message = (
                    f"np.random.{func.attr}() without a seed"
                    if func.attr in _SEEDED_NUMPY_FACTORIES
                    else f"np.random.{func.attr}(...) draws from numpy's "
                    "global state"
                )
                yield path, node.lineno, message


def wall_clock(modules: Sequence[ModuleSource]) -> Iterator[Violation]:
    """DET002: wall-clock reads inside simulated-time packages; the
    engine's clock is the only clock there."""
    for module in modules:
        if module.package not in SIMULATED_TIME_PACKAGES:
            continue
        path = module.relpath
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name in _WALL_CLOCK_TIME_ATTRS
                )
                if bad:
                    yield (
                        path,
                        node.lineno,
                        f"from time import {', '.join(bad)} in a "
                        "simulated-time package",
                    )
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imports.clock_names:
                    yield (
                        path,
                        node.lineno,
                        f"wall-clock function {node.id}() referenced",
                    )
                continue
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            # time.time / time.monotonic / ... — flagged as references,
            # not just calls: passing ``time.time`` as a clock callback
            # is exactly the hazard.
            if (
                isinstance(value, ast.Name)
                and value.id in imports.time_modules
                and node.attr in _WALL_CLOCK_TIME_ATTRS
            ):
                yield (
                    path,
                    node.lineno,
                    f"time.{node.attr} read in a simulated-time package",
                )
            elif node.attr in _WALL_CLOCK_DATETIME_ATTRS and (
                (
                    isinstance(value, ast.Name)
                    and value.id in imports.datetime_classes
                )
                or (
                    isinstance(value, ast.Attribute)
                    and value.attr in ("datetime", "date")
                    and isinstance(value.value, ast.Name)
                    and value.value.id in imports.datetime_modules
                )
            ):
                yield (
                    path,
                    node.lineno,
                    f"datetime.{node.attr} read in a simulated-time package",
                )


# -- DET003: set-iteration hazards ---------------------------------------

#: Set methods returning another set (preserve set-ness through them).
_SET_PRODUCING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "copy",
})

#: Calls whose result (or decision) depends on the argument's
#: iteration order.  ``sorted``/``any``/``all``/``len`` are absent by
#: design: sorting is the sanctioned fix, the others are
#: order-insensitive.  ``min``/``max`` ride along because ``key=``
#: functions make ties iteration-order dependent, and ``sum`` because
#: float addition is not associative.
_ORDER_SENSITIVE_CALLS = frozenset({
    "list", "tuple", "min", "max", "sum", "iter", "next", "enumerate",
    "reversed",
})

#: Annotation names marking an attribute as a set.
_SET_ANNOTATIONS = frozenset({"set", "Set", "frozenset", "FrozenSet"})


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    """Whether a type annotation denotes a set type."""
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):  # typing.Set[...]
        return node.attr in _SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


def _set_typed_attributes(tree: ast.AST) -> Set[str]:
    """Attribute names annotated as sets anywhere in the module.

    Covers class-body dataclass fields (``pids: Set[int] = ...``) and
    ``self.x: Set[str] = ...`` method-body annotations.  Names are
    collected module-wide: an attribute name reused across classes in
    one module with conflicting set-ness would over-approximate, which
    errs on the side of flagging.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.AnnAssign):
            continue
        if not _annotation_is_set(node.annotation):
            continue
        target = node.target
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


class _SetTracker:
    """Set-ness inference for expressions within one function scope."""

    __slots__ = ("locals", "attrs")

    def __init__(self, attrs: Set[str]):
        self.locals: Set[str] = set()
        self.attrs = attrs

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.locals
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in (
                "set", "frozenset"
            ):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_PRODUCING_METHODS
                and self.is_set(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set(node.body) or self.is_set(node.orelse)
        return False

    def note_assign(self, node: ast.stmt) -> None:
        """Track ``name = <set expr>`` (and un-track reassignments)."""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if self.is_set(node.value):
                    self.locals.add(target.id)
                else:
                    self.locals.discard(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _annotation_is_set(node.annotation) or (
                node.value is not None and self.is_set(node.value)
            ):
                self.locals.add(node.target.id)
            else:
                self.locals.discard(node.target.id)


def set_iteration(modules: Sequence[ModuleSource]) -> Iterator[Violation]:
    """DET003: iteration over an unordered set in a decision-path
    package without an enclosing ``sorted()``."""
    for module in modules:
        if module.package not in DECISION_PATH_PACKAGES:
            continue
        attrs = _set_typed_attributes(module.tree)
        # Module body counts as one scope; each function gets its own.
        scopes: List[Tuple[Iterable[ast.stmt], _SetTracker]] = [
            (module.tree.body, _SetTracker(attrs))
        ]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node.body, _SetTracker(attrs)))
        for body, tracker in scopes:
            yield from _scan_scope(module.relpath, body, tracker)


def _scan_scope(
    path: str, body: Iterable[ast.stmt], tracker: _SetTracker
) -> Iterator[Violation]:
    """Walk one scope in source order, tracking assignments.

    Nested statements (loop bodies, conditionals, class bodies) are
    visited depth first in source order, which keeps assignment
    tracking approximately flow-ordered.  A nested function's subtree
    is skipped, not walked: its body is scanned as its own scope.
    """
    stack: List[ast.AST] = list(reversed(list(body)))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            tracker.note_assign(node)
        yield from _set_order_leaks(path, node, tracker)
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _set_order_leaks(
    path: str, node: ast.AST, tracker: _SetTracker
) -> Iterator[Violation]:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        if tracker.is_set(node.iter):
            yield (
                path,
                node.lineno,
                "for-loop iterates a set in arbitrary order",
            )
    elif isinstance(
        node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    ):
        for generator in node.generators:
            if tracker.is_set(generator.iter):
                yield (
                    path,
                    node.lineno,
                    "comprehension iterates a set in arbitrary order",
                )
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
            for arg in node.args:
                if tracker.is_set(arg):
                    yield (
                        path,
                        node.lineno,
                        f"{func.id}() consumes a set in arbitrary order",
                    )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and tracker.is_set(node.args[0])
        ):
            yield (
                path,
                node.lineno,
                "str.join() consumes a set in arbitrary order",
            )


# -- DET004: identity-based ordering -------------------------------------

_HEAP_PUSH_FUNCS = frozenset({"heappush", "heappushpop", "heapreplace"})


def _contains_id_call(node: ast.AST) -> Optional[int]:
    """Line of the first ``id(...)`` call inside *node*, if any."""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "id"
        ):
            return child.lineno
    return None


def identity_order(modules: Sequence[ModuleSource]) -> Iterator[Violation]:
    """DET004: ``id(...)`` in sort keys, heap tuples or comparisons in
    a decision-path package; ``id()`` values vary across runs."""
    for module in modules:
        if module.package not in DECISION_PATH_PACKAGES:
            continue
        path = module.relpath
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                line = _contains_id_call(node)
                if line is not None:
                    yield (
                        path,
                        line,
                        "id() inside a comparison acts as an "
                        "identity tie-breaker",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else ""
                )
                if name in ("sorted", "sort", "min", "max"):
                    for keyword in node.keywords:
                        if keyword.arg != "key":
                            continue
                        line = _contains_id_call(keyword.value)
                        if line is not None:
                            yield path, line, f"id() inside a {name}() key"
                elif name in _HEAP_PUSH_FUNCS:
                    for arg in node.args[1:]:
                        line = _contains_id_call(arg)
                        if line is not None:
                            yield (
                                path,
                                line,
                                "id() inside a heap entry orders by "
                                "object identity",
                            )
