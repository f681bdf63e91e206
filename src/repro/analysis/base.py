"""Check base classes and the registration decorator."""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Iterator

from .config import CheckConfig
from .findings import Finding
from .registry import CHECKS
from .source import ModuleSource, Project


class Check(abc.ABC):
    """One rule: scans a project, yields findings.

    Subclasses set the class attributes and implement :meth:`run`.
    ``hint`` is the one-line fix guidance attached to every finding
    the convenience :meth:`finding` builder produces.
    """

    rule: str = "ABSTRACT"
    description: str = ""
    hint: str = ""

    @abc.abstractmethod
    def run(
        self, project: Project, config: CheckConfig
    ) -> Iterator[Finding]:
        """Yield every violation of this rule in *project*."""

    def finding(
        self,
        module: ModuleSource,
        line: int,
        message: str,
        hint: str = "",
    ) -> Finding:
        """A :class:`Finding` for this rule at ``module:line``."""
        return Finding(
            rule=self.rule,
            path=module.relpath,
            line=line,
            message=message,
            hint=hint or self.hint,
        )


class ModuleCheck(Check):
    """A check that inspects each module independently."""

    def run(
        self, project: Project, config: CheckConfig
    ) -> Iterator[Finding]:
        for module in project:
            yield from self.check_module(module, config)

    @abc.abstractmethod
    def check_module(
        self, module: ModuleSource, config: CheckConfig
    ) -> Iterable[Finding]:
        """Yield this rule's violations inside *module*."""


class ProjectCheck(Check):
    """A check that needs the whole project at once (OBS001 reads the
    schema table from one module and emit sites from all).  Purely a
    marker base — the contract is :meth:`Check.run` unchanged."""


def register_check(rule: str) -> Callable[[type], type]:
    """Class decorator adding a rule to :data:`CHECKS` by its code."""
    return CHECKS.register(rule)
