"""Shared lint datatypes: findings, file context, rule records.

Kept in a leaf module so the rule registry and the engine can both
import them without cycles.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Mapping, Optional

if TYPE_CHECKING:
    from repro.lint.arch import ArchContext


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location."""

    file: str
    line: int
    col: int
    rule: str
    message: str


@dataclass(frozen=True)
class FileContext:
    """What a checker may know about the file being linted."""

    path: str
    """Display path, as given by the caller."""

    norm_path: str
    """Forward-slash path used for scope matching."""

    imports: Mapping[str, str]
    """The file's import table
    (:func:`repro.lint.importgraph.collect_imports`), built once per
    file: by the dead-code index when the run has one, else by the
    engine. The rules that resolve names read it here."""

    arch: Optional["ArchContext"] = None
    """Module-graph context (:mod:`repro.lint.arch`).

    Populated by the engine whenever a module-graph rule is selected:
    the import graph over the linted sources plus the
    ``architecture.toml`` discovered above them, if any. Module-graph
    checkers return no findings without it.
    """


Checker = Callable[[ast.Module, FileContext], List[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    rule_id: str
    summary: str
    checker: Checker

    module_graph: bool = False
    """Findings depend on the module/import graph of the whole tree.

    The engine builds an :class:`~repro.lint.arch.ArchContext` when any
    selected rule sets this, and keys every file's cached result on
    it: deleting an import in one file can orphan (or legitimize) a
    symbol in another. Every other rule reads only its own file.
    """


__all__ = ["Checker", "FileContext", "Finding", "Rule"]
