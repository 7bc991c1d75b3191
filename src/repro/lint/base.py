"""Shared lint datatypes: findings, file context, rule records.

Kept in a leaf module so the rule registry and the engine can both
import them without cycles.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:
    from repro.lint.arch import ArchContext
    from repro.lint.effects import Program


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

    program: Optional["Program"] = None
    """Whole-program raise-set summaries (:mod:`repro.lint.effects`).

    Populated by the engine whenever an interprocedural rule is
    selected; ``None`` otherwise. Interprocedural checkers return no
    findings without it rather than guessing from one file.
    """

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

    interprocedural: bool = False
    """Findings may depend on code outside the file being linted.

    The engine builds a whole-program :class:`~repro.lint.effects.Program`
    when any selected rule sets this, and keys every file's cached
    result on it: a callee edit in one file can change findings
    reported in another.
    """

    module_graph: bool = False
    """Findings depend on the module/import graph of the whole tree.

    The engine builds an :class:`~repro.lint.arch.ArchContext` when any
    selected rule sets this. These rules are whole-program too:
    deleting an import in one file can orphan (or legitimize) a symbol
    in another.
    """


__all__ = ["Checker", "FileContext", "Finding", "Rule"]
