"""Walk files, run rules, honor suppressions, collect findings."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import LintError
from repro.lint.arch import ArchContext, build_arch_context
from repro.lint.cache import LintCache
from repro.lint.importgraph import (
    collect_imports,
    is_package_path,
    module_name_for,
)
from repro.lint.rules import (
    FileContext,
    Finding,
    Rule,
    resolve_rules,
)
from repro.lint.suppress import is_suppressed, parse_suppressions
from repro.perf.timing import Stopwatch

PARSE_RULE_ID = "LINT000"
"""Pseudo-rule id attached to files that fail to parse."""

#: Per-rule wall-clock seconds, accumulated across files by
#: ``lint --profile``. Cached files never run checkers, so profiled
#: time covers fresh analysis only.
Profile = Dict[str, float]


def _needs_arch(rules: Sequence[Rule]) -> bool:
    return any(rule.module_graph for rule in rules)


def lint_source(
    source: str,
    path: str = "<string>",
    rule_ids: Optional[Sequence[str]] = None,
    arch: Optional[ArchContext] = None,
    profile: Optional[Profile] = None,
) -> List[Finding]:
    """Lint one source string; ``path`` scopes path-sensitive rules.

    When a module-graph rule is selected and no ``arch`` is supplied,
    a single-module view is built from this source alone — the rules
    still run, they just cannot see other modules, and declaration
    discovery starts from ``path`` (an in-memory path discovers
    nothing).
    """
    rules = resolve_rules(rule_ids)
    if arch is None and _needs_arch(rules):
        arch = build_arch_context([(path, source)])
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                file=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=PARSE_RULE_ID,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    imports = arch.imports_for(path) if arch is not None else None
    if imports is None:
        imports = collect_imports(
            tree, module_name_for(path), is_package_path(path)
        )
    ctx = FileContext(
        path=path,
        norm_path=Path(path).as_posix(),
        imports=imports,
        arch=arch,
    )
    suppressions = parse_suppressions(source)
    findings: List[Finding] = []
    for rule in rules:
        watch = Stopwatch() if profile is not None else None
        checked = rule.checker(tree, ctx)
        if profile is not None and watch is not None:
            profile[rule.rule_id] = (
                profile.get(rule.rule_id, 0.0) + watch.stop()
            )
        for finding in checked:
            if not is_suppressed(suppressions, finding.line, finding.rule):
                findings.append(finding)
    return sorted(findings)


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield ``.py`` files under each path, sorted for stable output."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.is_file():
            yield path
        else:
            raise LintError(f"no such file or directory: {raw}")


def lint_files(
    files: Sequence[Path],
    rule_ids: Optional[Sequence[str]] = None,
    cache: Optional[LintCache] = None,
    profile: Optional[Profile] = None,
) -> List[Finding]:
    """Lint an explicit file list, optionally through a result cache.

    When any selected rule is module-graph, an
    :class:`~repro.lint.arch.ArchContext` — the import graph plus the
    discovered ``architecture.toml`` — is built over every file's
    source, and per-file result entries are keyed on its fingerprint
    as well: editing any file, the contract, or an external root file
    (a test that was the last reference to a helper) soundly
    invalidates findings that might have depended on it.
    """
    rules = resolve_rules(rule_ids)  # fail fast on unknown ids
    sources: List[Tuple[str, str]] = [
        (str(file_path), file_path.read_text(encoding="utf-8"))
        for file_path in files
    ]
    arch: Optional[ArchContext] = None
    cache_extra = ""
    if _needs_arch(rules):
        arch = build_arch_context(sources)
        cache_extra = arch.fingerprint
    findings: List[Finding] = []
    for path, source in sources:
        if cache is not None:
            key = cache.key_for(source, rule_ids, extra=cache_extra)
            cached = cache.lookup(key, path)
            if cached is not None:
                findings.extend(cached)
                continue
            fresh = lint_source(
                source,
                path=path,
                rule_ids=rule_ids,
                arch=arch,
                profile=profile,
            )
            cache.store(key, path, fresh)
            findings.extend(fresh)
        else:
            findings.extend(
                lint_source(
                    source,
                    path=path,
                    rule_ids=rule_ids,
                    arch=arch,
                    profile=profile,
                )
            )
    return sorted(findings)


def lint_paths(
    paths: Sequence[str],
    rule_ids: Optional[Sequence[str]] = None,
    cache: Optional[LintCache] = None,
    profile: Optional[Profile] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths``; findings sorted by location."""
    return lint_files(
        list(iter_python_files(paths)),
        rule_ids=rule_ids,
        cache=cache,
        profile=profile,
    )


__all__ = [
    "Finding",
    "Profile",
    "Rule",
    "PARSE_RULE_ID",
    "iter_python_files",
    "lint_files",
    "lint_paths",
    "lint_source",
]
