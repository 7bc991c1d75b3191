"""Module-level call graphs for the transitive lint rules.

LINT012 needs to answer "does this expression's value survive a
``pickle`` across the :func:`repro.perf.parallel_map` process
boundary?" — and a syntactic check on the assignment alone cannot,
because the unpicklable value is routinely *manufactured elsewhere*:
``self.on_done = make_callback()`` where ``make_callback`` returns a
lambda three helpers deep. This module builds a per-module call graph
(functions, methods, and the locally-resolvable edges between them) and
runs a fixpoint over it classifying which callables *return* an
unpicklable value.

Resolution is deliberately local: ``name(...)`` resolves to a
module-level function of that name, ``self.m(...)`` / ``cls.m(...)`` to
a method of the enclosing class. Imports are opaque — a cross-module
helper is assumed picklable, which keeps the rule free of false
positives at the cost of cross-module recall.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def walk_scope(nodes: Sequence[ast.AST]) -> List[ast.AST]:
    """All nodes under ``nodes`` without entering nested scopes."""
    out: List[ast.AST] = []
    pending: List[ast.AST] = list(nodes)
    while pending:
        node = pending.pop()
        out.append(node)
        if isinstance(node, _SCOPE_NODES):
            continue
        pending.extend(ast.iter_child_nodes(node))
    return out


@dataclass
class FunctionInfo:
    """One function or method in the module call graph."""

    qualname: str
    node: FunctionNode
    class_name: Optional[str] = None
    callees: Set[str] = field(default_factory=set)
    nested_defs: Set[str] = field(default_factory=set)


class ModuleCallGraph:
    """Functions, methods, and locally-resolved call edges of one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = stmt
                for member in stmt.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._add_function(member, class_name=stmt.name)
        for info in self.functions.values():
            info.callees = self._resolve_callees(info)

    def _add_function(
        self, node: FunctionNode, class_name: Optional[str]
    ) -> None:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(qualname, node, class_name)
        for inner in walk_scope(node.body):
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.nested_defs.add(inner.name)
        self.functions[qualname] = info

    def _resolve_callees(self, info: FunctionInfo) -> Set[str]:
        callees: Set[str] = set()
        for node in walk_scope(info.node.body):
            if not isinstance(node, ast.Call):
                continue
            target = self.resolve_call(node, info.class_name)
            if target is not None:
                callees.add(target)
        return callees

    def resolve_call(
        self, call: ast.Call, class_name: Optional[str]
    ) -> Optional[str]:
        """Qualname of a call's target, when locally resolvable."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.functions:
                return func.id
            return None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            owner = func.value.id
            if owner in ("self", "cls") and class_name is not None:
                qualname = f"{class_name}.{func.attr}"
                return qualname if qualname in self.functions else None
            if owner in self.classes:
                qualname = f"{owner}.{func.attr}"
                return qualname if qualname in self.functions else None
        return None

    def reachable(self, roots: Sequence[str]) -> Set[str]:
        """Transitive callee closure of ``roots`` (roots included)."""
        seen: Set[str] = set()
        pending = [root for root in roots if root in self.functions]
        while pending:
            qualname = pending.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            pending.extend(self.functions[qualname].callees)
        return seen

    # ------------------------------------------------------------------
    # Unpicklable-return classification
    # ------------------------------------------------------------------
    def unpicklable_returns(self) -> Dict[str, str]:
        """Callables whose return value cannot cross a pickle boundary.

        Fixpoint over the call graph: a function is flagged when any of
        its ``return`` statements yields a lambda, generator expression,
        ``open()`` handle, a nested ``def`` (a closure), or the result
        of another flagged local callable.
        """
        flagged: Dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for qualname, info in self.functions.items():
                if qualname in flagged:
                    continue
                reason = self._unpicklable_return_reason(info, flagged)
                if reason is not None:
                    flagged[qualname] = reason
                    changed = True
        return flagged

    def _unpicklable_return_reason(
        self, info: FunctionInfo, flagged: Dict[str, str]
    ) -> Optional[str]:
        for node in walk_scope(info.node.body):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            reason = self.unpicklable_expr(
                node.value, info, flagged
            )
            if reason is not None:
                return reason
        return None

    def unpicklable_expr(
        self,
        expr: ast.expr,
        info: Optional[FunctionInfo],
        flagged: Dict[str, str],
    ) -> Optional[str]:
        """Why ``expr``'s value is unpicklable, or ``None``.

        ``info`` scopes nested-def and ``self.``-call resolution; pass
        ``None`` when evaluating outside any function.
        """
        direct = direct_unpicklable(expr)
        if direct is not None:
            return direct
        if (
            isinstance(expr, ast.Name)
            and info is not None
            and expr.id in info.nested_defs
        ):
            return f"nested function {expr.id!r} (closure)"
        if isinstance(expr, ast.Call):
            target = self.resolve_call(
                expr, info.class_name if info is not None else None
            )
            if target is not None and target in flagged:
                return (
                    f"call to {target}() which returns "
                    f"{flagged[target]}"
                )
        return None


def direct_unpicklable(expr: ast.expr) -> Optional[str]:
    """Syntactically unpicklable value forms: lambda, generator, ``open()``."""
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "a generator expression"
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "open"
    ):
        return "an open file handle"
    return None


def module_unpicklable_globals(tree: ast.Module) -> Dict[str, Tuple[str, int]]:
    """Module-level names bound to unpicklable values: name -> (why, line).

    These are process-local state; a job class referencing one ships a
    stale or unpicklable object to the worker.
    """
    out: Dict[str, Tuple[str, int]] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        reason = direct_unpicklable(stmt.value)
        if reason is None:
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                out[target.id] = (reason, stmt.lineno)
    return out


__all__ = [
    "FunctionInfo",
    "FunctionNode",
    "ModuleCallGraph",
    "direct_unpicklable",
    "module_unpicklable_globals",
    "walk_scope",
]
