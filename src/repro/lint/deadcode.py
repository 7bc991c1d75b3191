"""Dead-code reachability over module-level symbols (LINT018).

A symbol (top-level function, class, or assigned module attribute) is
*live* when it is reachable from a declared root:

- module-level code of any linted module (imports execute it);
- ``__all__`` exports (the declared public API);
- entry points declared in ``architecture.toml`` ``[deadcode]``
  (``"repro.cli:main"`` style — console scripts argparse dispatches);
- top-level re-exports in ``__init__.py`` files (a package facade is a
  deliberate public surface even without ``__all__``), including the
  entries of a PEP 562 lazy-export table (``_LAZY_EXPORTS``), each
  resolved to its definition: an entry naming a module outside the
  linted tree, or a name that module does not define at top level, is
  a finding;
- defs under unknown decorators (registration side effects);
- references anywhere in the configured external root trees
  (``tests/``, ``examples/``, ``benchmarks/`` — a symbol only tests
  exercise is still contract-bearing).

References propagate: a helper used only by a live function is live; a
cluster of helpers referencing each other but reachable from no root is
dead as a group. A bare use of a module *object* (passing ``soc``
around rather than ``soc.attr``) conservatively keeps every symbol of
that module live.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.importgraph import (
    LayerContract,
    ParsedModule,
    collect_imports,
    is_package_path,
    module_name_for,
)

Ref = Tuple[str, str]
"""(module, symbol) — symbol ``"*"`` means the whole module escapes."""

#: Decorators that cannot register their target anywhere: a def carrying
#: only these is still a dead-code candidate. Anything else makes the
#: def a root (pytest fixtures, CLI registration, dispatch tables).
_INERT_DECORATORS = frozenset(
    {
        "abstractmethod",
        "cache",
        "cached_property",
        "classmethod",
        "contextmanager",
        "dataclass",
        "final",
        "lru_cache",
        "overload",
        "property",
        "runtime_checkable",
        "staticmethod",
        "total_ordering",
        "wraps",
    }
)

#: A package ``__init__``'s lazy re-exports: a dict literal mapping each
#: defining module to a tuple of the names it exports, which the
#: package's PEP 562 ``__getattr__`` imports on first access.
LAZY_EXPORTS_DECLARATION = "_LAZY_EXPORTS"

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class SymbolInfo:
    """One module-level definition that could be dead."""

    module: str
    name: str
    kind: str  # "function" | "class" | "attribute"
    line: int


@dataclass
class DeadCodeIndex:
    """Symbols, reference edges, and roots over the linted modules."""

    symbols: Dict[Ref, SymbolInfo] = field(default_factory=dict)
    refs: Dict[Ref, Set[Ref]] = field(default_factory=dict)
    roots: Set[Ref] = field(default_factory=set)
    external_files: List[Tuple[str, str]] = field(default_factory=list)
    """(path, sha256) of every scanned external-root file (cache key)."""
    export_findings: Dict[str, List[Tuple[int, str]]] = field(
        default_factory=dict
    )
    """module -> (line, message) per unresolvable lazy-export entry."""
    imports: Dict[str, Dict[str, str]] = field(default_factory=dict)
    """module -> its import table; the engine hands it to the
    single-file rules, so each file's table is built once per run."""

    _reachable: Optional[Set[Ref]] = None

    def reachable(self) -> Set[Ref]:
        if self._reachable is not None:
            return self._reachable
        modules = {module for module, _ in self.symbols}
        reached: Set[Ref] = set()
        star_modules: Set[str] = set()
        pending: List[Ref] = sorted(self.roots)
        while pending:
            ref = pending.pop()
            module, name = ref
            if name == "*":
                if module in star_modules:
                    continue
                star_modules.add(module)
                pending.extend(
                    key for key in self.symbols if key[0] == module
                )
                continue
            if ref in reached:
                continue
            if module not in modules and module != "":
                continue
            reached.add(ref)
            pending.extend(self.refs.get(ref, ()))
        for module in star_modules:
            reached.update(
                key for key in self.symbols if key[0] == module
            )
        self._reachable = reached
        return reached

    def unreachable_in(self, module: str) -> List[SymbolInfo]:
        reached = self.reachable()
        return sorted(
            (
                info
                for ref, info in self.symbols.items()
                if ref[0] == module and ref not in reached
            ),
            key=lambda info: (info.line, info.name),
        )


# ----------------------------------------------------------------------
# Reference extraction
# ----------------------------------------------------------------------
class _RefCollector:
    """Resolve names/attribute chains to (module, symbol) references."""

    def __init__(
        self,
        module: str,
        imports: Dict[str, str],
        own_symbols: Set[str],
        known_modules: Set[str],
    ) -> None:
        self.module = module
        self.imports = imports
        self.own_symbols = own_symbols
        self.known_modules = known_modules

    def collect(self, nodes: Sequence[ast.AST]) -> Set[Ref]:
        out: Set[Ref] = set()
        attr_bases: Set[int] = set()
        flat: List[ast.AST] = []
        for node in nodes:
            flat.extend(ast.walk(node))
        for node in flat:
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                attr_bases.add(id(node.value))
        for node in flat:
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                ref = self._resolve_chain(node)
                if ref is not None:
                    out.add(ref)
            elif isinstance(node, ast.Name):
                if id(node) in attr_bases:
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue
                ref = self._resolve_name(node.id)
                if ref is not None:
                    out.add(ref)
        return out

    def _resolve_name(self, name: str) -> Optional[Ref]:
        target = self.imports.get(name)
        if target is not None:
            return self._binding_ref(target)
        if name in self.own_symbols:
            return (self.module, name)
        return None

    def _binding_ref(self, target: str) -> Ref:
        """Reference created by *using* an import binding bare."""
        if ":" not in target:
            return (target, "*")
        mod, attr = target.split(":", 1)
        if f"{mod}.{attr}" in self.known_modules:
            return (f"{mod}.{attr}", "*")
        return (mod, attr)

    def _resolve_chain(self, node: ast.Attribute) -> Optional[Ref]:
        chain: List[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        chain.reverse()
        base = current.id
        target = self.imports.get(base)
        if target is None:
            if base in self.own_symbols:
                return (self.module, base)
            return None
        if ":" in target:
            mod, attr = target.split(":", 1)
            if f"{mod}.{attr}" in self.known_modules:
                module: str = f"{mod}.{attr}"
            else:
                return (mod, attr)
        else:
            module = target
        for attr in chain:
            if f"{module}.{attr}" in self.known_modules:
                module = f"{module}.{attr}"
                continue
            return (module, attr)
        return (module, "*")


def _decorator_name(expr: ast.expr) -> str:
    node = expr
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return "?"


def _single_name_target(stmt: ast.stmt) -> Optional[ast.Name]:
    """The sole ``Name`` target of a plain assignment, if that simple."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    return target if isinstance(target, ast.Name) else None


def _all_export_strings(tree: ast.Module) -> List[str]:
    out: List[str] = []
    for stmt in tree.body:
        targets: Sequence[ast.expr] = ()
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        if value is None or not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    out.append(element.value)
    return out


# ----------------------------------------------------------------------
# Index construction
# ----------------------------------------------------------------------
def build_deadcode_index(
    modules: Sequence[ParsedModule],
    contract: Optional[LayerContract],
    contract_path: Optional[Path],
) -> DeadCodeIndex:
    index = DeadCodeIndex()
    known = {module.name for module in modules}

    for name, path, tree in modules:
        _index_module(index, name, path, tree, known)
    for name, path, tree in modules:
        if Path(path).name == "__init__.py":
            _root_lazy_exports(index, name, tree, known)

    if contract is not None:
        for spec in contract.entry_points:
            mod, _, func = spec.partition(":")
            if mod and func:
                index.roots.add((mod, func))
        if contract_path is not None:
            _scan_external_roots(
                index, contract.deadcode_roots, contract_path.parent, known
            )
    return index


def _index_module(
    index: DeadCodeIndex,
    module: str,
    path: str,
    tree: ast.Module,
    known: Set[str],
) -> None:
    imports = collect_imports(tree, module, is_package_path(path))
    index.imports[module] = imports
    own: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, _FUNCTION_NODES + (ast.ClassDef,)):
            own.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    own.add(target.id)
    collector = _RefCollector(module, imports, own, known)
    is_init = Path(path).name == "__init__.py"

    toplevel_nodes: List[ast.AST] = []
    for stmt in tree.body:
        if isinstance(stmt, _FUNCTION_NODES):
            key = (module, stmt.name)
            if not stmt.name.startswith("__"):
                index.symbols[key] = SymbolInfo(
                    module, stmt.name, "function", stmt.lineno
                )
            toplevel_nodes.extend(stmt.decorator_list)
            toplevel_nodes.extend(
                d for d in stmt.args.defaults + stmt.args.kw_defaults if d
            )
            decorators = {
                _decorator_name(d) for d in stmt.decorator_list
            }
            if decorators - _INERT_DECORATORS:
                index.roots.add(key)
            # The whole def (body, annotations, defaults): a class used
            # only in this function's annotations is still a use of it.
            index.refs[key] = collector.collect([stmt])
        elif isinstance(stmt, ast.ClassDef):
            key = (module, stmt.name)
            if not stmt.name.startswith("__"):
                index.symbols[key] = SymbolInfo(
                    module, stmt.name, "class", stmt.lineno
                )
            toplevel_nodes.extend(stmt.decorator_list)
            toplevel_nodes.extend(stmt.bases)
            toplevel_nodes.extend(kw.value for kw in stmt.keywords)
            decorators = {
                _decorator_name(d) for d in stmt.decorator_list
            }
            if decorators - _INERT_DECORATORS:
                index.roots.add(key)
            index.refs[key] = collector.collect([stmt])
        elif (
            isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and _single_name_target(stmt) is not None
        ):
            target_name = _single_name_target(stmt)
            assert target_name is not None
            if target_name.id.startswith("__"):
                toplevel_nodes.append(stmt)
                continue
            key = (module, target_name.id)
            index.symbols.setdefault(
                key,
                SymbolInfo(
                    module, target_name.id, "attribute", stmt.lineno
                ),
            )
            if target_name.id == LAZY_EXPORTS_DECLARATION:
                # The linter itself reads the table: never dead.
                index.roots.add(key)
            # The value's references belong to the symbol: a dispatch
            # table keeps its targets alive only if the table is.
            value = stmt.value
            index.refs.setdefault(key, set()).update(
                collector.collect([value] if value is not None else [])
            )
        else:
            toplevel_nodes.append(stmt)

    index.roots.update(collector.collect(toplevel_nodes))

    for export in _all_export_strings(tree):
        if export in imports:
            index.roots.add(collector._binding_ref(imports[export]))
        else:
            index.roots.add((module, export))

    if is_init:
        # A package facade: its top-level import bindings are the
        # deliberate re-export surface even without __all__.
        for target in imports.values():
            index.roots.add(collector._binding_ref(target))


def _str_constant(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _root_lazy_exports(
    index: DeadCodeIndex, package: str, tree: ast.Module, known: Set[str]
) -> None:
    """Root each ``_LAZY_EXPORTS`` entry at the definition it names.

    An entry that is not a module name mapped to a tuple of names, or
    that names a module outside the linted tree or a name its module
    does not define at top level (an import is not a definition: one
    inside a function binds nothing on the module), is a finding on the
    package.
    """
    problems: List[Tuple[int, str]] = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        target = _single_name_target(stmt)
        if target is None or target.id != LAZY_EXPORTS_DECLARATION:
            continue
        table = stmt.value
        if not isinstance(table, ast.Dict):
            problems.append(
                (stmt.lineno, f"{target.id} must be a dict literal")
            )
            continue
        for key, value in zip(table.keys, table.values):
            module = _str_constant(key)
            nodes = (
                value.elts if isinstance(value, (ast.Tuple, ast.List)) else []
            )
            if module is None or not nodes:
                problems.append(
                    (
                        value.lineno,
                        f"{target.id} must map module names to tuples "
                        "of names",
                    )
                )
                continue
            for node in nodes:
                name = _str_constant(node)
                if name is None:
                    problems.append(
                        (node.lineno, "a lazy export must be a name string")
                    )
                elif module not in known:
                    problems.append(
                        (
                            node.lineno,
                            f"lazy export {name!r} names module "
                            f"{module!r}, which is not in the linted tree",
                        )
                    )
                elif (module, name) not in index.symbols:
                    problems.append(
                        (
                            node.lineno,
                            f"lazy export {name!r} is not defined at top "
                            f"level in {module!r}",
                        )
                    )
                else:
                    index.roots.add((module, name))
    if problems:
        index.export_findings[package] = problems


def _scan_external_roots(
    index: DeadCodeIndex,
    roots: Sequence[str],
    base: Path,
    known: Set[str],
) -> None:
    for root in roots:
        directory = base / root
        if not directory.is_dir():
            continue
        for file_path in sorted(directory.rglob("*.py")):
            try:
                source = file_path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(file_path))
            except (OSError, SyntaxError):
                continue
            index.external_files.append(
                (
                    file_path.as_posix(),
                    hashlib.sha256(source.encode("utf-8")).hexdigest(),
                )
            )
            module = module_name_for(str(file_path))
            imports = collect_imports(
                tree, module, is_package_path(str(file_path))
            )
            collector = _RefCollector(module, imports, set(), known)
            index.roots.update(collector.collect([tree]))
            for export in _all_export_strings(tree):
                if export in imports:
                    index.roots.add(
                        collector._binding_ref(imports[export])
                    )


__all__ = [
    "DeadCodeIndex",
    "SymbolInfo",
    "build_deadcode_index",
]
