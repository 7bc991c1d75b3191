"""Interprocedural effect summaries over the whole linted program.

The per-file rules see one module at a time. Three contracts the
repository rests on cannot be proven at that granularity:

- **cache-key completeness** — every attribute a Job's ``run()``
  transitively reads must be folded into its ``signature()``
  (:mod:`repro.perf.simcache` serves stale results otherwise);
- **observability purity** — no value *originating* from
  :mod:`repro.obs` may flow into soc/dram model state, control flow, or
  results (the traced == untraced bit-identity contract);
- **fork/pool safety** — code reachable from
  :mod:`repro.perf.pool` worker entry points must not mutate module
  globals the coordinator also depends on, unless the owning module
  explicitly declares them process-local.

This module computes, bottom-up over every function of every linted
file, a compact :class:`FunctionEffects` summary — ``self.*`` reads and
writes, module-global writes with their source lines, calls into
``repro.obs``, and resolved call edges (local, cross-module via
imports, and closed-world dynamic dispatch over ``*Job`` classes). :class:`Program` then runs the
interprocedural fixpoints the LINT014–LINT016 rules query: worker
reachability, transitive same-class attribute effects, transitive
impurity, and obs-returning classification.

Summaries are pure functions of one module's source plus the analyzer
code, so they are cached per module as JSON alongside the lint result
cache (``.lint-cache/effects/``); a whole-program re-analysis
after editing one file re-parses only that file.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

EFFECTS_SCHEMA_VERSION = 3

#: Class-body declaration naming fields deliberately *excluded* from a
#: Job's ``signature()`` (LINT014): fields that cannot change ``run()``
#: results (labels, cosmetic knobs) are listed here instead of hashed.
INERT_DECLARATION = "SIGNATURE_INERT"

#: Module-level declaration naming globals that are deliberately
#: process-local (LINT016): every process owns an independent copy and
#: divergence is benign (deterministic caches, per-process config).
PROCESS_LOCAL_DECLARATION = "_PROCESS_LOCAL_STATE"

#: Method names whose invocation mutates the receiver in place.
MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Builtin exception -> parent class, for handler-absorption checks
#: (``except LookupError:`` absorbs a raised ``KeyError``). Exception
#: labels are ``"module:ClassName"`` or ``"builtin:ClassName"``.
_BUILTIN_EXC_PARENT: Dict[str, Optional[str]] = {
    "BaseException": None,
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "InterruptedError": "OSError",
    "TimeoutError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "GeneratorExit": "BaseException",
}

#: Labels that broad handlers cannot be assumed to absorb via a plain
#: ``except Exception`` (they derive BaseException directly).
_NON_EXCEPTION_LABELS = frozenset(
    {
        "builtin:KeyboardInterrupt",
        "builtin:SystemExit",
        "builtin:GeneratorExit",
    }
)


# ----------------------------------------------------------------------
# Summary records (all JSON-serializable)
# ----------------------------------------------------------------------
@dataclass
class FunctionEffects:
    """Flow-insensitive effect summary of one function or method."""

    qualname: str
    class_name: Optional[str]
    line: int
    self_reads: Set[str] = field(default_factory=set)
    self_writes: Set[str] = field(default_factory=set)
    global_reads: Set[str] = field(default_factory=set)
    global_writes: Dict[str, int] = field(default_factory=dict)
    obs_calls: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)
    return_calls: Set[str] = field(default_factory=set)
    returns_obs: bool = False
    self_escapes: bool = False
    raises: Dict[str, int] = field(default_factory=dict)
    """Exception label -> line, for raises no local handler absorbs."""
    call_sites: Dict[str, List[Tuple[int, Tuple[str, ...]]]] = field(
        default_factory=dict
    )
    """Call ref -> (line, enclosing handler labels) per call site.

    The handler labels are what could absorb an exception propagating
    out of that call (``"*"`` = a bare/broad handler); the raise-set
    fixpoint (LINT019) uses them to decide whether a callee's escapes
    reach this function's callers.
    """

    def to_json(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "class_name": self.class_name,
            "line": self.line,
            "self_reads": sorted(self.self_reads),
            "self_writes": sorted(self.self_writes),
            "global_reads": sorted(self.global_reads),
            "global_writes": dict(sorted(self.global_writes.items())),
            "obs_calls": sorted(self.obs_calls),
            "calls": sorted(self.calls),
            "return_calls": sorted(self.return_calls),
            "returns_obs": self.returns_obs,
            "self_escapes": self.self_escapes,
            "raises": dict(sorted(self.raises.items())),
            "call_sites": {
                ref: [[line, sorted(labels)] for line, labels in sites]
                for ref, sites in sorted(self.call_sites.items())
            },
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "FunctionEffects":
        return cls(
            qualname=str(payload["qualname"]),
            class_name=payload["class_name"],
            line=int(payload["line"]),
            self_reads=set(payload["self_reads"]),
            self_writes=set(payload["self_writes"]),
            global_reads=set(payload["global_reads"]),
            global_writes={
                str(k): int(v) for k, v in payload["global_writes"].items()
            },
            obs_calls=set(payload["obs_calls"]),
            calls=set(payload["calls"]),
            return_calls=set(payload["return_calls"]),
            returns_obs=bool(payload["returns_obs"]),
            self_escapes=bool(payload["self_escapes"]),
            raises={
                str(k): int(v) for k, v in payload["raises"].items()
            },
            call_sites={
                str(ref): [
                    (int(line), tuple(str(lab) for lab in labels))
                    for line, labels in sites
                ]
                for ref, sites in payload["call_sites"].items()
            },
        )


@dataclass
class ClassEffects:
    """What the interprocedural rules need to know about one class."""

    name: str
    line: int
    fields: Dict[str, int] = field(default_factory=dict)
    methods: Set[str] = field(default_factory=set)
    inert_fields: Set[str] = field(default_factory=set)
    inert_line: Optional[int] = None
    signature_line: Optional[int] = None
    bases: Tuple[str, ...] = ()
    """Resolved base-class labels (exception-hierarchy queries)."""

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "line": self.line,
            "fields": dict(sorted(self.fields.items())),
            "methods": sorted(self.methods),
            "inert_fields": sorted(self.inert_fields),
            "inert_line": self.inert_line,
            "signature_line": self.signature_line,
            "bases": list(self.bases),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ClassEffects":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            fields={str(k): int(v) for k, v in payload["fields"].items()},
            methods=set(payload["methods"]),
            inert_fields=set(payload["inert_fields"]),
            inert_line=payload["inert_line"],
            signature_line=payload["signature_line"],
            bases=tuple(str(b) for b in payload["bases"]),
        )


@dataclass
class ModuleEffects:
    """Per-module effect summaries plus module-level declarations."""

    name: str
    path: str
    source_sha: str
    functions: Dict[str, FunctionEffects] = field(default_factory=dict)
    classes: Dict[str, ClassEffects] = field(default_factory=dict)
    module_globals: Set[str] = field(default_factory=set)
    process_local: Set[str] = field(default_factory=set)
    process_local_line: Optional[int] = None
    entry_points: Set[str] = field(default_factory=set)
    exports: Set[str] = field(default_factory=set)
    """``__all__`` names (the declared public surface, when present)."""

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": EFFECTS_SCHEMA_VERSION,
            "name": self.name,
            "path": self.path,
            "source_sha": self.source_sha,
            "functions": {
                k: v.to_json() for k, v in sorted(self.functions.items())
            },
            "classes": {
                k: v.to_json() for k, v in sorted(self.classes.items())
            },
            "module_globals": sorted(self.module_globals),
            "process_local": sorted(self.process_local),
            "process_local_line": self.process_local_line,
            "entry_points": sorted(self.entry_points),
            "exports": sorted(self.exports),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ModuleEffects":
        return cls(
            name=str(payload["name"]),
            path=str(payload["path"]),
            source_sha=str(payload["source_sha"]),
            functions={
                str(k): FunctionEffects.from_json(v)
                for k, v in payload["functions"].items()
            },
            classes={
                str(k): ClassEffects.from_json(v)
                for k, v in payload["classes"].items()
            },
            module_globals=set(payload["module_globals"]),
            process_local=set(payload["process_local"]),
            process_local_line=payload["process_local_line"],
            entry_points=set(payload["entry_points"]),
            exports=set(payload["exports"]),
        )


# ----------------------------------------------------------------------
# Module naming and import resolution
# ----------------------------------------------------------------------
def module_name_for(path: str) -> str:
    """Dotted module name for a file path.

    Files inside a ``repro`` package directory are named from that root
    (``.../src/repro/perf/jobs.py`` -> ``repro.perf.jobs``) so absolute
    imports between linted files resolve. Anything else (test fixtures
    in temporary directories) is named by its stem, matching the flat
    ``from helper import f`` imports fixtures use.
    """
    parts = list(Path(path).parts)
    stem = Path(path).stem
    if parts and parts[-1].endswith(".py"):
        parts[-1] = stem
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            dotted = [p for p in parts[idx:] if p != "__init__"]
            return ".".join(dotted)
    return stem


def collect_imports(tree: ast.Module, module_name: str) -> Dict[str, str]:
    """Local name -> import target, collected module-wide.

    Targets are ``"module"`` for plain module imports and
    ``"module:attr"`` for from-imports. Imports inside function bodies
    are included: the perf/experiments layers import lazily on purpose.
    """
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix_parts = module_name.split(".")
                # one level strips the module itself, further levels
                # strip enclosing packages
                cut = len(prefix_parts) - node.level
                if cut < 0:
                    continue
                prefix = ".".join(prefix_parts[:cut]) if cut else package
                base = f"{prefix}.{base}" if base and prefix else (base or prefix)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}:{alias.name}"
    return imports


# ----------------------------------------------------------------------
# Per-function extraction
# ----------------------------------------------------------------------
class _FunctionScanner:
    """One pass over a function body collecting its direct effects."""

    def __init__(
        self,
        effects: FunctionEffects,
        module_globals: Set[str],
        imports: Dict[str, str],
        local_funcs: Set[str],
        local_classes: Set[str],
    ) -> None:
        self.fx = effects
        self.module_globals = module_globals
        self.imports = imports
        self.local_funcs = local_funcs
        self.local_classes = local_classes
        self.locals: Set[str] = set()
        self.globals_declared: Set[str] = set()

    # -- name plumbing -------------------------------------------------
    def _collect_locals(self, node: ast.AST) -> None:
        """Names bound inside this scope (they shadow module globals)."""
        if isinstance(node, _FUNCTION_NODES):
            args = node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                self.locals.add(arg.arg)
            if args.vararg is not None:
                self.locals.add(args.vararg.arg)
            if args.kwarg is not None:
                self.locals.add(args.kwarg.arg)
        for inner in ast.walk(node):
            if isinstance(inner, ast.Global):
                self.globals_declared.update(inner.names)
            elif isinstance(inner, ast.Name) and isinstance(
                inner.ctx, (ast.Store, ast.Del)
            ):
                self.locals.add(inner.id)
            elif isinstance(inner, _FUNCTION_NODES):
                self.locals.add(inner.name)
            elif isinstance(inner, ast.ClassDef):
                self.locals.add(inner.name)
        self.locals -= self.globals_declared

    def _is_module_global(self, name: str) -> bool:
        if name in self.globals_declared:
            return True
        return name in self.module_globals and name not in self.locals

    # -- call references ----------------------------------------------
    def call_ref(self, call: ast.Call) -> Optional[str]:
        """Encode a call's target for program-level resolution.

        - ``local:qual`` — module function / same-class method;
        - ``import:module:attr`` — through a collected import;
        - ``dyn:meth`` — unresolved attribute call (closed-world
          dispatch over ``*Job`` classes at program level).
        """
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.locals and name not in self.local_funcs:
                return None
            if name in self.local_funcs or name in self.local_classes:
                return f"local:{name}"
            target = self.imports.get(name)
            if target is not None:
                if ":" in target:
                    return f"import:{target}"
                return None  # calling a module object: not a thing
            return None
        if isinstance(func, ast.Attribute):
            chain: List[str] = []
            root: ast.expr = func
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            chain.reverse()
            if isinstance(root, ast.Name):
                base = root.id
                if (
                    base in ("self", "cls")
                    and self.fx.class_name
                    and len(chain) == 1
                ):
                    return f"local:{self.fx.class_name}.{chain[0]}"
                if base in self.local_classes and len(chain) == 1:
                    return f"local:{base}.{chain[0]}"
                dotted = ".".join(chain)
                target = self.imports.get(base)
                if target is not None and ":" not in target:
                    return f"import:{target}:{dotted}"
                if target is not None and ":" in target:
                    # attribute path on a from-imported name (a class,
                    # submodule, or module object): the program resolves
                    # one dotted step at a time.
                    return f"import:{target}.{dotted}"
            return f"dyn:{func.attr}"
        return None

    def _record_call(self, call: ast.Call) -> Optional[str]:
        ref = self.call_ref(call)
        if ref is not None:
            self.fx.calls.add(ref)
            target = _import_target_module(ref)
            if target is not None and _is_obs_module(target):
                self.fx.obs_calls.add(ref)
        return ref

    # -- the scan ------------------------------------------------------
    def scan(self, node: ast.AST) -> None:
        self._collect_locals(node)
        body = node.body if isinstance(node, _FUNCTION_NODES) else [node]
        self._scan_stmts(body)

    def _scan_stmts(self, stmts: Sequence[ast.AST]) -> None:
        pending: List[ast.AST] = list(stmts)
        while pending:
            node = pending.pop()
            self._visit(node)
            if isinstance(node, ast.ClassDef):
                continue  # class bodies are their own scope
            if isinstance(node, _FUNCTION_NODES) or isinstance(
                node, ast.Lambda
            ):
                # Nested defs execute when called from this function;
                # fold their effects in conservatively (locals of the
                # nested scope were already collected, so shadowing
                # still suppresses false global writes).
                pending.extend(ast.iter_child_nodes(node))
                continue
            pending.extend(ast.iter_child_nodes(node))

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Attribute):
            self._visit_attribute(node)
        elif isinstance(node, ast.Name):
            self._visit_name(node)
        elif isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.Subscript):
            self._visit_subscript(node)
        elif isinstance(node, ast.Return):
            self._visit_return(node)

    def _visit_attribute(self, node: ast.Attribute) -> None:
        base = node.value
        if isinstance(base, ast.Name) and base.id == "self":
            if isinstance(node.ctx, ast.Load):
                self.fx.self_reads.add(node.attr)
            else:
                self.fx.self_writes.add(node.attr)
        elif isinstance(base, ast.Name) and self._is_module_global(base.id):
            if not isinstance(node.ctx, ast.Load):
                self.fx.global_writes.setdefault(base.id, node.lineno)

    def _visit_name(self, node: ast.Name) -> None:
        if node.id == "self" and isinstance(node.ctx, ast.Load):
            return  # escapes are detected structurally in _visit_call
        if not self._is_module_global(node.id):
            return
        if isinstance(node.ctx, ast.Load):
            self.fx.global_reads.add(node.id)
        else:
            self.fx.global_writes.setdefault(node.id, node.lineno)

    def _visit_call(self, node: ast.Call) -> None:
        self._record_call(node)
        # Mutating method call on self.X / a module global.
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            owner = func.value
            if (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"
            ):
                self.fx.self_writes.add(owner.attr)
            elif isinstance(owner, ast.Name) and self._is_module_global(
                owner.id
            ):
                self.fx.global_writes.setdefault(owner.id, node.lineno)
        # ``self`` escaping as an argument: treat every field as read.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Name)
                    and sub.id == "self"
                    and isinstance(sub.ctx, ast.Load)
                    and not self._is_attribute_base(arg, sub)
                ):
                    self.fx.self_escapes = True

    @staticmethod
    def _is_attribute_base(root: ast.expr, name: ast.Name) -> bool:
        """Whether ``name`` only appears as the base of an attribute."""
        for sub in ast.walk(root):
            if isinstance(sub, ast.Attribute) and sub.value is name:
                return True
        return False

    def _visit_subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            return
        base = node.value
        if isinstance(base, ast.Name) and self._is_module_global(base.id):
            self.fx.global_writes.setdefault(base.id, node.lineno)
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            self.fx.self_writes.add(base.attr)

    def _visit_return(self, node: ast.Return) -> None:
        if node.value is None:
            return
        for sub in ast.walk(node.value):
            if isinstance(sub, ast.Call):
                ref = self.call_ref(sub)
                if ref is not None:
                    self.fx.return_calls.add(ref)
            elif (
                isinstance(sub, ast.Name)
                and sub.id == "self"
                and isinstance(sub.ctx, ast.Load)
                and not self._is_attribute_base(node.value, sub)
            ):
                self.fx.self_escapes = True


def _import_target_module(ref: str) -> Optional[str]:
    if not ref.startswith("import:"):
        return None
    rest = ref[len("import:") :]
    return rest.split(":", 1)[0]


def _is_obs_module(module: str) -> bool:
    return module == "repro.obs" or module.startswith("repro.obs.")


# ----------------------------------------------------------------------
# Exception labels and handler absorption (LINT019)
# ----------------------------------------------------------------------
def _exception_label(
    expr: ast.expr,
    module_name: str,
    imports: Mapping[str, str],
    local_classes: Set[str],
) -> Optional[str]:
    """Canonical label for a raised or caught exception expression.

    ``"builtin:Name"`` for builtin exception classes, ``"module:Class"``
    for classes resolved locally or through imports, ``None`` when the
    expression cannot be resolved — the raise-set analysis stays silent
    on unresolvable raises rather than guess.
    """
    node = expr
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        name = node.id
        if name in local_classes:
            return f"{module_name}:{name}"
        target = imports.get(name)
        if target is not None:
            if ":" in target:
                mod, _, attr = target.partition(":")
                return f"{mod}:{attr}"
            return None  # a bare module object is not an exception
        if name in _BUILTIN_EXC_PARENT:
            return f"builtin:{name}"
        return None
    if isinstance(node, ast.Attribute):
        chain: List[str] = []
        root: ast.expr = node
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        chain.reverse()
        if not isinstance(root, ast.Name):
            return None
        target = imports.get(root.id)
        if target is None:
            return None
        base = target.replace(":", ".") if ":" in target else target
        *packages, cls = chain
        return ".".join([base, *packages]) + f":{cls}"
    return None


def _handler_absorbs(
    handler: str,
    label: str,
    bases: Mapping[str, Tuple[str, ...]],
) -> bool:
    """Whether one handler label catches one raised label.

    ``"*"`` is a broad handler (bare / ``Exception`` /
    ``BaseException``) and absorbs everything except the
    BaseException-derived control-flow exceptions. Otherwise the raised
    class's ancestor chain — builtin parents plus every known class's
    resolved bases — is searched for the handler.
    """
    if handler == "*":
        return label not in _NON_EXCEPTION_LABELS
    seen: Set[str] = set()
    pending = [label]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        if current == handler:
            return True
        kind, _, cls = current.partition(":")
        if kind == "builtin":
            parent = _BUILTIN_EXC_PARENT.get(cls)
            if parent is not None:
                pending.append(f"builtin:{parent}")
        else:
            pending.extend(bases.get(current, ()))
    return False


def _set_absorbs(
    label: str,
    handlers: Sequence[str],
    bases: Mapping[str, Tuple[str, ...]],
) -> bool:
    return any(
        _handler_absorbs(handler, label, bases) for handler in handlers
    )


class _RaiseScanner:
    """Second pass over a function: unabsorbed raises, guarded calls.

    Tracks, statement by statement, the labels of enclosing ``except``
    handlers that could absorb an exception raised there. ``raise``
    statements no enclosing handler absorbs land in ``fx.raises``;
    every call site is recorded with its guard labels so the
    program-level fixpoint can decide which callee escapes propagate
    further. Reuses the primary scanner's name resolution (its locals
    are already collected), so call refs use the identical encoding.
    """

    def __init__(
        self,
        scanner: _FunctionScanner,
        module_name: str,
        class_bases: Mapping[str, Tuple[str, ...]],
    ) -> None:
        self.scanner = scanner
        self.fx = scanner.fx
        self.module_name = module_name
        self.imports = scanner.imports
        self.local_classes = scanner.local_classes
        self.class_bases = class_bases

    def scan(self, node: ast.AST) -> None:
        body = node.body if isinstance(node, _FUNCTION_NODES) else [node]
        self._visit_stmts(body, ())

    def _visit_stmts(
        self, stmts: Sequence[ast.stmt], guards: Tuple[str, ...]
    ) -> None:
        for stmt in stmts:
            self._visit(stmt, guards)

    def _visit(self, node: ast.AST, guards: Tuple[str, ...]) -> None:
        if isinstance(node, ast.ClassDef):
            return  # class bodies are their own scope
        if isinstance(node, ast.Try):
            absorbing: List[str] = []
            for handler in node.handlers:
                if not self._handler_reraises(handler):
                    absorbing.extend(self._handler_labels(handler))
            # Only the try body is guarded: exceptions in the else,
            # finally, or handler suites propagate past this statement.
            self._visit_stmts(node.body, guards + tuple(absorbing))
            for handler in node.handlers:
                self._visit_stmts(handler.body, guards)
            self._visit_stmts(node.orelse, guards)
            self._visit_stmts(node.finalbody, guards)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node, guards)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._visit(child, guards)
            elif isinstance(child, ast.expr):
                self._scan_expr(child, guards)

    def _scan_expr(
        self, expr: ast.expr, guards: Tuple[str, ...]
    ) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                ref = self.scanner.call_ref(sub)
                if ref is not None:
                    self.fx.call_sites.setdefault(ref, []).append(
                        (sub.lineno, guards)
                    )

    def _record_raise(
        self, node: ast.Raise, guards: Tuple[str, ...]
    ) -> None:
        if node.exc is None:
            return  # bare re-raise: the handler-absorption check owns it
        label = _exception_label(
            node.exc, self.module_name, self.imports, self.local_classes
        )
        if label is None:
            return  # unresolvable: silence beats a guessed finding
        if _set_absorbs(label, guards, self.class_bases):
            return
        self.fx.raises.setdefault(label, node.lineno)

    def _handler_labels(self, handler: ast.ExceptHandler) -> List[str]:
        if handler.type is None:
            return ["*"]
        exprs = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        labels: List[str] = []
        for expr in exprs:
            label = _exception_label(
                expr, self.module_name, self.imports, self.local_classes
            )
            if label is None or label in (
                "builtin:Exception",
                "builtin:BaseException",
            ):
                # Unresolvable handlers absorb everything: a missed
                # escape is safe, a phantom one is not.
                labels.append("*")
            else:
                labels.append(label)
        return labels

    @staticmethod
    def _handler_reraises(handler: ast.ExceptHandler) -> bool:
        """A handler with a bare ``raise`` does not absorb its label."""
        return any(
            isinstance(sub, ast.Raise) and sub.exc is None
            for sub in ast.walk(handler)
        )


# ----------------------------------------------------------------------
# Declarations (inert fields / process-local globals)
# ----------------------------------------------------------------------
def _string_elements(expr: ast.expr) -> Optional[Set[str]]:
    """Constant string members of a tuple/list/set/frozenset literal."""
    node = expr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set", "tuple")
        and len(node.args) == 1
        and not node.keywords
    ):
        node = node.args[0]
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    out: Set[str] = set()
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ):
            return None
        out.add(element.value)
    return out


def _declaration_names(
    stmts: Sequence[ast.stmt], declaration: str
) -> Tuple[Set[str], Optional[int]]:
    for stmt in stmts:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        if (
            isinstance(target, ast.Name)
            and target.id == declaration
            and value is not None
        ):
            names = _string_elements(value)
            if names is not None:
                return names, stmt.lineno
    return set(), None


# ----------------------------------------------------------------------
# Module analysis
# ----------------------------------------------------------------------
def _class_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """Declared dataclass fields plus ``self.x = ...`` in ``__init__``."""
    fields: Dict[str, int] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if stmt.target.id != INERT_DECLARATION:
                fields.setdefault(stmt.target.id, stmt.lineno)
        elif isinstance(stmt, _FUNCTION_NODES) and stmt.name == "__init__":
            for inner in ast.walk(stmt):
                if not isinstance(inner, ast.Assign):
                    continue
                for target in inner.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        fields.setdefault(target.attr, inner.lineno)
    return fields


def _entry_refs(tree: ast.Module) -> Set[str]:
    """Call refs of functions handed to pool machinery.

    Two idioms create worker entry points: ``<pool>.submit(f, ...)``
    and ``ProcessPoolExecutor(initializer=f)``. The reference is
    resolved with the same encoding as ordinary calls so the program
    can map it onto summaries.
    """
    entries: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        candidates: List[ast.expr] = []
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            candidates.append(node.args[0])
        for kw in node.keywords:
            if kw.arg == "initializer":
                candidates.append(kw.value)
        for expr in candidates:
            if isinstance(expr, ast.Name):
                entries.add(f"local:{expr.id}")
            elif isinstance(expr, ast.Attribute) and isinstance(
                expr.value, ast.Name
            ):
                entries.add(f"local:{expr.value.id}.{expr.attr}")
    return entries


def analyze_module(
    source: str, path: str, module_name: Optional[str] = None
) -> ModuleEffects:
    """Compute one module's effect summaries from its source text."""
    name = module_name or module_name_for(path)
    sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
    module = ModuleEffects(name=name, path=path, source_sha=sha)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return module  # the engine reports the parse failure (LINT000)

    imports = collect_imports(tree, name)
    local_funcs: Set[str] = set()
    local_classes: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, _FUNCTION_NODES):
            local_funcs.add(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            local_classes.add(stmt.name)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    module.module_globals.add(target.id)
    module.process_local, module.process_local_line = _declaration_names(
        tree.body, PROCESS_LOCAL_DECLARATION
    )
    module.entry_points = _entry_refs(tree)
    module.exports, _ = _declaration_names(tree.body, "__all__")

    class_bases: Dict[str, Tuple[str, ...]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            resolved = [
                label
                for base in stmt.bases
                if (
                    label := _exception_label(
                        base, name, imports, local_classes
                    )
                )
                is not None
            ]
            class_bases[f"{name}:{stmt.name}"] = tuple(resolved)

    def add_function(
        node: ast.AST, qualname: str, class_name: Optional[str]
    ) -> None:
        fx = FunctionEffects(
            qualname=qualname,
            class_name=class_name,
            line=getattr(node, "lineno", 1),
        )
        scanner = _FunctionScanner(
            fx, module.module_globals, imports, local_funcs, local_classes
        )
        scanner.scan(node)
        _RaiseScanner(scanner, name, class_bases).scan(node)
        fx.returns_obs = any(
            ref in fx.obs_calls for ref in fx.return_calls
        )
        module.functions[qualname] = fx

    for stmt in tree.body:
        if isinstance(stmt, _FUNCTION_NODES):
            add_function(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            info = ClassEffects(
                name=stmt.name,
                line=stmt.lineno,
                bases=class_bases.get(f"{name}:{stmt.name}", ()),
            )
            info.fields = _class_fields(stmt)
            info.inert_fields, info.inert_line = _declaration_names(
                stmt.body, INERT_DECLARATION
            )
            for member in stmt.body:
                if isinstance(member, _FUNCTION_NODES):
                    info.methods.add(member.name)
                    if member.name == "signature":
                        info.signature_line = member.lineno
                    add_function(
                        member, f"{stmt.name}.{member.name}", stmt.name
                    )
            module.classes[stmt.name] = info
    return module


# ----------------------------------------------------------------------
# Per-module summary cache
# ----------------------------------------------------------------------
class EffectsCache:
    """JSON summary cache under ``<lint-cache>/effects/``.

    Keys are sha256(analyzer fingerprint + module source): editing a
    file, or any module of the lint package, invalidates exactly the
    summaries it should. Entries are advisory — unreadable or
    schema-mismatched files count as misses.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory) / "effects"
        self.hits = 0
        self.misses = 0
        from repro.lint.cache import _analyzer_fingerprint

        self._fingerprint = _analyzer_fingerprint()

    def key_for(self, source: str) -> str:
        digest = hashlib.sha256()
        digest.update(self._fingerprint.encode("utf-8"))
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key[2:]}.json"

    def lookup(self, key: str) -> Optional[ModuleEffects]:
        try:
            payload = json.loads(
                self._entry_path(key).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != EFFECTS_SCHEMA_VERSION
        ):
            self.misses += 1
            return None
        try:
            module = ModuleEffects.from_json(payload)
        except (KeyError, TypeError, ValueError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return module

    def store(self, key: str, module: ModuleEffects) -> None:
        entry = self._entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        tmp = entry.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(module.to_json(), sort_keys=True), encoding="utf-8"
        )
        tmp.replace(entry)


# ----------------------------------------------------------------------
# Whole-program view
# ----------------------------------------------------------------------
class Program:
    """Summaries of every linted module plus interprocedural fixpoints.

    Function identity is ``"module:qualname"``. All closures are
    computed once, lazily, and memoized — the per-file rule checkers
    query them repeatedly.
    """

    def __init__(self, modules: Iterable[ModuleEffects]) -> None:
        self.modules: Dict[str, ModuleEffects] = {}
        for module in modules:
            self.modules[module.name] = module
        self._callees: Dict[str, Tuple[str, ...]] = {}
        self._worker_reachable: Optional[FrozenSet[str]] = None
        self._impure: Optional[Dict[str, str]] = None
        self._obs_returning: Optional[FrozenSet[str]] = None
        self._class_bases: Optional[Dict[str, Tuple[str, ...]]] = None
        self._escaped: Optional[
            Dict[str, Dict[str, Tuple[int, str]]]
        ] = None

    # -- identity ------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash over every module (keys the per-file cache)."""
        digest = hashlib.sha256()
        for name in sorted(self.modules):
            digest.update(name.encode("utf-8"))
            digest.update(self.modules[name].source_sha.encode("utf-8"))
        return digest.hexdigest()

    def module_for_path(self, path: str) -> Optional[ModuleEffects]:
        norm = Path(path).as_posix()
        for module in self.modules.values():
            if Path(module.path).as_posix() == norm:
                return module
        return None

    def function(self, fid: str) -> Optional[FunctionEffects]:
        module, _, qualname = fid.partition(":")
        info = self.modules.get(module)
        return info.functions.get(qualname) if info else None

    # -- call resolution ----------------------------------------------
    def resolve_ref(self, module: str, ref: str) -> List[str]:
        """Function ids a call reference may reach (closed world)."""
        kind, _, rest = ref.partition(":")
        if kind == "local":
            info = self.modules.get(module)
            if info is None:
                return []
            if rest in info.functions:
                return [f"{module}:{rest}"]
            if rest in info.classes:
                init = f"{rest}.__init__"
                if init in info.functions:
                    return [f"{module}:{init}"]
            return []
        if kind == "import":
            target_module, _, attr = rest.partition(":")
            if not attr:
                return []
            info = self.modules.get(target_module)
            if info is not None:
                if attr in info.functions:
                    return [f"{target_module}:{attr}"]
                if attr in info.classes:
                    init = f"{attr}.__init__"
                    if init in info.functions:
                        return [f"{target_module}:{init}"]
            if "." in attr:
                # ``from repro.obs import runtime as r; r.activate()``:
                # the from-imported name is itself a submodule. Shift
                # one dotted step into the module part and retry —
                # even when the intermediate package module is not in
                # the program (namespace dirs, unlinted __init__).
                first, _, remainder = attr.partition(".")
                return self.resolve_ref(
                    module, f"import:{target_module}.{first}:{remainder}"
                )
            return []
        if kind == "dyn":
            # Closed-world dynamic dispatch: ``x.run()`` on an unknown
            # receiver reaches every ``*Job`` class's method of that
            # name — the convention LINT012 already relies on.
            out: List[str] = []
            for mod_name, info in sorted(self.modules.items()):
                for cls_name, cls in sorted(info.classes.items()):
                    if not cls_name.endswith("Job"):
                        continue
                    qualname = f"{cls_name}.{rest}"
                    if qualname in info.functions:
                        out.append(f"{mod_name}:{qualname}")
            return out
        return []

    def callees(self, fid: str) -> Tuple[str, ...]:
        cached = self._callees.get(fid)
        if cached is not None:
            return cached
        fx = self.function(fid)
        if fx is None:
            self._callees[fid] = ()
            return ()
        module = fid.partition(":")[0]
        out: List[str] = []
        for ref in sorted(fx.calls):
            out.extend(self.resolve_ref(module, ref))
        resolved = tuple(dict.fromkeys(out))
        self._callees[fid] = resolved
        return resolved

    def reachable(self, roots: Sequence[str]) -> FrozenSet[str]:
        seen: Set[str] = set()
        pending = [fid for fid in roots if self.function(fid) is not None]
        while pending:
            fid = pending.pop()
            if fid in seen:
                continue
            seen.add(fid)
            pending.extend(self.callees(fid))
        return frozenset(seen)

    # -- fixpoints -----------------------------------------------------
    def worker_entry_points(self) -> List[str]:
        entries: List[str] = []
        for name, info in sorted(self.modules.items()):
            for ref in sorted(info.entry_points):
                entries.extend(self.resolve_ref(name, ref))
        return entries

    def worker_reachable(self) -> FrozenSet[str]:
        """Function ids reachable from any pool worker entry point."""
        if self._worker_reachable is None:
            self._worker_reachable = self.reachable(
                self.worker_entry_points()
            )
        return self._worker_reachable

    def class_closure(
        self, module: str, class_name: str, root_method: str
    ) -> Tuple[Set[str], Set[str], bool]:
        """(self reads, self writes, self escapes) of a method closure.

        Transitive over same-class calls only: ``self.helper()`` reads
        propagate to the caller, cross-class calls do not touch this
        object's attributes.
        """
        info = self.modules.get(module)
        reads: Set[str] = set()
        writes: Set[str] = set()
        escapes = False
        if info is None:
            return reads, writes, escapes
        cls = info.classes.get(class_name)
        methods = cls.methods if cls is not None else set()
        seen: Set[str] = set()
        pending = [root_method]
        while pending:
            method = pending.pop()
            if method in seen:
                continue
            seen.add(method)
            fx = info.functions.get(f"{class_name}.{method}")
            if fx is None:
                continue
            reads |= fx.self_reads
            writes |= fx.self_writes
            escapes = escapes or fx.self_escapes
            # A bare ``self.name`` read that names a method is a
            # property access: fold the accessor's effects in too.
            pending.extend(fx.self_reads & methods)
            for ref in fx.calls:
                kind, _, rest = ref.partition(":")
                if kind == "local" and rest.startswith(f"{class_name}."):
                    pending.append(rest.split(".", 1)[1])
        return reads, writes, escapes

    def impure_functions(self) -> Dict[str, str]:
        """fid -> reason, for functions with (transitive) write effects.

        A function is impure when it writes ``self.*`` or a module
        global directly, or calls an impure function. Used by LINT015's
        guarded-branch check: calls inside an obs-enabled guard must
        not perturb model state.
        """
        if self._impure is not None:
            return self._impure
        impure: Dict[str, str] = {}
        for mod_name, info in self.modules.items():
            for qualname, fx in info.functions.items():
                fid = f"{mod_name}:{qualname}"
                if fx.self_writes:
                    impure[fid] = (
                        f"writes self.{sorted(fx.self_writes)[0]}"
                    )
                elif fx.global_writes:
                    name = sorted(fx.global_writes)[0]
                    impure[fid] = f"writes module global {name!r}"
        changed = True
        while changed:
            changed = False
            for mod_name, info in self.modules.items():
                for qualname in info.functions:
                    fid = f"{mod_name}:{qualname}"
                    if fid in impure:
                        continue
                    for callee in self.callees(fid):
                        if callee in impure:
                            impure[fid] = (
                                f"calls {callee.partition(':')[2]}() "
                                f"which {impure[callee]}"
                            )
                            changed = True
                            break
        self._impure = impure
        return impure

    def class_bases(self) -> Dict[str, Tuple[str, ...]]:
        """Program-wide ``module:Class`` -> resolved base labels."""
        if self._class_bases is None:
            out: Dict[str, Tuple[str, ...]] = {}
            for mod_name, info in self.modules.items():
                for cls_name, cls in info.classes.items():
                    out[f"{mod_name}:{cls_name}"] = cls.bases
            self._class_bases = out
        return self._class_bases

    def is_repro_error_label(self, label: str) -> bool:
        """Whether a label is ReproError or one of its subclasses.

        Any class defined in :mod:`repro.errors` qualifies directly —
        the module *is* the sanctioned hierarchy — so subclasses of
        e.g. ``ConfigError`` resolve even when ``repro.errors`` itself
        is outside the linted file set.
        """
        bases = self.class_bases()
        seen: Set[str] = set()
        pending = [label]
        while pending:
            current = pending.pop()
            if current in seen:
                continue
            seen.add(current)
            if current.startswith("repro.errors:"):
                return True
            pending.extend(bases.get(current, ()))
        return False

    def escaped_raises(self) -> Dict[str, Dict[str, Tuple[int, str]]]:
        """fid -> {label: (line, origin fid)} of escaping exceptions.

        Seeds each function with its own unabsorbed raises, then
        propagates callee escapes through call sites whose guard
        labels do not absorb them, to a fixpoint. ``line`` is where
        the exception enters this function (the raise, or the call it
        propagates out of); ``origin`` is the function that raised.
        """
        if self._escaped is not None:
            return self._escaped
        bases = self.class_bases()
        escaped: Dict[str, Dict[str, Tuple[int, str]]] = {}
        for mod_name, info in self.modules.items():
            for qualname, fx in info.functions.items():
                escaped[f"{mod_name}:{qualname}"] = {
                    label: (line, f"{mod_name}:{qualname}")
                    for label, line in fx.raises.items()
                }
        changed = True
        while changed:
            changed = False
            for mod_name, info in self.modules.items():
                for qualname, fx in info.functions.items():
                    mine = escaped[f"{mod_name}:{qualname}"]
                    for ref, sites in fx.call_sites.items():
                        for target in self.resolve_ref(mod_name, ref):
                            for label, (_, origin) in escaped.get(
                                target, {}
                            ).items():
                                if label in mine:
                                    continue
                                for site_line, guard in sites:
                                    if not _set_absorbs(
                                        label, guard, bases
                                    ):
                                        mine[label] = (site_line, origin)
                                        changed = True
                                        break
        self._escaped = escaped
        return escaped

    def obs_returning(self) -> FrozenSet[str]:
        """Functions that may return a value originating in repro.obs."""
        if self._obs_returning is not None:
            return self._obs_returning
        flagged: Set[str] = set()
        for mod_name, info in self.modules.items():
            for qualname, fx in info.functions.items():
                if fx.returns_obs or (
                    _is_obs_module(mod_name) and fx.return_calls
                ):
                    flagged.add(f"{mod_name}:{qualname}")
        changed = True
        while changed:
            changed = False
            for mod_name, info in self.modules.items():
                for qualname, fx in info.functions.items():
                    fid = f"{mod_name}:{qualname}"
                    if fid in flagged:
                        continue
                    for ref in fx.return_calls:
                        if any(
                            target in flagged
                            for target in self.resolve_ref(mod_name, ref)
                        ):
                            flagged.add(fid)
                            changed = True
                            break
        self._obs_returning = frozenset(flagged)
        return self._obs_returning


def build_program(
    sources: Sequence[Tuple[str, str]],
    cache: Optional[EffectsCache] = None,
) -> Program:
    """Analyze ``(path, source)`` pairs into a :class:`Program`.

    With a cache, unchanged modules load their summaries instead of
    re-parsing; name collisions (two fixture files with one stem) keep
    the first occurrence and ignore later ones deterministically.
    """
    modules: List[ModuleEffects] = []
    seen: Set[str] = set()
    for path, source in sources:
        name = module_name_for(path)
        if name in seen:
            continue
        seen.add(name)
        if cache is not None:
            key = cache.key_for(source)
            cached = cache.lookup(key)
            if cached is not None and cached.name == name:
                modules.append(cached)
                continue
            computed = analyze_module(source, path, name)
            cache.store(key, computed)
            modules.append(computed)
        else:
            modules.append(analyze_module(source, path, name))
    return Program(modules)


__all__ = [
    "EFFECTS_SCHEMA_VERSION",
    "INERT_DECLARATION",
    "MUTATOR_METHODS",
    "PROCESS_LOCAL_DECLARATION",
    "ClassEffects",
    "EffectsCache",
    "FunctionEffects",
    "ModuleEffects",
    "Program",
    "analyze_module",
    "build_program",
    "collect_imports",
    "module_name_for",
]
