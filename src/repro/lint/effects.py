"""Whole-program raise-set summaries for the exception-flow rule.

LINT019 asks whether a non-:mod:`repro.errors` exception can escape a
public function, which no single file can answer: the raise may sit two
calls away in another module. This module computes, for every function
of every linted file, a compact :class:`FunctionEffects` summary — the
exceptions it raises that no local handler absorbs, and each call site
with the handler labels guarding it — and :class:`Program` resolves the
call references (local, cross-module through imports, submodule
attribute paths, and closed-world dispatch of a method call on an
unknown receiver to every ``*Job`` class) and propagates the raise sets
to a fixpoint.

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
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

EFFECTS_SCHEMA_VERSION = 4

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
    """Raise-set summary of one function or method."""

    qualname: str
    class_name: Optional[str]
    line: int
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
    """One class: where it is and what it derives from."""

    name: str
    line: int
    bases: Tuple[str, ...] = ()
    """Resolved base-class labels (exception-hierarchy queries)."""

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "line": self.line,
            "bases": list(self.bases),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ClassEffects":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            bases=tuple(str(b) for b in payload["bases"]),
        )


@dataclass
class ModuleEffects:
    """Per-module function and class summaries."""

    name: str
    path: str
    source_sha: str
    functions: Dict[str, FunctionEffects] = field(default_factory=dict)
    classes: Dict[str, ClassEffects] = field(default_factory=dict)

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
# Per-function name resolution
# ----------------------------------------------------------------------
class _FunctionScanner:
    """One function's local names, and its calls encoded as refs."""

    def __init__(
        self,
        effects: FunctionEffects,
        imports: Dict[str, str],
        local_funcs: Set[str],
        local_classes: Set[str],
    ) -> None:
        self.fx = effects
        self.imports = imports
        self.local_funcs = local_funcs
        self.local_classes = local_classes
        self.locals: Set[str] = set()

    def scan(self, node: ast.AST) -> None:
        """Collect the names bound inside this scope (they shadow
        module-level functions and imports)."""
        globals_declared: Set[str] = set()
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
                globals_declared.update(inner.names)
            elif isinstance(inner, ast.Name) and isinstance(
                inner.ctx, (ast.Store, ast.Del)
            ):
                self.locals.add(inner.id)
            elif isinstance(inner, _FUNCTION_NODES):
                self.locals.add(inner.name)
            elif isinstance(inner, ast.ClassDef):
                self.locals.add(inner.name)
        self.locals -= globals_declared

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
# Module analysis
# ----------------------------------------------------------------------
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
        scanner = _FunctionScanner(fx, imports, local_funcs, local_classes)
        scanner.scan(node)
        _RaiseScanner(scanner, name, class_bases).scan(node)
        module.functions[qualname] = fx

    for stmt in tree.body:
        if isinstance(stmt, _FUNCTION_NODES):
            add_function(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            module.classes[stmt.name] = ClassEffects(
                name=stmt.name,
                line=stmt.lineno,
                bases=class_bases[f"{name}:{stmt.name}"],
            )
            for member in stmt.body:
                if isinstance(member, _FUNCTION_NODES):
                    add_function(
                        member, f"{stmt.name}.{member.name}", stmt.name
                    )
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
    """Summaries of every linted module plus the raise-set fixpoint.

    Function identity is ``"module:qualname"``. The class hierarchy and
    the escaped raise sets are computed once, lazily, and memoized —
    the per-file checker queries them for every file.
    """

    def __init__(self, modules: Iterable[ModuleEffects]) -> None:
        self.modules: Dict[str, ModuleEffects] = {}
        for module in modules:
            self.modules[module.name] = module
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
                for cls_name in sorted(info.classes):
                    if not cls_name.endswith("Job"):
                        continue
                    qualname = f"{cls_name}.{rest}"
                    if qualname in info.functions:
                        out.append(f"{mod_name}:{qualname}")
            return out
        return []

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
