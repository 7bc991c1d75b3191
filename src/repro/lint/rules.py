"""Rule registry and per-rule AST checkers.

Every rule encodes a bug class this repository has actually hit (or is
structurally exposed to); see ``DESIGN.md`` §2.9 for the incident log
behind each one. A rule is a pure function from a parsed module to
:class:`~repro.lint.engine.Finding` records — no I/O, no global state —
so the engine can run any subset over any file.
"""

from __future__ import annotations

import ast
import inspect
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import LintError
from repro.lint.arch import ArchContext
from repro.lint.base import Checker, FileContext, Finding, Rule
from repro.lint.callgraph import (
    ModuleCallGraph,
    direct_unpicklable,
    module_unpicklable_globals,
)
from repro.lint.effects import (
    collect_imports as effects_collect_imports,
    module_name_for,
)


# ----------------------------------------------------------------------
# Scope predicates
# ----------------------------------------------------------------------
_SCHEDULER_SCOPE_DIRS: Tuple[str, ...] = ("dram/schedulers/",)
_SCHEDULER_SCOPE_FILES: Tuple[str, ...] = (
    "soc/engine.py",
    "soc/memsys.py",
    "soc/multimc.py",
    "dram/queue.py",
    "dram/system.py",
    "dram/bank.py",
)


def _in_scheduler_scope(ctx: FileContext) -> bool:
    path = ctx.norm_path
    if any(fragment in path for fragment in _SCHEDULER_SCOPE_DIRS):
        return True
    return any(path.endswith(name) for name in _SCHEDULER_SCOPE_FILES)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_DICT_VIEW_METHODS = frozenset({"values", "keys", "items"})
_SET_BINOPS = (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _walk_scope(nodes: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class scopes."""
    pending: List[ast.AST] = list(nodes)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue  # nested scopes are walked by their own pass
        pending.extend(ast.iter_child_nodes(node))


def _collect_set_names(
    nodes: Sequence[ast.stmt], inherited: Set[str]
) -> Set[str]:
    """Names assigned a set-valued expression within one scope.

    Flow-insensitive within the scope on purpose: a name that *ever*
    holds a set there is treated as unordered everywhere in it, which
    is the conservative reading for a determinism lint.
    """
    names: Set[str] = set(inherited)
    for node in _walk_scope(nodes):
        targets: Sequence[ast.expr]
        if isinstance(node, ast.Assign):
            value: Optional[ast.expr] = node.value
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            value = node.value
            targets = [node.target]
        else:
            continue
        if value is None or not _is_set_expr(value, names):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(_attribute_source(target))
    return names


def _attribute_source(node: ast.Attribute) -> str:
    """Dotted form of an attribute chain (``self.touched`` etc.)."""
    parts: List[str] = [node.attr]
    current: ast.expr = node.value
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    return ".".join(reversed(parts))


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _SET_CONSTRUCTORS
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute):
        return _attribute_source(node) in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _is_dict_view_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and not node.args
        and not node.keywords
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEW_METHODS
    )


def _is_unordered_iterable(node: ast.expr, set_names: Set[str]) -> bool:
    return _is_set_expr(node, set_names) or _is_dict_view_call(node)


def _call_keyword_names(node: ast.Call) -> Set[str]:
    return {kw.arg for kw in node.keywords if kw.arg is not None}


# ----------------------------------------------------------------------
# LINT001 — unordered iteration in scheduler/engine selection loops
# ----------------------------------------------------------------------
def _collect_set_attributes(tree: ast.Module) -> Set[str]:
    """Dotted attribute paths (``self.x``) ever assigned a set expression.

    Instance attributes live across methods, so these are collected
    module-wide and inherited by every scope.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not _is_set_expr(node.value, names):
            continue
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                names.add(_attribute_source(target))
    return names


def _check_unordered_iteration(
    tree: ast.Module, ctx: FileContext
) -> List[Finding]:
    if not _in_scheduler_scope(ctx):
        return []
    findings: List[Finding] = []

    def check_scope(nodes: Sequence[ast.stmt], inherited: Set[str]) -> None:
        set_names = _collect_set_names(nodes, inherited)
        for node in _walk_scope(nodes):
            if isinstance(node, ast.For) and _is_unordered_iterable(
                node.iter, set_names
            ):
                findings.append(
                    Finding(
                        file=ctx.path,
                        line=node.iter.lineno,
                        col=node.iter.col_offset,
                        rule="LINT001",
                        message=(
                            "iteration over an unordered set/dict view in "
                            "scheduler/engine code; wrap in sorted(...) or "
                            "select with an explicit tie-break key"
                        ),
                    )
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("min", "max")
                and node.args
                and "key" not in _call_keyword_names(node)
                and _is_unordered_iterable(node.args[0], set_names)
            ):
                findings.append(
                    Finding(
                        file=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="LINT001",
                        message=(
                            f"{node.func.id}() over an unordered "
                            "collection without an explicit key= "
                            "tie-break in scheduler/engine code"
                        ),
                    )
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check_scope(node.body, set_names)
            elif isinstance(node, ast.ClassDef):
                check_scope(node.body, set_names)

    check_scope(tree.body, _collect_set_attributes(tree))
    return findings


# ----------------------------------------------------------------------
# LINT004 — exact float comparison
# ----------------------------------------------------------------------
def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_literal(node.operand)
    )


def _check_float_equality(
    tree: ast.Module, ctx: FileContext
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands: List[ast.expr] = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _is_float_literal(left) or _is_float_literal(right):
                findings.append(
                    Finding(
                        file=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="LINT004",
                        message=(
                            "exact ==/!= against a float literal; use "
                            "repro.units.approx_eq (or math.isclose) in "
                            "solver/fixed-point code"
                        ),
                    )
                )
                break
    return findings


# ----------------------------------------------------------------------
# LINT005 — mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
               ast.SetComp)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


def _check_mutable_defaults(
    tree: ast.Module, ctx: FileContext
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        defaults: List[Optional[ast.expr]] = [
            *node.args.defaults,
            *node.args.kw_defaults,
        ]
        for default in defaults:
            if default is not None and _is_mutable_default(default):
                findings.append(
                    Finding(
                        file=ctx.path,
                        line=default.lineno,
                        col=default.col_offset,
                        rule="LINT005",
                        message=(
                            "mutable default argument is shared across "
                            "calls; default to None and build inside the "
                            "function"
                        ),
                    )
                )
    return findings


# ----------------------------------------------------------------------
# LINT007 — raises outside the repro.errors hierarchy
# ----------------------------------------------------------------------
_BANNED_EXCEPTIONS = frozenset(
    {"Exception", "BaseException", "ValueError", "RuntimeError", "TypeError"}
)


def _check_bare_raises(tree: ast.Module, ctx: FileContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name: Optional[str] = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BANNED_EXCEPTIONS:
            findings.append(
                Finding(
                    file=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="LINT007",
                    message=(
                        f"raise {name} bypasses the repro.errors "
                        "hierarchy; raise a ReproError subclass so "
                        "callers can catch library failures uniformly"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# LINT011 — nondeterministic values: wall clock, global RNG, OS entropy
# ----------------------------------------------------------------------
_WALLCLOCK_EXEMPT: Tuple[str, ...] = ("repro/perf/", "benchmarks/")
_SOURCE_ROOTS = frozenset(
    {"time", "datetime", "random", "numpy", "os", "uuid", "secrets"}
)
_WALLCLOCK_CALLS = frozenset(
    [
        f"time.{name}"
        for name in (
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
        )
    ]
    + [
        f"datetime.{cls}.{name}"
        for cls in ("datetime", "date")
        for name in ("now", "utcnow", "today")
    ]
)
_ENTROPY_CALLS = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom"}
)
_SEEDABLE_CALLS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
    }
)
_GLOBAL_RNG_MODULES = frozenset({"random", "numpy.random"})
_RNG_TYPES = frozenset({"numpy.random.Generator"})

_WALLCLOCK = (
    "reads the wall clock",
    "simulated time must come from the engine, and harness timing "
    "belongs in repro.perf.timing",
)
_ENTROPY = (
    "returns OS entropy",
    "derive the value from the configuration and seed instead",
)
_UNSEEDED = (
    "without a seed draws its state from OS entropy",
    "pass an explicit seed",
)
_GLOBAL_RNG = (
    "draws from hidden module-level RNG state",
    "draw from an injected random.Random(seed) instead",
)


def _import_origins(tree: ast.Module, ctx: FileContext) -> Dict[str, str]:
    """Local names bound to the clock/RNG/entropy modules -> dotted origin.

    ``import numpy as np`` gives ``np -> numpy``; ``from numpy.random
    import rand`` gives ``rand -> numpy.random.rand``. Function-local
    imports count too, and shadowing is ignored (the conservative
    reading for a determinism lint).
    """
    imports = effects_collect_imports(tree, module_name_for(ctx.path))
    return {
        local: target.replace(":", ".")
        for local, target in imports.items()
        if target.partition(":")[0].partition(".")[0] in _SOURCE_ROOTS
    }


def _resolve_call(func: ast.expr, origins: Dict[str, str]) -> Optional[str]:
    """Dotted origin of a call target (``numpy.random.rand``)."""
    attrs: List[str] = []
    while isinstance(func, ast.Attribute):
        attrs.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in origins:
        return None
    return ".".join([origins[func.id], *reversed(attrs)])


def _nondeterminism(
    dotted: str, call: ast.Call, wallclock_exempt: bool
) -> Optional[Tuple[str, str]]:
    """(why, fix) when calling ``dotted`` yields a nondeterministic value."""
    if dotted in _WALLCLOCK_CALLS:
        return None if wallclock_exempt else _WALLCLOCK
    if dotted in _ENTROPY_CALLS or dotted.startswith("secrets."):
        return _ENTROPY
    if dotted in _SEEDABLE_CALLS:
        return None if call.args or call.keywords else _UNSEEDED
    module = dotted.rpartition(".")[0]
    if module in _GLOBAL_RNG_MODULES and dotted not in _RNG_TYPES:
        return _GLOBAL_RNG
    return None


def _check_nondeterminism(
    tree: ast.Module, ctx: FileContext
) -> List[Finding]:
    """Every call that yields a nondeterministic value is a finding.

    **Why.** Every figure and table is a function of the configuration
    and seed alone; the bit-identity contracts (serial == pooled,
    traced == untraced, cached == fresh) assume it. A value from the
    wall clock, the hidden module-level RNG, or OS entropy breaks that
    wherever it goes, so the finding sits at the call that produces it,
    in any module. Wall-clock reads are exempt in ``repro/perf/`` and
    ``benchmarks/``, which time the harness; the rest of the tree
    reaches the clock through :class:`repro.perf.timing.Stopwatch`.

    **True positive.** ``time.time()`` or ``datetime.now()`` in model
    code; ``random.random()``, ``random.shuffle(q)`` or
    ``np.random.rand()`` (the module-level RNG); an unseeded
    ``random.Random()`` or ``np.random.default_rng()``;
    ``os.urandom``, ``uuid.uuid4`` and any ``secrets`` call.

    **True negative.** ``random.Random(seed)`` and draws from it;
    ``np.random.default_rng(seed)``; ``time.sleep`` (no value);
    ``time.perf_counter()`` inside ``repro/perf/``.

    **Suppression.** Inject a seeded RNG or take time from the engine
    or a ``Stopwatch`` instead. A ``# lint: disable=LINT011`` pragma is
    only for a value that provably never reaches a result, such as a
    log line.
    """
    origins = _import_origins(tree, ctx)
    if not origins:
        return []
    wallclock_exempt = any(
        fragment in ctx.norm_path for fragment in _WALLCLOCK_EXEMPT
    )
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _resolve_call(node.func, origins)
        if dotted is None:
            continue
        reason = _nondeterminism(dotted, node, wallclock_exempt)
        if reason is None:
            continue
        why, fix = reason
        findings.append(
            Finding(
                file=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule="LINT011",
                message=(
                    f"nondeterministic value: {dotted}() {why}; model "
                    "outputs must be functions of the configuration and "
                    f"seed only — {fix}"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# LINT012 — picklability of perf-job classes
# ----------------------------------------------------------------------
def _job_scope_classes(
    tree: ast.Module, ctx: FileContext
) -> List[ast.ClassDef]:
    in_perf = "repro/perf/" in ctx.norm_path
    classes: List[ast.ClassDef] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and (
            in_perf or node.name.endswith("Job")
        ):
            classes.append(node)
    return classes


def _check_job_picklability(
    tree: ast.Module, ctx: FileContext
) -> List[Finding]:
    """Job classes must hold only values that survive ``pickle``.

    **Why.** :func:`repro.perf.parallel_map` ships jobs to worker
    processes. A lambda, generator or open file handle on a job fails
    only at runtime, on the parallel path, under ``--jobs N``. The
    rule covers job classes (name ending ``Job``, or any class in
    ``repro/perf/``) and follows the module call graph
    (:mod:`repro.lint.callgraph`), so a lambda returned three helpers
    deep is caught where it is stored.

    **True positive.** ``transform = lambda self, x: x`` in the class
    body; ``fn: object = field(default=lambda: 1)``;
    ``self.handle = open(path)``; ``self.key = make_key()`` where
    ``make_key`` returns a lambda; a nested ``def`` (a closure) stored
    on ``self``; a class attribute naming a module-level lambda.

    **True negative.** Plain data fields; ``self.key = keyfn`` where
    ``keyfn`` is a module-level ``def`` (pickled by qualified name);
    a non-job class outside ``repro/perf/``.

    **Suppression.** Store the picklable inputs and build the value
    inside ``run()``. A ``# lint: disable=LINT012`` pragma is only for
    a member that is dropped before the job is pickled.
    """
    job_classes = _job_scope_classes(tree, ctx)
    if not job_classes:
        return []
    graph = ModuleCallGraph(tree)
    flagged = graph.unpicklable_returns()
    bad_globals = module_unpicklable_globals(tree)
    findings: List[Finding] = []

    def flag(node: ast.AST, cls: str, why: str) -> None:
        findings.append(
            Finding(
                file=ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule="LINT012",
                message=(
                    f"job class {cls} ships {why} across the "
                    "parallel_map process boundary; jobs must be "
                    "picklable end to end"
                ),
            )
        )

    def global_reason(value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Name) and value.id in bad_globals:
            why, line = bad_globals[value.id]
            return (
                f"module-level state {value.id!r} "
                f"({why}, bound at line {line})"
            )
        return None

    for cls in job_classes:
        for stmt in cls.body:
            if (
                not isinstance(stmt, (ast.Assign, ast.AnnAssign))
                or stmt.value is None
            ):
                continue
            value = stmt.value
            direct = direct_unpicklable(value)
            if direct is not None:
                flag(value, cls.name, f"{direct} (class attribute)")
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "field"
            ):
                for kw in value.keywords:
                    direct = direct_unpicklable(kw.value)
                    if kw.arg == "default" and direct is not None:
                        flag(kw.value, cls.name, f"{direct} (field default)")
            else:
                reason = global_reason(value)
                if reason is not None:
                    flag(value, cls.name, reason)
        for member in cls.body:
            if not isinstance(
                member, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            info = graph.functions.get(f"{cls.name}.{member.name}")
            for inner in ast.walk(member):
                if not isinstance(inner, ast.Assign):
                    continue
                stores_on_self = any(
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    for target in inner.targets
                )
                if not stores_on_self:
                    continue
                reason = graph.unpicklable_expr(
                    inner.value, info, flagged
                ) or global_reason(inner.value)
                if reason is not None:
                    flag(inner, cls.name, reason)
    return findings


# ----------------------------------------------------------------------
# LINT013 — print() in simulator/model code
# ----------------------------------------------------------------------
_MODEL_SCOPE_DIRS: Tuple[str, ...] = (
    "repro/soc/",
    "repro/dram/",
    "repro/core/",
)


def _in_model_scope(ctx: FileContext) -> bool:
    return any(fragment in ctx.norm_path for fragment in _MODEL_SCOPE_DIRS)


def _check_model_print(tree: ast.Module, ctx: FileContext) -> List[Finding]:
    """Model code must not write to stdout directly.

    Ad-hoc ``print`` debugging in the simulators bypasses the
    observability layer: it cannot be disabled, merged across workers,
    or exported, and it corrupts rendered experiment reports. Emit
    through :mod:`repro.obs` (tracer events / metrics) or return data
    for the report layer instead. Shadowed names (a local ``print``
    binding) are left alone — only the builtin is flagged.
    """
    if not _in_model_scope(ctx):
        return []
    shadowed = {
        name.asname or name.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in node.names
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            shadowed.update(arg.arg for arg in node.args.args)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    shadowed.add(target.id)
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and "print" not in shadowed
        ):
            findings.append(
                Finding(
                    file=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="LINT013",
                    message=(
                        "print() in model code; emit a tracer event or "
                        "metric (repro.obs) or return data for the "
                        "report layer instead"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# LINT017 — layering contract and import cycles
# ----------------------------------------------------------------------
def _arch_module(ctx: FileContext) -> Optional[Tuple[ArchContext, str]]:
    """This file's module name inside the engine-built arch context."""
    arch = ctx.arch
    if arch is None:
        return None
    module = arch.module_for_path(ctx.path)
    if module is None:
        return None
    return arch, module


def _check_layering(tree: ast.Module, ctx: FileContext) -> List[Finding]:
    """Imports must follow the declared layer DAG, and never cycle.

    **Why.** The repository's layering — core (units, errors) below
    model (soc, dram, core, ...) below harness (experiments, analysis)
    below infra and cli — is what keeps the model importable without
    the harness and the simulator runnable without the CLI. That
    contract lives in ``architecture.toml``: an ordered layer list, the
    package each layer owns, and an explicit ``[[allow]]`` list for the
    few deliberate upward edges (e.g. the guarded ``repro.soc`` →
    ``repro.obs`` tracing hooks). Any other upward import, and any
    import cycle, is a finding on the importing module. ``if
    TYPE_CHECKING:`` imports are exempt everywhere (erased at runtime);
    function-local imports are exempt from the *cycle* check only —
    deferring an import breaks the cycle at import time but does not
    change the architecture, so layering still applies.

    **True positive.** ``repro.dram.bank`` importing
    ``repro.experiments.runner`` (model reaching up into the harness);
    two soc modules importing each other at module top level.

    **True negative.** ``repro.experiments`` importing ``repro.soc``
    (downward is always legal); a ``repro.soc`` → ``repro.obs`` import
    covered by a declared ``[[allow]]`` entry; an ``if TYPE_CHECKING:``
    import of a higher layer for annotations only.

    **Suppression.** Add an ``[[allow]]`` entry with a written reason
    to ``architecture.toml`` — reviewed declarations, not per-site
    pragmas; the contract file is the single place the architecture
    can be loosened. Without an ``architecture.toml`` above the linted
    tree the rule is silent.
    """
    resolved = _arch_module(ctx)
    if resolved is None:
        return []
    arch, module = resolved
    if arch.contract is None:
        return []
    return sorted(
        Finding(ctx.path, line, 0, "LINT017", message)
        for line, message in arch.contract_findings().get(module, ())
    )


# ----------------------------------------------------------------------
# LINT018 — dead code unreachable from any root
# ----------------------------------------------------------------------
def _check_dead_code(tree: ast.Module, ctx: FileContext) -> List[Finding]:
    """Module-level symbols must be reachable from a declared root.

    **Why.** A reproduction accretes experiment helpers; the ones no
    figure, test, or CLI path references anymore are not harmless —
    they rot silently (nothing executes them), mislead readers about
    what the pipeline uses, and keep stale physics alive for the next
    copy-paste. This rule builds a whole-tree symbol reference graph
    and reports module-level functions, classes, and constants not
    reachable from any root: module top-level code, ``__all__``
    exports, ``__init__.py`` re-exports, decorated registrations, the
    entry points named in ``architecture.toml`` ``[deadcode]``, and
    every reference found in the external root trees (``tests/``,
    ``benchmarks/``, ``examples/``). A package that binds its
    re-exports on first access (PEP 562) declares them in a
    ``_LAZY_EXPORTS`` dict literal, module name to a tuple of names;
    each entry roots the top-level definition it names in that module,
    and an entry that names none (a missing module or name, or a name
    the module only imports) is a finding, since the import would fail
    only when a caller first used the name.

    **True positive.** A ``_sweep_latency_grid()`` helper left behind
    after the figure it fed was rewritten; a dataclass only ever
    referenced by that helper (dead code keeping more dead code
    alive); a ``_LAZY_EXPORTS`` entry naming a module or a function
    that was renamed.

    **True negative.** A function exported via ``__all__`` or
    re-exported by its package ``__init__``; a checker referenced only
    by a registry table the CLI walks; a helper only tests call.

    **Suppression.** Export the symbol deliberately (``__all__``) or
    add its entry point to ``[deadcode] entry_points`` in
    ``architecture.toml`` when it is reached from outside the tree
    (console scripts, plugins); deleting it is usually the right fix.
    A ``# lint: disable=LINT018`` pragma is only for symbols kept
    intentionally as documented API examples. Without an
    ``architecture.toml`` the rule is silent.
    """
    resolved = _arch_module(ctx)
    if resolved is None:
        return []
    arch, module = resolved
    if arch.deadcode is None:
        return []
    findings = [
        Finding(ctx.path, line, 0, "LINT018", message)
        for line, message in arch.deadcode.export_findings.get(module, ())
    ]
    for info in arch.deadcode.unreachable_in(module):
        findings.append(
            Finding(
                file=ctx.path,
                line=info.line,
                col=0,
                rule="LINT018",
                message=(
                    f"{info.kind} {info.name!r} is unreachable from "
                    "every root (CLI entry points, __all__ exports, "
                    "tests/benchmarks/examples); "
                    "delete it, or export it deliberately if it is "
                    "public API"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# LINT019 — exception discipline at the public boundary
# ----------------------------------------------------------------------
_ESCAPE_WHITELIST: FrozenSet[str] = frozenset(
    {
        "builtin:NotImplementedError",
        "builtin:KeyboardInterrupt",
        "builtin:SystemExit",
        "builtin:StopIteration",
        "builtin:GeneratorExit",
        "builtin:AssertionError",
    }
)


def _label_text(label: str) -> str:
    kind, _, cls = label.partition(":")
    return cls if kind == "builtin" else f"{kind}.{cls}"


def _is_boundary_function(
    module_name: str, qualname: str, is_cli: bool
) -> bool:
    """Whether escapes from this function cross the public boundary.

    The boundary is the ``repro`` package's public surface: modules
    outside it (test fixtures named by stem, scratch files) have no
    public API this rule polices.
    """
    if module_name != "repro" and not module_name.startswith("repro."):
        return False
    if is_cli:
        # Every top-level CLI function is operator-facing, private or
        # not: an uncaught KeyError in a _cmd_* handler is a traceback
        # on a terminal.
        return "." not in qualname
    if any(part.startswith("_") for part in module_name.split(".")):
        return False
    if "." in qualname:
        cls, method = qualname.split(".", 1)
        if cls.startswith("_"):
            return False
        return not method.startswith("_") or method in (
            "__init__",
            "__call__",
        )
    return not qualname.startswith("_")


def _check_exception_flow(
    tree: ast.Module, ctx: FileContext
) -> List[Finding]:
    """Only ``repro.errors`` types may escape the public boundary.

    **Why.** Callers of the public API — the CLI, tests, downstream
    notebooks — handle failures by catching
    :class:`repro.errors.ReproError`; a bare ``KeyError`` escaping
    ``get_runner()`` bypasses every such handler and surfaces as a
    traceback with no remediation hint. This rule propagates each
    function's *unabsorbed* raise set through the whole-program call
    graph (``try``/``except`` guards are tracked per call site, with
    builtin and declared class hierarchies resolved) and reports any
    public function or CLI entry point a non-``repro.errors`` exception
    can escape. A small builtin whitelist stays legal:
    ``NotImplementedError`` (abstract methods), ``AssertionError``
    (invariants), ``StopIteration``/``GeneratorExit`` (iteration
    protocol), ``KeyboardInterrupt``/``SystemExit`` (control flow that
    must not be swallowed). Separately, an ``except:`` handler whose
    body is only ``pass`` in soc/dram/core model code is flagged:
    silently discarding a model-layer failure turns a wrong simulation
    into a quiet one.

    **True positive.** A public lookup helper raising
    ``KeyError(name)`` for an unknown workload; a public ``run()``
    calling two modules down into a helper that raises ``OSError``
    with no ``except`` on the path; ``except Exception: pass`` around
    a bank-state update in ``repro.dram``.

    **True negative.** ``raise ConfigurationError(...)`` (a
    :class:`~repro.errors.ReproError` subclass) from anywhere; a
    ``KeyError`` raised in a private helper and absorbed by its public
    caller's ``except KeyError:``; ``raise NotImplementedError`` in an
    abstract method.

    **Suppression.** Raise a :mod:`repro.errors` type (subclassing the
    builtin too, as :class:`~repro.errors.UnknownKeyError` does with
    ``KeyError``, keeps old ``except KeyError:`` callers working), or
    absorb the builtin at the boundary. A ``# lint: disable=LINT019``
    pragma is only for escapes the call graph over-approximates.
    """
    findings: List[Finding] = []
    if _in_model_scope(ctx):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if len(handler.body) == 1 and isinstance(
                    handler.body[0], ast.Pass
                ):
                    findings.append(
                        Finding(
                            file=ctx.path,
                            line=handler.lineno,
                            col=handler.col_offset,
                            rule="LINT019",
                            message=(
                                "silent except-pass in model code "
                                "discards a failure the simulation "
                                "then mispredicts quietly; handle it, "
                                "re-raise a repro.errors type, or at "
                                "least record it via the obs layer"
                            ),
                        )
                    )
    program = ctx.program
    module = program.module_for_path(ctx.path) if program else None
    if program is None or module is None:
        return sorted(findings)
    escaped = program.escaped_raises()
    is_cli = module.name == "repro.cli" or module.name.startswith(
        "repro.cli."
    )
    for qualname in sorted(module.functions):
        if not _is_boundary_function(module.name, qualname, is_cli):
            continue
        fx = module.functions[qualname]
        labels = escaped.get(f"{module.name}:{qualname}", {})
        for label in sorted(labels):
            if label in _ESCAPE_WHITELIST:
                continue
            if program.is_repro_error_label(label):
                continue
            line, origin = labels[label]
            origin_qual = origin.partition(":")[2]
            raised_where = (
                "raised here"
                if origin == f"{module.name}:{qualname}"
                else f"raised in {origin_qual}()"
            )
            findings.append(
                Finding(
                    file=ctx.path,
                    line=line,
                    col=0,
                    rule="LINT019",
                    message=(
                        f"{_label_text(label)} ({raised_where}) can "
                        f"escape {qualname}(), which is on the public "
                        "boundary; callers handle ReproError — raise "
                        "a repro.errors type or absorb the builtin "
                        f"before {qualname}() returns"
                    ),
                )
            )
    return sorted(findings)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_RULES: Tuple[Rule, ...] = (
    Rule(
        "LINT001",
        "unordered set/dict iteration in scheduler/engine selection loops",
        _check_unordered_iteration,
    ),
    Rule(
        "LINT004",
        "exact float ==/!= comparison (use tolerance helpers)",
        _check_float_equality,
    ),
    Rule(
        "LINT005",
        "mutable default arguments",
        _check_mutable_defaults,
    ),
    Rule(
        "LINT007",
        "raising bare builtin exceptions instead of repro.errors",
        _check_bare_raises,
    ),
    Rule(
        "LINT011",
        "nondeterministic values: wall clock, module-level or unseeded "
        "RNG, OS entropy",
        _check_nondeterminism,
    ),
    Rule(
        "LINT012",
        "unpicklable perf-job members, direct or via helpers and globals",
        _check_job_picklability,
    ),
    Rule(
        "LINT013",
        "print() in soc/dram/core model code (use the obs layer)",
        _check_model_print,
    ),
    Rule(
        "LINT017",
        "imports violating the declared layer DAG, and import cycles",
        _check_layering,
        module_graph=True,
    ),
    Rule(
        "LINT018",
        "module-level symbols unreachable from any declared root",
        _check_dead_code,
        module_graph=True,
    ),
    Rule(
        "LINT019",
        "non-repro.errors exceptions escaping the public/CLI boundary",
        _check_exception_flow,
        interprocedural=True,
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in _RULES}
ALL_RULE_IDS: Tuple[str, ...] = tuple(rule.rule_id for rule in _RULES)


def rule_table() -> Tuple[Tuple[str, str], ...]:
    """(rule id, summary) pairs, in registry order."""
    return tuple((rule.rule_id, rule.summary) for rule in _RULES)


def explain_rule(rule_id: str) -> str:
    """Human-readable rationale for one rule (``pccs lint --explain``).

    The text is the checker's own docstring — the rationale, a true
    positive, a true negative, and suppression guidance live next to
    the code that enforces them, so they cannot drift apart.
    """
    rule = RULES_BY_ID.get(rule_id.upper())
    if rule is None:
        raise LintError(
            f"unknown rule {rule_id!r}; known rules: "
            f"{', '.join(ALL_RULE_IDS)}"
        )
    doc = inspect.getdoc(rule.checker) or "(no documentation recorded)"
    header = f"{rule.rule_id} — {rule.summary}"
    if rule.module_graph:
        scope = (
            "Scope: module graph (whole-tree import/reachability "
            "analysis plus declarations)."
        )
    elif rule.interprocedural:
        scope = (
            "Scope: interprocedural (findings may depend on other "
            "files)."
        )
    else:
        scope = "Scope: single file."
    return f"{header}\n{'=' * len(header)}\n{scope}\n\n{doc}"


def resolve_rules(rule_ids: Optional[Sequence[str]]) -> Tuple[Rule, ...]:
    """Map ids to rules; ``None`` selects the full registry."""
    if rule_ids is None:
        return _RULES
    resolved: List[Rule] = []
    for rule_id in rule_ids:
        rule = RULES_BY_ID.get(rule_id.upper())
        if rule is None:
            raise LintError(
                f"unknown rule {rule_id!r}; known rules: "
                f"{', '.join(ALL_RULE_IDS)}"
            )
        resolved.append(rule)
    return tuple(resolved)
