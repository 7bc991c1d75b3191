"""Module/package import graph and the declared layer contract.

The architecture rules (LINT017/018) ask *which module imports which*,
at what strength, and whether those edges respect the layering the
repository declares in ``architecture.toml``. Module naming and
per-module import tables live here too: dead-code reachability and
the single-file rules resolve names through them.

Three edge kinds are distinguished, because they mean different things
architecturally:

- ``top`` — a module-level import: a hard load-time dependency. Only
  these participate in import-cycle detection (a lazy import cannot
  deadlock module initialization).
- ``lazy`` — an import inside a function body: a deliberate deferral
  (the perf/experiments layers import this way on purpose). Lazy edges
  still count for layering — deferring an upward import does not make
  it architectural.
- ``typing`` — an import under ``if TYPE_CHECKING:``: erased at
  runtime, exempt from both layering and cycle checks.

The contract file is a small TOML subset parsed here directly (CI runs
on Python 3.9, which has no ``tomllib``): tables, array-of-tables,
string values, and string arrays are all the format needs.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import LintError

CONTRACT_FILE_NAME = "architecture.toml"


# ----------------------------------------------------------------------
# Module naming and import tables
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


def is_package_path(path: str) -> bool:
    """Whether :func:`module_name_for` names ``path`` after its package.

    True for a package's ``__init__.py`` inside a ``repro`` tree, whose
    relative imports resolve from the package itself.
    """
    candidate = Path(path)
    return candidate.name == "__init__.py" and "repro" in candidate.parts


def collect_imports(
    tree: ast.Module, module_name: str, is_package: bool = False
) -> Dict[str, str]:
    """Local name -> import target, collected module-wide.

    Targets are ``"module"`` for plain module imports and
    ``"module:attr"`` for from-imports. Imports inside function bodies
    are included: the perf/experiments layers import lazily on purpose.
    ``is_package`` marks a package ``__init__`` (see
    :func:`is_package_path`).
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                imports[alias.asname or root] = (
                    alias.name if alias.asname else root
                )
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_base(node, module_name, is_package)
            if base is None:
                continue
            for alias in node.names:
                if alias.name != "*":
                    local = alias.asname or alias.name
                    imports[local] = f"{base}:{alias.name}"
    return imports


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class ImportEdge:
    """One import statement, resolved to a dotted module target."""

    src: str
    dst: str
    kind: str
    line: int


@dataclass
class ImportGraph:
    """Import edges between every linted module (plus externals)."""

    modules: Dict[str, str] = field(default_factory=dict)
    """module name -> source path (linted modules only)."""

    edges: List[ImportEdge] = field(default_factory=list)

    def module_for_path(self, path: str) -> Optional[str]:
        norm = Path(path).as_posix()
        for name, module_path in self.modules.items():
            if Path(module_path).as_posix() == norm:
                return name
        return None

    def edges_from(self, module: str) -> List[ImportEdge]:
        return [edge for edge in self.edges if edge.src == module]

    def internal_edges(self) -> List[ImportEdge]:
        """Edges whose endpoints are both linted modules."""
        return [
            edge
            for edge in self.edges
            if edge.src in self.modules and edge.dst in self.modules
        ]

    def cycles(self) -> List[Tuple[str, ...]]:
        """Non-trivial SCCs over load-time (``top``) internal edges.

        Lazy and typing imports cannot create initialization cycles, so
        they are excluded; each cycle is rotated to start at its
        lexically smallest module and the list is sorted, for stable
        findings.
        """
        adjacency: Dict[str, List[str]] = {m: [] for m in self.modules}
        for edge in self.internal_edges():
            if edge.kind == "top" and edge.src != edge.dst:
                adjacency[edge.src].append(edge.dst)
        out: List[Tuple[str, ...]] = []
        for component in _strongly_connected(adjacency):
            if len(component) < 2:
                continue
            pivot = component.index(min(component))
            out.append(tuple(component[pivot:] + component[:pivot]))
        return sorted(out)


def _strongly_connected(
    adjacency: Dict[str, List[str]]
) -> List[List[str]]:
    """Tarjan's algorithm, iterative (fixture graphs can be deep)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    for root in sorted(adjacency):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = sorted(adjacency.get(node, []))
            for position in range(child_idx, len(children)):
                child = children[position]
                if child not in index:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_from_base(
    node: ast.ImportFrom, module_name: str, is_package: bool
) -> Optional[str]:
    """Absolute dotted base of a from-import (resolving relativity).

    One level of ``from .`` is the package the importing module runs
    in: the module itself for a package ``__init__``, its parent
    otherwise.
    """
    base = node.module or ""
    if not node.level:
        return base or None
    parts = module_name.split(".")
    cut = len(parts) - node.level + (1 if is_package else 0)
    if cut < 0:
        return None
    prefix = ".".join(parts[:cut])
    if base and prefix:
        return f"{prefix}.{base}"
    return base or prefix or None


def build_import_graph(
    sources: Sequence[Tuple[str, str]]
) -> ImportGraph:
    """Parse ``(path, source)`` pairs into an :class:`ImportGraph`.

    ``from pkg import name`` records an edge to ``pkg`` and, when
    ``pkg.name`` is itself a linted module, a second edge to it — the
    dependency is really on the submodule then.
    """
    graph = ImportGraph()
    trees: List[Tuple[str, ast.Module, bool]] = []
    for path, source in sources:
        name = module_name_for(path)
        if name in graph.modules:
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue  # the engine reports LINT000 for this file
        graph.modules[name] = path
        trees.append((name, tree, is_package_path(path)))
    known = set(graph.modules)

    for name, tree, is_package in trees:
        _collect_edges(graph, name, tree, is_package, known)
    graph.edges.sort()
    return graph


def _collect_edges(
    graph: ImportGraph,
    module_name: str,
    tree: ast.Module,
    is_package: bool,
    known: Set[str],
) -> None:
    def visit(node: ast.AST, kind: str) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                graph.edges.append(
                    ImportEdge(module_name, alias.name, kind, node.lineno)
                )
            return
        if isinstance(node, ast.ImportFrom):
            base = _resolve_from_base(node, module_name, is_package)
            if base is None:
                return
            graph.edges.append(
                ImportEdge(module_name, base, kind, node.lineno)
            )
            for alias in node.names:
                submodule = f"{base}.{alias.name}"
                if submodule in known:
                    graph.edges.append(
                        ImportEdge(
                            module_name, submodule, kind, node.lineno
                        )
                    )
            return
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for stmt in node.body:
                visit(stmt, "typing")
            for stmt in node.orelse:
                visit(stmt, kind)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                visit(stmt, "lazy")
            return
        for child in ast.iter_child_nodes(node):
            visit(child, kind)

    for stmt in tree.body:
        visit(stmt, "top")


# ----------------------------------------------------------------------
# The declared layer contract (architecture.toml)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllowedEdge:
    """One declared exception to the layer DAG, with its rationale."""

    src: str
    dst: str
    reason: str


@dataclass(frozen=True)
class LayerContract:
    """Parsed ``architecture.toml``: layers, order, allowed exceptions."""

    layers: Tuple[Tuple[str, Tuple[str, ...]], ...]
    """(layer name, package prefixes) pairs, lowest layer first."""

    allowed: Tuple[AllowedEdge, ...]
    deadcode_roots: Tuple[str, ...]
    entry_points: Tuple[str, ...]

    def packages(self) -> Tuple[str, ...]:
        return tuple(
            pkg for _, pkgs in self.layers for pkg in pkgs
        )

    def package_for(self, module: str) -> Optional[str]:
        """Longest declared package prefix covering ``module``."""
        best: Optional[str] = None
        for pkg in self.packages():
            if module == pkg or module.startswith(pkg + "."):
                if best is None or len(pkg) > len(best):
                    best = pkg
        return best

    def layer_of(self, package: str) -> Optional[str]:
        for layer, pkgs in self.layers:
            if package in pkgs:
                return layer
        return None

    def _layer_index(self, package: str) -> Optional[int]:
        for position, (_, pkgs) in enumerate(self.layers):
            if package in pkgs:
                return position
        return None

    def allows(self, src_pkg: str, dst_pkg: str) -> bool:
        """Whether a ``src_pkg -> dst_pkg`` import respects the DAG.

        Same package and downward (or same-layer) edges are always
        allowed; upward edges only when declared in ``[[allow]]``.
        """
        if src_pkg == dst_pkg:
            return True
        src_idx = self._layer_index(src_pkg)
        dst_idx = self._layer_index(dst_pkg)
        if src_idx is None or dst_idx is None:
            return True  # unmapped packages are out of contract scope
        if src_idx >= dst_idx:
            return True
        return any(
            entry.src == src_pkg and entry.dst == dst_pkg
            for entry in self.allowed
        )

    def without_allowed(self, src: str, dst: str) -> "LayerContract":
        """A copy with one ``[[allow]]`` entry removed (for tests)."""
        return LayerContract(
            layers=self.layers,
            allowed=tuple(
                entry
                for entry in self.allowed
                if not (entry.src == src and entry.dst == dst)
            ),
            deadcode_roots=self.deadcode_roots,
            entry_points=self.entry_points,
        )


def parse_toml_subset(text: str, origin: str = "<string>") -> Dict[str, object]:
    """Parse the TOML subset ``architecture.toml`` uses.

    Supported: ``[table]`` / ``[[array-of-tables]]`` headers, bare
    keys, basic ``"strings"``, and (possibly multi-line) arrays of
    strings. Anything else raises :class:`~repro.errors.LintError` —
    the contract format is deliberately small enough to parse without
    ``tomllib`` (absent on the Python 3.9 CI floor).
    """
    root: Dict[str, object] = {}
    current: Dict[str, object] = root
    lines = text.splitlines()
    position = 0
    while position < len(lines):
        line = _strip_comment(lines[position]).strip()
        position += 1
        if not line:
            continue
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            bucket = root.setdefault(name, [])
            if not isinstance(bucket, list):
                raise LintError(
                    f"{origin}: [[{name}]] collides with a table"
                )
            current = {}
            bucket.append(current)
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            table = root.setdefault(name, {})
            if not isinstance(table, dict):
                raise LintError(
                    f"{origin}: [{name}] collides with an array of tables"
                )
            current = table
            continue
        if "=" not in line:
            raise LintError(f"{origin}: cannot parse line: {line!r}")
        key, _, raw_value = line.partition("=")
        value = raw_value.strip()
        while value.startswith("[") and not _array_closed(value):
            if position >= len(lines):
                raise LintError(f"{origin}: unterminated array for {key!r}")
            value += " " + _strip_comment(lines[position]).strip()
            position += 1
        current[key.strip()] = _parse_value(value, origin)
    return root


def _strip_comment(line: str) -> str:
    out: List[str] = []
    in_string = False
    for char in line:
        if char == '"':
            in_string = not in_string
        if char == "#" and not in_string:
            break
        out.append(char)
    return "".join(out)


def _array_closed(value: str) -> bool:
    return value.count("[") <= value.count("]")


def _parse_value(value: str, origin: str) -> object:
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        return value[1:-1]
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        items: List[str] = []
        for part in inner.split(","):
            part = part.strip()
            if not part:
                continue  # trailing comma
            if not (part.startswith('"') and part.endswith('"')):
                raise LintError(
                    f"{origin}: only string arrays are supported: {part!r}"
                )
            items.append(part[1:-1])
        return items
    raise LintError(
        f"{origin}: only strings and string arrays are supported: "
        f"{value!r}"
    )


def _string_list(value: object, origin: str, key: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise LintError(f"{origin}: {key} must be an array of strings")
    return tuple(value)


def load_contract(path: Path) -> LayerContract:
    """Load and validate ``architecture.toml``."""
    origin = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {origin}: {exc}") from exc
    data = parse_toml_subset(text, origin)

    layer_table = data.get("layers", {})
    if not isinstance(layer_table, dict):
        raise LintError(f"{origin}: [layers] must be a table")
    order_table = data.get("order", {})
    sequence: Tuple[str, ...] = ()
    if isinstance(order_table, dict) and "sequence" in order_table:
        sequence = _string_list(
            order_table["sequence"], origin, "order.sequence"
        )
    elif layer_table:
        raise LintError(f"{origin}: [order] sequence is required")

    seen_packages: Set[str] = set()
    layers: List[Tuple[str, Tuple[str, ...]]] = []
    for layer in sequence:
        if layer not in layer_table:
            raise LintError(
                f"{origin}: order.sequence names undeclared layer "
                f"{layer!r}"
            )
        packages = _string_list(
            layer_table[layer], origin, f"layers.{layer}"
        )
        for pkg in packages:
            if pkg in seen_packages:
                raise LintError(
                    f"{origin}: package {pkg!r} appears in two layers"
                )
            seen_packages.add(pkg)
        layers.append((layer, packages))
    for layer in layer_table:
        if layer not in sequence:
            raise LintError(
                f"{origin}: layer {layer!r} missing from order.sequence"
            )

    allowed: List[AllowedEdge] = []
    raw_allowed = data.get("allow", [])
    if not isinstance(raw_allowed, list):
        raise LintError(f"{origin}: allow must use [[allow]] tables")
    for entry in raw_allowed:
        if not isinstance(entry, dict):
            raise LintError(f"{origin}: malformed [[allow]] entry")
        src = entry.get("from")
        dst = entry.get("to")
        reason = entry.get("reason")
        if (
            not isinstance(src, str)
            or not isinstance(dst, str)
            or not isinstance(reason, str)
            or not reason.strip()
        ):
            raise LintError(
                f"{origin}: [[allow]] entries need string 'from', 'to' "
                "and a non-empty 'reason'"
            )
        for pkg in (src, dst):
            if seen_packages and pkg not in seen_packages:
                raise LintError(
                    f"{origin}: [[allow]] references unknown package "
                    f"{pkg!r}"
                )
        allowed.append(AllowedEdge(src, dst, reason))

    deadcode = data.get("deadcode", {})
    roots: Tuple[str, ...] = ()
    entry_points: Tuple[str, ...] = ()
    if isinstance(deadcode, dict):
        if "roots" in deadcode:
            roots = _string_list(deadcode["roots"], origin, "deadcode.roots")
        if "entry_points" in deadcode:
            entry_points = _string_list(
                deadcode["entry_points"], origin, "deadcode.entry_points"
            )
    return LayerContract(
        layers=tuple(layers),
        allowed=tuple(allowed),
        deadcode_roots=roots,
        entry_points=entry_points,
    )


def find_contract(start: Path) -> Optional[Path]:
    """Nearest ``architecture.toml`` at or above ``start``."""
    current = start if start.is_dir() else start.parent
    for directory in [current, *current.parents]:
        candidate = directory / CONTRACT_FILE_NAME
        if candidate.is_file():
            return candidate
    return None


# ----------------------------------------------------------------------
# Layering check
# ----------------------------------------------------------------------
def layering_violations(
    graph: ImportGraph, contract: LayerContract
) -> List[Tuple[str, int, str]]:
    """(module, line, message) triples for contract-violating edges.

    ``typing`` edges are exempt (erased at runtime); ``lazy`` edges are
    not — deferring an upward import does not change the architecture.
    """
    out: List[Tuple[str, int, str]] = []
    seen: Set[Tuple[str, str, int]] = set()
    for edge in graph.edges:
        if edge.kind == "typing":
            continue
        src_pkg = contract.package_for(edge.src)
        dst_pkg = contract.package_for(edge.dst)
        if src_pkg is None or dst_pkg is None or src_pkg == dst_pkg:
            continue
        if contract.allows(src_pkg, dst_pkg):
            continue
        key = (edge.src, dst_pkg, edge.line)
        if key in seen:
            continue
        seen.add(key)
        src_layer = contract.layer_of(src_pkg)
        dst_layer = contract.layer_of(dst_pkg)
        out.append(
            (
                edge.src,
                edge.line,
                (
                    f"{edge.src} (package {src_pkg}, layer "
                    f"{src_layer!r}) imports {edge.dst} (package "
                    f"{dst_pkg}, layer {dst_layer!r}): upward edge not "
                    "declared in architecture.toml [[allow]] — add it "
                    "with a reason, or invert the dependency"
                ),
            )
        )
    return out


def cycle_findings(graph: ImportGraph) -> List[Tuple[str, int, str]]:
    """(module, line, message) triples for import cycles."""
    out: List[Tuple[str, int, str]] = []
    for cycle in graph.cycles():
        members = set(cycle)
        rendered = " -> ".join(cycle + (cycle[0],))
        for module in cycle:
            line = 1
            for edge in graph.edges_from(module):
                if edge.kind == "top" and edge.dst in members:
                    line = edge.line
                    break
            out.append(
                (
                    module,
                    line,
                    (
                        f"import cycle: {rendered}; break it by moving "
                        "shared code into a lower layer or deferring "
                        "one import into the using function"
                    ),
                )
            )
    return out


# ----------------------------------------------------------------------
# Exports (pccs graph)
# ----------------------------------------------------------------------
def package_edges(
    graph: ImportGraph, contract: LayerContract
) -> Dict[Tuple[str, str], Set[str]]:
    """(src package, dst package) -> edge kinds, contract-mapped only."""
    out: Dict[Tuple[str, str], Set[str]] = {}
    for edge in graph.edges:
        src_pkg = contract.package_for(edge.src)
        dst_pkg = contract.package_for(edge.dst)
        if src_pkg is None or dst_pkg is None or src_pkg == dst_pkg:
            continue
        out.setdefault((src_pkg, dst_pkg), set()).add(edge.kind)
    return out


_DOT_KIND_STYLE = {
    "top": "solid",
    "lazy": "dashed",
    "typing": "dotted",
}


def to_dot(
    graph: ImportGraph,
    contract: Optional[LayerContract],
    modules: bool = False,
) -> str:
    """Graphviz DOT: package granularity by default, module with flag."""
    lines = ["digraph imports {", "  rankdir=BT;", "  node [shape=box];"]
    if modules or contract is None:
        for name in sorted(graph.modules):
            lines.append(f'  "{name}";')
        for edge in sorted(set(graph.internal_edges())):
            style = _DOT_KIND_STYLE.get(edge.kind, "solid")
            lines.append(
                f'  "{edge.src}" -> "{edge.dst}" [style={style}];'
            )
    else:
        for layer, pkgs in contract.layers:
            lines.append(f"  subgraph cluster_{layer} {{")
            lines.append(f'    label="{layer}";')
            for pkg in pkgs:
                lines.append(f'    "{pkg}";')
            lines.append("  }")
        allowed_pairs = {
            (entry.src, entry.dst) for entry in contract.allowed
        }
        for (src_pkg, dst_pkg), kinds in sorted(
            package_edges(graph, contract).items()
        ):
            kind = "top" if "top" in kinds else sorted(kinds)[0]
            style = _DOT_KIND_STYLE.get(kind, "solid")
            color = (
                ' color="darkorange"'
                if (src_pkg, dst_pkg) in allowed_pairs
                else ""
            )
            lines.append(
                f'  "{src_pkg}" -> "{dst_pkg}" [style={style}{color}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_payload(
    graph: ImportGraph, contract: Optional[LayerContract]
) -> Dict[str, object]:
    """JSON-ready dict for ``pccs graph --json``."""
    payload: Dict[str, object] = {
        "modules": {
            name: Path(path).as_posix()
            for name, path in sorted(graph.modules.items())
        },
        "edges": [
            {
                "src": edge.src,
                "dst": edge.dst,
                "kind": edge.kind,
                "line": edge.line,
            }
            for edge in sorted(set(graph.edges))
        ],
        "cycles": [list(cycle) for cycle in graph.cycles()],
    }
    if contract is not None:
        payload["layers"] = {
            layer: list(pkgs) for layer, pkgs in contract.layers
        }
        payload["allowed"] = [
            {"from": e.src, "to": e.dst, "reason": e.reason}
            for e in contract.allowed
        ]
    return payload


def graph_fingerprint(sources: Sequence[Tuple[str, str]]) -> str:
    """Content hash over the sources an import graph was built from."""
    digest = hashlib.sha256()
    for path, source in sorted(sources):
        digest.update(Path(path).as_posix().encode("utf-8"))
        digest.update(
            hashlib.sha256(source.encode("utf-8")).hexdigest().encode()
        )
    return digest.hexdigest()


__all__ = [
    "CONTRACT_FILE_NAME",
    "AllowedEdge",
    "ImportEdge",
    "ImportGraph",
    "LayerContract",
    "build_import_graph",
    "collect_imports",
    "cycle_findings",
    "find_contract",
    "graph_fingerprint",
    "is_package_path",
    "layering_violations",
    "load_contract",
    "module_name_for",
    "package_edges",
    "parse_toml_subset",
    "to_dot",
    "to_json_payload",
]
