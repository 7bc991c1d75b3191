"""Figure source: the repo's own import graph, layer by layer.

Reproduces the architecture figure from ``DESIGN.md`` §2.14 directly
from the code: builds the module import graph over the installed
``repro`` package, checks it against the declared ``architecture.toml``
layer contract, and emits the Graphviz DOT source for the
package-granularity figure (layers as clusters, allow-listed upward
edges highlighted).

Render the emitted DOT with ``dot -Tsvg > import_graph.svg``, or
regenerate it any time with ``pccs graph src/repro --out graph.dot``.

Run with: ``python examples/import_graph_figure.py``
"""

from pathlib import Path

import repro
from repro.lint.engine import iter_python_files
from repro.lint.importgraph import (
    build_import_graph,
    cycle_findings,
    find_contract,
    layering_violations,
    load_contract,
    parse_modules,
    to_dot,
)


def main() -> None:
    package_root = Path(repro.__file__).parent
    files = list(iter_python_files([str(package_root)]))
    sources = [
        (str(path), path.read_text(encoding="utf-8")) for path in files
    ]
    graph = build_import_graph(parse_modules(sources))

    contract_path = find_contract(package_root)
    if contract_path is None:
        raise SystemExit("no architecture.toml found above src/repro")
    contract = load_contract(contract_path)

    # 1. The raw graph: every intra-repo import, tagged by kind.
    internal = graph.internal_edges()
    kinds = sorted({edge.kind for edge in internal})
    print(
        f"import graph: {len(graph.modules)} modules, "
        f"{len(internal)} internal edges (kinds: {', '.join(kinds)})"
    )

    # 2. The contract: the layer DAG the graph must respect.
    print(f"contract: {contract_path.name}")
    for layer, packages in contract.layers:
        print(f"  layer {layer:<7} -> {', '.join(packages)}")
    for entry in contract.allowed:
        print(f"  allow {entry.src} -> {entry.dst}  ({entry.reason})")

    # 3. Conformance — the same checks LINT017 runs on every lint.
    violations = layering_violations(graph, contract)
    cycles = cycle_findings(graph)
    print(
        f"conformance: {len(violations)} layering violation(s), "
        f"{len(cycles)} cycle finding(s)"
    )

    # 4. The figure source itself, ready for Graphviz.
    print("\n--- import_graph.dot ---")
    print(to_dot(graph, contract), end="")


if __name__ == "__main__":
    main()
