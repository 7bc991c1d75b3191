"""Command-line interface: ``pccs <command>``.

Commands
--------
- ``platforms`` — list built-in SoC configurations.
- ``profile`` — standalone-profile a workload suite on a PU.
- ``calibrate`` — construct a PU's PCCS parameters and print them.
- ``predict`` — predict co-run relative speed for (demand, external).
- ``experiment`` — run paper experiments (the runner parses the
  arguments: ``pccs experiment --help``).
- ``trace`` — run one experiment under tracing (``--jobs N`` stitches
  worker buffers onto one timeline) and export the trace.
- ``lint`` — run the simulator-invariant checker (``repro.lint``).
- ``graph`` — emit the module import graph (DOT or JSON).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.tables import TextTable, fmt
from repro.units import left_sum

# Model modules are imported by the subcommands that use them, so
# ``pccs --help``, ``lint`` and ``graph`` load no simulator.


def _cmd_platforms(_args) -> int:
    from repro.soc.configs import available_socs, soc_by_name

    for name in available_socs():
        soc = soc_by_name(name)
        pus = ", ".join(
            f"{pu.name} ({pu.peak_gflops:.0f} GFLOP/s)" for pu in soc.pus
        )
        print(f"{name}: peak {soc.peak_bw:.1f} GB/s; PUs: {pus}")
    return 0


def _cmd_profile(args) -> int:
    from repro.soc.configs import soc_by_name
    from repro.soc.engine import CoRunEngine
    from repro.soc.spec import PUType
    from repro.workloads.dnn import dnn_suite
    from repro.workloads.rodinia import rodinia_suite

    engine = CoRunEngine(soc_by_name(args.soc))
    if args.pu == "dla":
        suite = dnn_suite()
    else:
        pu_type = PUType.CPU if args.pu == "cpu" else PUType.GPU
        suite = rodinia_suite(pu_type)
    table = TextTable(
        ["kernel", "standalone time (ms)", "BW demand (GB/s)"],
        title=f"standalone profiles on {args.soc} {args.pu}",
    )
    for name, kernel in suite.items():
        profile = engine.profile(kernel, args.pu)
        table.add_row(
            [name, fmt(profile.total_seconds * 1e3, 2), fmt(profile.avg_demand)]
        )
    print(table.render())
    return 0


def _cmd_calibrate(args) -> int:
    from repro.core.calibration import build_pccs_parameters
    from repro.soc.configs import soc_by_name
    from repro.soc.engine import CoRunEngine

    engine = CoRunEngine(soc_by_name(args.soc))
    params = build_pccs_parameters(engine, args.pu)
    print(params.summary())
    if args.save:
        from repro.core.io import save_parameters

        path = save_parameters(params, args.save)
        print(f"saved parameters to {path}")
    return 0


def _cmd_predict(args) -> int:
    from repro.core.model import PCCSModel

    if args.params:
        from repro.core.io import load_parameters

        params = load_parameters(args.params)
    else:
        from repro.core.calibration import build_pccs_parameters
        from repro.soc.configs import soc_by_name
        from repro.soc.engine import CoRunEngine

        engine = CoRunEngine(soc_by_name(args.soc))
        params = build_pccs_parameters(engine, args.pu)
    model = PCCSModel(params)
    prediction = model.predict(args.demand, args.external)
    print(
        f"{args.soc} {args.pu}: demand {args.demand:.1f} GB/s under "
        f"{args.external:.1f} GB/s external -> region "
        f"{prediction.region.value}, relative speed "
        f"{prediction.relative_speed * 100:.1f}%"
    )
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.runner import main as runner_main

    return runner_main(args.runner_args)


def _cmd_trace(args) -> int:
    """Run one experiment under tracing and export the results."""
    from pathlib import Path

    from repro.experiments.runner import get_runner
    from repro.obs import (
        align_workers,
        build_manifest,
        hit_rates_table,
        merged_buffer,
        metrics_table,
        summary_table,
        to_csv,
        to_jsonl,
        write_chrome_trace,
    )
    from repro.obs import runtime as obs_runtime
    from repro.obs.runtime import ObsSession
    from repro.perf.executor import (
        default_max_workers,
        set_default_max_workers,
    )
    from repro.perf.timing import Stopwatch

    try:
        runner = get_runner(args.experiment)
    except KeyError as exc:
        print(f"pccs trace: {exc.args[0]}", file=sys.stderr)
        return 2
    watch = Stopwatch()
    previous_workers = default_max_workers()
    set_default_max_workers(args.jobs)
    session = ObsSession(trace=True, metrics=True)
    obs_runtime.activate(session)
    try:
        with session.tracer.span(
            f"experiment:{args.experiment}",
            start=session.harness_time(),
            track="runner",
            category="experiment",
            clock="harness",
        ) as span:
            result = runner()
            span.finish(session.harness_time())
    finally:
        obs_runtime.deactivate()
        set_default_max_workers(previous_workers)
    buffer = session.tracer.buffer
    workers = align_workers(session.worker_traces)
    snapshot = session.metrics.snapshot()
    manifest = build_manifest(
        experiment=args.experiment,
        config={"experiment": args.experiment, "jobs": args.jobs},
        wall_seconds=watch.elapsed(),
    )
    write_chrome_trace(
        args.trace_out,
        buffer,
        manifest=manifest,
        metrics=snapshot,
        workers=workers,
    )
    merged = merged_buffer(buffer, workers)
    print(
        f"trace: {len(merged.spans)} span(s), {len(merged.events)} "
        f"event(s)"
        + (f" across {len(workers)} worker(s)" if workers else "")
        + f" -> {args.trace_out}"
    )
    if args.jsonl:
        Path(args.jsonl).write_text(to_jsonl(merged) + "\n")
        print(f"trace: JSONL dump -> {args.jsonl}")
    if args.events_csv:
        Path(args.events_csv).write_text(to_csv(merged) + "\n")
        print(f"trace: CSV dump -> {args.events_csv}")
    if args.report:
        print(result.render())
    if args.summary:
        print(summary_table(merged))
        print(metrics_table(snapshot))
        rates = hit_rates_table(snapshot)
        if rates is not None:
            print(rates)
    return 0


def _cmd_lint(args) -> int:
    from repro.errors import LintError
    from repro.lint import render_json, render_text, rule_table
    from repro.lint.cache import CACHE_DIR_NAME, LintCache
    from repro.lint.engine import lint_paths
    from repro.lint.report import render_sarif
    from repro.lint.rules import explain_rule

    if args.list_rules:
        table = TextTable(["rule", "summary"], title="pccs lint rules")
        for rule_id, summary in rule_table():
            table.add_row([rule_id, summary])
        print(table.render())
        return 0
    if args.explain:
        try:
            print(explain_rule(args.explain))
        except LintError as exc:
            print(f"pccs lint: error: {exc}", file=sys.stderr)
            return 2
        return 0
    paths = args.paths or [_default_lint_root()]
    rule_ids = None
    if args.rules:
        rule_ids = [
            part.strip()
            for chunk in args.rules
            for part in chunk.split(",")
            if part.strip()
        ]
    cache = LintCache(Path(CACHE_DIR_NAME)) if args.cache else None
    profile = {} if args.profile else None
    try:
        findings = lint_paths(
            paths, rule_ids=rule_ids, cache=cache, profile=profile
        )
    except LintError as exc:
        print(f"pccs lint: error: {exc}", file=sys.stderr)
        return 2
    renderer = {
        "json": render_json,
        "sarif": render_sarif,
    }.get(args.format, render_text)
    print(renderer(findings))
    if profile is not None:
        table = TextTable(
            ["rule", "seconds"], title="pccs lint --profile"
        )
        for rule_id, seconds in sorted(
            profile.items(), key=lambda item: (-item[1], item[0])
        ):
            table.add_row([rule_id, f"{seconds:.4f}"])
        total = left_sum(profile.values())
        table.add_row(["total", f"{total:.4f}"])
        print(table.render(), file=sys.stderr)
    if cache is not None:
        print(
            f"cache: {cache.hits} hit(s), {cache.misses} miss(es)",
            file=sys.stderr,
        )
    return 1 if findings else 0


def _cmd_graph(args) -> int:
    import json

    from repro.errors import LintError
    from repro.lint.engine import iter_python_files
    from repro.lint.importgraph import (
        build_import_graph,
        find_contract,
        load_contract,
        parse_modules,
        to_dot,
        to_json_payload,
    )

    paths = args.paths or [_default_lint_root()]
    try:
        files = list(iter_python_files(paths))
        sources = [
            (str(f), f.read_text(encoding="utf-8")) for f in files
        ]
        contract = None
        if files:
            contract_path = find_contract(files[0].resolve().parent)
            if contract_path is not None:
                contract = load_contract(contract_path)
        graph = build_import_graph(parse_modules(sources))
    except (LintError, OSError) as exc:
        print(f"pccs graph: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        text = (
            json.dumps(
                to_json_payload(graph, contract),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    else:
        text = to_dot(graph, contract, modules=args.modules)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"graph: wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _default_lint_root() -> str:
    """Lint the installed ``repro`` package when no path is given."""
    import repro

    return str(Path(repro.__file__).parent)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pccs",
        description="PCCS contention-aware slowdown modeling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list built-in SoCs").set_defaults(
        func=_cmd_platforms
    )

    p = sub.add_parser(
        "profile",
        help="standalone-profile a workload suite on a PU",
    )
    p.add_argument("--soc", default="xavier-agx")
    p.add_argument("--pu", default="gpu", choices=["cpu", "gpu", "dla"])
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("calibrate", help="construct PCCS parameters")
    p.add_argument("--soc", default="xavier-agx")
    p.add_argument("--pu", default="gpu", choices=["cpu", "gpu", "dla"])
    p.add_argument("--save", help="write the parameters to a JSON file")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("predict", help="predict co-run relative speed")
    p.add_argument("--soc", default="xavier-agx")
    p.add_argument("--pu", default="gpu", choices=["cpu", "gpu", "dla"])
    p.add_argument("--demand", type=float, required=True)
    p.add_argument("--external", type=float, required=True)
    p.add_argument(
        "--params", help="load parameters from a JSON file (skip calibration)"
    )
    p.set_defaults(func=_cmd_predict)

    # Everything after ``experiment`` goes to the runner's own parser
    # (see ``main``), so ``pccs experiment --help`` is the runner's help.
    p = sub.add_parser(
        "experiment",
        help="run paper experiments (see: pccs experiment --help)",
        add_help=False,
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "trace",
        help="run one experiment with tracing and export the trace",
        description=(
            "Runs one registered experiment under a tracing + metrics "
            "session and writes a Chrome trace-event JSON (open in "
            "Perfetto or about:tracing). With --jobs N the worker "
            "processes' buffers are shipped back and stitched onto one "
            "timeline, one process row per worker. Results are "
            "bit-identical to an untraced serial run."
        ),
    )
    p.add_argument("experiment", help="registered experiment name")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the experiment's simulations; worker "
            "spans land on per-worker pid rows in the trace"
        ),
    )
    p.add_argument(
        "--trace-out",
        default="trace.json",
        metavar="FILE",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    p.add_argument(
        "--jsonl",
        metavar="FILE",
        help="also dump every record as one JSON object per line",
    )
    p.add_argument(
        "--events-csv",
        metavar="FILE",
        help="also dump every record as flat CSV",
    )
    p.add_argument(
        "--report",
        action="store_true",
        help="print the experiment's rendered report too",
    )
    p.add_argument(
        "--summary",
        action="store_true",
        help=(
            "print per-track span totals, the metrics table, and "
            "cache hit rates"
        ),
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "lint",
        help="run the AST-based simulator-invariant checker",
        description=(
            "Static analysis over repro sources; exits 0 when clean, "
            "1 on findings, 2 on usage errors."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    p.add_argument(
        "--rules",
        action="append",
        metavar="LINT00x[,LINT00y]",
        help=(
            "subset of rule ids to run, comma-separated or repeated "
            "(default: all)"
        ),
    )
    p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help=(
            "findings output format (sarif: SARIF 2.1.0 for GitHub "
            "code scanning)"
        ),
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    p.add_argument(
        "--explain",
        metavar="LINT0NN",
        help=(
            "print one rule's rationale, a true positive/negative "
            "example, and suppression guidance, then exit"
        ),
    )
    p.add_argument(
        "--cache",
        action="store_true",
        help=(
            "memoize per-file results under .lint-cache/ keyed by "
            "content + rule set + analyzer version"
        ),
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print per-rule wall time to stderr after linting",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "graph",
        help="emit the module import graph (DOT or JSON)",
        description=(
            "Builds the import graph LINT017 checks and prints it: "
            "Graphviz DOT by default (package granularity, layers as "
            "clusters, allow-listed edges highlighted), or JSON with "
            "--json. Module-granularity DOT with --modules."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to graph (default: the repro package)",
    )
    p.add_argument(
        "--dot",
        action="store_true",
        help="emit Graphviz DOT (the default)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the graph as JSON instead of DOT",
    )
    p.add_argument(
        "--modules",
        action="store_true",
        help="module-granularity DOT (default: package granularity)",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        help="write to FILE instead of stdout",
    )
    p.set_defaults(func=_cmd_graph)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    # parse_known_args keeps the leftover arguments in order, leading
    # flags included (argparse.REMAINDER drops a leading --flag).
    args, rest = parser.parse_known_args(argv)
    if args.func is _cmd_experiment:
        args.runner_args = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
