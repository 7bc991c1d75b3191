"""Run every experiment and print (or save) the rendered reports.

Usage::

    python -m repro.experiments.runner --all
    python -m repro.experiments.runner fig8 table7
    python -m repro.experiments.runner --list
    python -m repro.experiments.runner --all --out results/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict

from repro.errors import UnknownKeyError
from repro.experiments.config_tables import run_config_tables
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig5_table3 import run_fig5_table3
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig8_11 import run_fig8, run_fig9, run_fig10, run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig13 import run_fig13
from repro.experiments.fig14 import run_fig14
from repro.experiments.source_obliviousness import run_source_obliviousness
from repro.experiments.table5 import run_table5
from repro.experiments.table7 import run_table7
from repro.experiments.table9_fig15 import run_table9_fig15
from repro.experiments.table10 import run_table10
from repro.experiments.usecase_cores import run_usecase_cores
from repro.experiments.work_split import run_work_split

EXPERIMENTS: Dict[str, Callable[[], object]] = {
    "config_tables": run_config_tables,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig5_table3": run_fig5_table3,
    "fig6": run_fig6,
    "table5": run_table5,
    "table7": run_table7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "table9_fig15": run_table9_fig15,
    "usecase_cores": run_usecase_cores,
    "table10": run_table10,
    "work_split": run_work_split,
    "source_obliviousness": run_source_obliviousness,
}


def get_runner(name: str) -> Callable[[], object]:
    """Look up an experiment runner, with the canonical unknown-name error."""
    runner = EXPERIMENTS.get(name)
    if runner is None:
        raise UnknownKeyError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        )
    return runner


def run_experiment(name: str) -> str:
    """Run one experiment by name and return its rendered report."""
    return get_runner(name)().render()


def collect_series(result) -> Dict[str, list]:
    """Extract named figure series from an experiment result, if any.

    Duck-typed over the result shapes used by the figure experiments:
    ``.series`` (flat list), ``.panels`` / ``.curves`` (named groups of
    series). Returns ``{csv_stem: [Series, ...]}``; empty for table-style
    results. Group keys that sanitise to an already-used stem get a
    numeric suffix so no group is silently dropped.
    """
    out: Dict[str, list] = {}
    series = getattr(result, "series", None)
    if series:
        out["main"] = list(series)
    for attr in ("panels", "curves"):
        groups = getattr(result, attr, None)
        if groups:
            for key, group in groups:
                stem = str(key).replace(" ", "_").replace("/", "-")
                if stem in out:
                    suffix = 2
                    while f"{stem}_{suffix}" in out:
                        suffix += 1
                    stem = f"{stem}_{suffix}"
                out[stem] = list(group)
    return out


def save_result_csvs(name: str, result, out_dir: Path) -> int:
    """Write one CSV per series group; returns the number written."""
    from repro.analysis.series import to_csv

    count = 0
    for stem, series in collect_series(result).items():
        path = out_dir / f"{name}_{stem}.csv"
        path.write_text(to_csv(series) + "\n")
        count += 1
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument("names", nargs="*", help="experiments to run")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--out", help="directory to save reports into")
    parser.add_argument(
        "--csv",
        action="store_true",
        help="also save figure series as CSV files (needs --out)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes: fans experiments (and, for a single "
            "experiment, its internal sweeps) across cores; results are "
            "identical to --jobs 1"
        ),
    )
    parser.add_argument(
        "--sim-cache",
        nargs="?",
        const=".sim-cache",
        default=None,
        metavar="DIR",
        dest="sim_cache",
        help=(
            "memoize simulation results on disk, keyed by content "
            "(job inputs + SoC spec + code fingerprint); a warm re-run "
            "skips the simulations entirely and is bit-identical to a "
            "cold one (default DIR: .sim-cache)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        nargs="?",
        const=".sim-cache",
        default=None,
        metavar="DIR",
        help=(
            "persist each job's result to the sim-cache as it completes, "
            "so an interrupted sweep (Ctrl-C, OOM kill) re-run with the "
            "same flag resumes from the completed jobs instead of "
            "restarting; implies --sim-cache DIR (default DIR: .sim-cache)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "record a Chrome trace-event JSON of the simulations "
            "(open in Perfetto / about:tracing); with --jobs N the "
            "workers' buffers are stitched onto one timeline, one "
            "process row per worker; traced results are bit-identical "
            "to untraced ones"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "collect simulator metrics (counters/histograms) and print "
            "a summary table; merged across --jobs workers"
        ),
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    cache_dir = args.sim_cache
    if args.checkpoint:
        if cache_dir is not None and Path(cache_dir) != Path(args.checkpoint):
            parser.error(
                "--checkpoint and --sim-cache point at different "
                "directories; pick one"
            )
        cache_dir = args.checkpoint
    names = list(EXPERIMENTS) if args.all else args.names
    if not names:
        parser.print_help()
        return 2
    for name in names:
        get_runner(name)  # fail fast before any work is dispatched
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    from repro.obs import runtime as obs_runtime
    from repro.obs.runtime import ObsSession
    from repro.perf import (
        ExperimentJob,
        Stopwatch,
        activate_sim_cache,
        default_max_workers,
        parallel_map,
        recovery_counters,
        set_default_max_workers,
        set_sim_cache,
    )
    from repro.perf.simcache import active_sim_cache

    # Sweeps inside a single experiment pick this default up.
    previous_default = default_max_workers()
    set_default_max_workers(args.jobs)
    previous_cache = active_sim_cache()
    if cache_dir:
        activate_sim_cache(cache_dir)
    recovery_before = recovery_counters()
    # One session for both paths: pool workers ship each chunk's
    # metrics and trace records into it, and jobs run in this process
    # record into it directly.
    session = None
    if args.trace or args.metrics:
        session = ObsSession(trace=bool(args.trace), metrics=args.metrics)
        obs_runtime.activate(session)
    try:
        if args.jobs > 1 and len(names) > 1:
            outcomes = parallel_map(
                [
                    ExperimentJob(
                        name,
                        out_dir=str(out_dir) if out_dir else None,
                        csv=args.csv,
                        sim_cache_dir=cache_dir,
                    )
                    for name in names
                ],
                max_workers=args.jobs,
            )
            cache = active_sim_cache()
            for outcome in outcomes:
                if cache is not None:
                    cache.add_counts(outcome.sim_cache_counts)
                print(f"==== {outcome.name} ({outcome.elapsed:.1f}s) ====")
                print(outcome.report)
                print()
        else:
            for name in names:
                watch = Stopwatch()
                span = None
                if session is not None and session.tracer.enabled:
                    span = session.tracer.span(
                        f"experiment:{name}",
                        start=session.harness_time(),
                        track="runner",
                        category="experiment",
                        clock="harness",
                    )
                result = get_runner(name)()
                if span is not None:
                    span.finish(session.harness_time())
                    span.close()
                report = result.render()
                banner = f"==== {name} ({watch.elapsed():.1f}s) ===="
                print(banner)
                print(report)
                print()
                if out_dir:
                    (out_dir / f"{name}.txt").write_text(report + "\n")
                    if args.csv:
                        save_result_csvs(name, result, out_dir)
        if session is not None:
            _export_session(session, names, args)
        return 0
    finally:
        if session is not None:
            obs_runtime.deactivate()
        set_default_max_workers(previous_default)
        recovery_after = recovery_counters()
        recovered = {
            key: value - recovery_before.get(key, 0)
            for key, value in sorted(recovery_after.items())
            if value - recovery_before.get(key, 0)
        }
        if recovered:
            note = ", ".join(f"{k}={v}" for k, v in recovered.items())
            print(f"recovery: {note}", file=sys.stderr)
        cache = active_sim_cache()
        if cache_dir and cache is not None:
            print(cache.stats_line(), file=sys.stderr)
        set_sim_cache(previous_cache)


def _export_session(session, names, args) -> None:
    """Write the trace file and/or print the metrics summary."""
    from repro.obs import (
        align_workers,
        build_manifest,
        metrics_table,
        write_chrome_trace,
    )

    snapshot = session.metrics.snapshot() if args.metrics else None
    if args.trace:
        manifest = build_manifest(
            experiment="+".join(names),
            config={"names": list(names), "jobs": args.jobs},
            wall_seconds=session.harness_time(),
        )
        write_chrome_trace(
            args.trace,
            session.tracer.buffer,
            manifest=manifest,
            metrics=snapshot,
            workers=align_workers(session.worker_traces),
        )
        print(f"trace: wrote {args.trace}")
    if args.metrics and snapshot is not None:
        print(metrics_table(snapshot))


if __name__ == "__main__":
    sys.exit(main())
