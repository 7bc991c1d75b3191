"""Host-time benchmark of the PCCS reproduction.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload dram_policy --seed 0 --seconds 30 --trace 0

``--trace 0`` runs timed passes until ``--seconds`` have elapsed and
prints the end-to-end metrics, scaled to a reference host speed (see
``hostspeed.py``); ``--trace 1`` runs untraced and traced
passes and prints the per-layer metrics, writing the layer table under
``hostbench/out/``. ``--record`` stores the run's output digests and
counts as the reference in ``hostbench/digests.json`` and its layer
table in ``hostbench/results/``. The last line of standard output is
one JSON object; see ``hostbench/README.md``.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"
OUT = HERE / "out"

#: Set-ups per run (one in this process, the rest in fresh processes).
SETUPS = 5
NAMES = ("dram_policy", "soc_artifacts", "heldout_sweeps")


@dataclass
class Measured:
    """One pass: its outputs and its host cost."""

    result: object
    wall_s: float
    cpu_s: float
    child_cpu_s: float
    #: Host speed around the pass, from the reference run on either side.
    speed: Optional[hostspeed.Speed] = None


def _cpu(before, after) -> float:
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def measure(workload, workers: Optional[int] = None) -> Measured:
    """Run one pass; only ``execute`` is timed."""
    workload.prepare(workers)
    own0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    workload.execute()
    wall = time.perf_counter() - start
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = _cpu(kids0, kids1)
    return Measured(workload.finish(), wall, _cpu(own0, own1) + child, child)


def timed_passes(workload, seconds: float) -> List[Measured]:
    """Untraced passes until ``seconds`` elapse (at least one).

    The host-speed reference runs before the first pass and after every
    pass, untimed, in as many processes as the pass keeps busy; each pass
    gets the mean of the readings on its two sides. Only the workload's
    count hooks are installed: they read no clock and run a few thousand
    times per pass at most.
    """
    import spans

    width = getattr(workload, "workers", 1)
    hooks = workload.count_hooks()
    patches = spans.install([(None, t) for t in hooks], hooks=hooks)
    passes: List[Measured] = []
    speed = hostspeed.measure(hostspeed.MIN_WINDOW_S, width)
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            measured = measure(workload)
            after = hostspeed.measure(
                hostspeed.window(measured.wall_s), width
            )
            measured.speed = speed.between(after)
            passes.append(measured)
            speed = after
    finally:
        patches.restore()
    return passes


def check(passes: List[Measured], reference):
    """Count failed ops and apply the cold-pass guard.

    Every op's digest and every pass's exact counts must equal the
    reference: the recorded one for this seed, else the first pass's.
    Returns (attempted, failed, guard_ok, problems).
    """
    first = passes[0].result
    ref_digests = reference["digests"] if reference else first.digests
    ref_counts = reference["counts"] if reference else first.counts
    attempted = failed = 0
    guard_ok = True
    problems: List[str] = []
    for index, measured in enumerate(passes):
        result = measured.result
        bad = dict(result.failed)
        for op, value in result.digests.items():
            if ref_digests.get(op) != value:
                bad.setdefault(op, "output differs from the reference digest")
        if result.counts != ref_counts:
            guard_ok = False
            why = f"counts {result.counts} differ from {ref_counts}"
            bad.update({op: why for op in result.ops})
        attempted += len(result.ops)
        failed += len(bad)
        problems += [f"pass {index}: {op}: {why}" for op, why in bad.items()]
    return attempted, failed, guard_ok, problems


def reference_for(workload, seed: int, record: bool):
    if record or not DIGESTS.is_file():
        return None
    entry = json.loads(DIGESTS.read_text()).get(workload.name)
    if entry is None:
        return None
    if entry["seed"] is not None and entry["seed"] != seed:
        return None
    return entry


def write_reference(workload, seed: int, result) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload.name] = {
        "seed": seed if workload.seed_dependent else None,
        "counts": result.counts,
        "digests": result.digests,
    }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def setup_samples(args, first: float) -> List[float]:
    """This run's scaled set-up time plus ``SETUPS - 1`` fresh-process ones."""
    samples = [first]
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    for _ in range(SETUPS - 1):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(args, workload, setup_s: float):
    """Medians of host-speed-scaled pass times, and scaled set-up time."""
    passes = timed_passes(workload, args.seconds)
    peak = peak_rss_mb()  # before the set-up probes start children
    setups = setup_samples(args, setup_s)
    wall = [hostspeed.scaled(p.wall_s, p.speed.wall_s) for p in passes]
    cpu = [hostspeed.scaled(p.cpu_s, p.speed.cpu_s) for p in passes]
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MiB"),
    }
    return passes, metrics


def snapshot(tracer, probe, measured: Measured, workers: int) -> dict:
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "incl_s": dict(tracer.incl_s),
        "tagged": dict(tracer.tagged),
        "probe": dict(vars(probe)),
        "counts": measured.result.counts,
        "values": measured.result.values,
        "wall_s": measured.wall_s,
        "child_cpu_s": measured.child_cpu_s,
        "workers": workers,
    }


def traced(args, workload):
    """A traced set-up, then untraced and traced passes in turn.

    Alternating the two keeps host-speed drift out of ``trace_overhead``.
    """
    import layers
    import report
    import spans
    from repro.perf import recovery_counters

    recovery0 = recovery_counters()
    tracer, probe = spans.LayerTracer(), layers.LayerProbe()
    width = getattr(workload, "workers", 1)

    def tracing():
        return layers.install_tracing(tracer, probe, workload.count_hooks())

    patches = tracing()
    try:
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_wall = time.perf_counter() - start
    finally:
        patches.restore()
    setup_snap = {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "wall_s": setup_wall,
    }
    deadline = time.perf_counter() + args.seconds
    untraced, full_snaps, one_snaps, passes = [], [], [], []
    unit_s = 0.0
    # Start another unit only if it should end by the deadline.
    while not full_snaps or time.perf_counter() + unit_s <= deadline:
        unit_start = time.perf_counter()
        untraced += timed_passes(workload, 0.0)
        patches = tracing()
        try:
            tracer.reset()
            probe.reset()
            full = measure(workload)
            full_snap = snapshot(tracer, probe, full, width)
            passes.append(full)
            one_snap = full_snap
            if width > 1:
                tracer.reset()
                probe.reset()
                one = measure(workload, workers=1)
                one_snap = snapshot(tracer, probe, one, 1)
                passes.append(one)
        finally:
            patches.restore()
        full_snaps.append(full_snap)
        one_snaps.append(one_snap)
        unit_s = time.perf_counter() - unit_start
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    for snap in one_snaps:
        snap["untraced_wall_s"] = untraced_wall
    units = [
        report.unit_metrics(setup_snap, full, one)
        for full, one in zip(full_snaps, one_snaps)
    ]
    recovery = recovery_counters()
    problems = [
        f"traced pass {i}: calls differ from the first traced pass"
        for i, unit in enumerate(units)
        if any(unit[k] != units[0][k] for k in unit if k.endswith(".calls"))
    ]
    traced_wall = statistics.median(s["wall_s"] for s in full_snaps)
    values = report.median_metrics(units)
    values["perf.recovery"] = sum(
        recovery.get(key, 0) - recovery0.get(key, 0)
        for key in ("pool.rebuilds", "jobs.retried")
    )
    values["trace_overhead"] = traced_wall / untraced_wall
    phases = [("set-up", [setup_snap])]
    if width > 1:
        phases += [
            (f"pass ({width} workers)", full_snaps),
            ("pass (1 worker)", one_snaps),
        ]
    else:
        phases.append(("pass", full_snaps))
    table = report.layer_table(
        workload.name, args.seed, phases, values,
        untraced=[p.wall_s for p in untraced],
        properties=untraced[0].result.values,
    )
    metrics = {
        name: (values[name], unit)
        for name, unit in report.per_layer_units().items()
        if name != "error_rate"
    }
    return untraced + passes, metrics, table, problems


def write_table(table: dict, directory: Path) -> None:
    import report

    directory.mkdir(parents=True, exist_ok=True)
    stem = directory / f"layers-{table['workload']}"
    if directory == OUT:
        stem = directory / f"layers-{table['workload']}-seed{table['seed']}"
    stem.with_suffix(".json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n"
    )
    stem.with_suffix(".md").write_text(report.markdown(table))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"hostbench: {SRC / 'repro'} not found; run from the root of "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        workload = workloads.make(args.workload, work_dir)
        workload.setup(args.seed)
        setup_wall = time.perf_counter() - _STARTED
        setup_speed = hostspeed.measure(hostspeed.window(setup_wall)).wall_s
        setup_s = hostspeed.scaled(setup_wall, setup_speed)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        table, trace_problems = None, []
        if args.trace:
            passes, metrics, table, trace_problems = traced(args, workload)
        else:
            passes, metrics = end_to_end(args, workload, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    reference = reference_for(workload, args.seed, args.record)
    attempted, failed, guard_ok, problems = check(passes, reference)
    correct = failed == 0 and guard_ok and not trace_problems
    for line in (problems + trace_problems)[:20]:
        print(f"hostbench: {line}", file=sys.stderr)
    if table is not None:
        metrics["error_rate"] = (failed / attempted, "ratio")
        table["metrics"]["error_rate"] = failed / attempted
        write_table(table, RESULTS if args.record else OUT)
    if args.record and correct:
        write_reference(workload, args.seed, passes[0].result)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
