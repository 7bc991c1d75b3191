"""Per-layer metrics and the layer table, from the traced run's snapshots."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from layers import TIMED_LAYERS, artifact_names

#: Layers that run inside pool jobs on ``heldout_sweeps``. Spans recorded
#: in forked workers are lost, so these come from the pass run at one
#: worker; every other layer comes from the pass at full pool width.
JOB_BODY_LAYERS = (
    "soc.engine", "soc.memsys", "soc.pu", "profiling.sweep",
    "workloads.calibrator",
)


def policies() -> Tuple[str, ...]:
    from repro.experiments.fig5_table3 import POLICIES

    return POLICIES


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "dram.requests": "count",
        "dram.row_hit_ratio": "ratio",
        "dram.ns_per_request": "ns",
        "dram.sched.queue_len_mean": "count",
    })
    for policy in policies():
        units[f"dram.policy.{policy}.s"] = "s"
    units.update({
        "soc.epochs": "count",
        "soc.resolve_hit_ratio": "ratio",
        "soc.us_per_epoch": "us",
        "pccs_mae": "ratio",
        "baselines.gables.mae": "ratio",
    })
    for name in artifact_names():
        units[f"experiments.{name}.s"] = "s"
    units.update({
        "perf.map.calls": "count",
        "perf.map.s": "s",
        "perf.pool.busy_ratio": "ratio",
        "perf.ipc_bytes": "B",
        "perf.simcache.store_bytes": "B",
        "perf.recovery": "count",
        "trace_overhead": "ratio",
        "error_rate": "ratio",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_metrics(setup: dict, full: dict, one: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced set-up plus one traced pass.

    ``full`` is the pass at the workload's pool width and ``one`` the
    pass at one worker; they are the same snapshot on the serial
    workloads. Job-body layers and the simulated counts come from
    ``one``, the rest from ``full``.
    """
    out: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        snap = one if layer in JOB_BODY_LAYERS else full
        out[f"{layer}.calls"] = setup["calls"][layer] + snap["calls"][layer]
        out[f"{layer}.self_s"] = (
            setup["self_s"][layer] + snap["self_s"][layer]
        )
    counts, probe, values = one["counts"], full["probe"], full["values"]
    requests = counts.get("dram.requests", 0)
    out["dram.requests"] = requests
    out["dram.row_hit_ratio"] = _ratio(probe["row_hits"], probe["dispatches"])
    out["dram.ns_per_request"] = _ratio(one["untraced_wall_s"] * 1e9, requests)
    out["dram.sched.queue_len_mean"] = _ratio(
        probe["queue_len_sum"], probe["selects"]
    )
    for policy in policies():
        out[f"dram.policy.{policy}.s"] = full["tagged"].get(
            f"dram.policy.{policy}", 0.0
        )
    epochs = counts.get("soc.epochs", 0)
    out["soc.epochs"] = epochs
    out["soc.resolve_hit_ratio"] = (
        1.0 - _ratio(counts.get("soc.resolve_misses", 0), epochs)
        if epochs else 0.0
    )
    out["soc.us_per_epoch"] = _ratio(one["incl_s"]["soc.engine"] * 1e6, epochs)
    out["pccs_mae"] = values.get("pccs_mae", 0.0)
    out["baselines.gables.mae"] = values.get("gables_mae", 0.0)
    for name in artifact_names():
        out[f"experiments.{name}.s"] = full["incl_s"].get(
            f"experiments.{name}", 0.0
        )
    map_s = full["incl_s"]["perf.map"]
    out["perf.map.calls"] = full["calls"]["perf.map"]
    out["perf.map.s"] = map_s
    workers = full["workers"]
    out["perf.pool.busy_ratio"] = (
        _ratio(full["child_cpu_s"], workers * map_s) if workers > 1 else 0.0
    )
    out["perf.ipc_bytes"] = full["probe"]["ipc_bytes"]
    out["perf.simcache.store_bytes"] = full["values"].get("store_bytes", 0)
    return out


def _median(values: Sequence[float]) -> float:
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def median_metrics(units: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {name: _median([unit[name] for unit in units]) for name in units[0]}


def layer_rows(snaps: Sequence[dict]) -> List[dict]:
    """Median calls, self time and share per layer of one phase."""
    wall = statistics.median(s["wall_s"] for s in snaps)
    rows = []
    for layer in sorted(snaps[0]["calls"]):
        if not snaps[0]["calls"][layer]:
            continue
        self_s = statistics.median(s["self_s"][layer] for s in snaps)
        rows.append({
            "layer": layer,
            "calls": snaps[0]["calls"][layer],
            "self_s": self_s,
            "share": _ratio(self_s, wall),
        })
    rows.sort(key=lambda r: -r["self_s"])
    rest = statistics.median(
        s["wall_s"] - sum(s["self_s"].values()) for s in snaps
    )
    rows.append({
        "layer": "(not in a traced layer)",
        "calls": 0,
        "self_s": rest,
        "share": _ratio(rest, wall),
    })
    return rows


def layer_table(
    workload: str,
    seed: int,
    phases: Sequence[Tuple[str, Sequence[dict]]],
    metrics: Dict[str, float],
    untraced: Sequence[float],
    properties: Dict[str, object],
) -> dict:
    """The traced run's layer table: one row set per traced phase."""
    traced = [snap["wall_s"] for snap in phases[1][1]]
    return {
        "workload": workload,
        "seed": seed,
        "trace_overhead": metrics["trace_overhead"],
        "traced_wall_s": statistics.median(traced),
        "untraced_wall_s": statistics.median(untraced),
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "phases": [
            {
                "name": name,
                "wall_s": statistics.median(s["wall_s"] for s in snaps),
                "rows": layer_rows(snaps),
            }
            for name, snaps in phases
            if any(snaps[0]["calls"].values())
        ],
        "metrics": {
            name: value for name, value in metrics.items()
            if not name.endswith((".calls", ".self_s"))
        },
        "properties": {
            key: value for key, value in properties.items()
            if key in ("multiphase_share", "region_shares")
        },
    }


def markdown(table: dict) -> str:
    """The layer table of one workload as Markdown."""
    lines = [
        f"# Layer table: `{table['workload']}`, seed {table['seed']}",
        "",
        f"trace_overhead {table['trace_overhead']:.3f} "
        f"(traced pass {table['traced_wall_s']:.3f} s over untraced "
        f"{table['untraced_wall_s']:.3f} s, medians of "
        f"{table['traced_passes']} traced and {table['untraced_passes']} "
        "untraced passes).",
        "Self times are host seconds from the traced run; calls are exact.",
    ]
    for phase in table["phases"]:
        lines += [
            "",
            f"## {phase['name']} ({phase['wall_s']:.3f} s traced)",
            "",
            "| layer | calls | self_s | share |",
            "|---|---:|---:|---:|",
        ]
        for row in phase["rows"]:
            lines.append(
                f"| {row['layer']} | {row['calls']} | {row['self_s']:.4f} "
                f"| {row['share'] * 100:.1f}% |"
            )
    units = per_layer_units()
    lines += ["", "## Other per-layer metrics", ""]
    lines += [
        f"- `{name}`: {value:.6g} {units[name]}"
        for name, value in table["metrics"].items()
    ]
    if table["properties"]:
        lines += ["", "## Workload properties", ""]
        lines += [
            f"- {key}: {value}"
            for key, value in sorted(table["properties"].items())
        ]
    return "\n".join(lines) + "\n"
