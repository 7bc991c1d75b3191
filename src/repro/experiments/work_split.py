"""Work splitting with contention awareness.

Gables' flagship question is "how should I split work across PUs?"
(after MultiAmdahl). Its answer ignores that the two halves *contend*:
the CPU and GPU shares fight over the same DRAM while running
concurrently. This experiment re-answers the question three ways for a
memory-bound data-parallel kernel:

- **ground truth**: simulate the co-run at every split and take the
  measured makespan;
- **PCCS**: each side's completion time is its standalone time stretched
  by the PCCS-predicted slowdown under the *other side's* demand;
- **Gables**: the same, with the Gables slowdown model (no contention
  below peak).

The reproduction target is qualitative: contention makes offloading less
attractive than Gables believes, so the Gables-optimal split overloads
the memory and its *actual* makespan is worse than the PCCS pick's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.series import Series, render_series
from repro.analysis.tables import TextTable, fmt
from repro.errors import UnknownKeyError
from repro.experiments.common import (
    engine_for,
    gables_model_for,
    pccs_model_for,
)
from repro.soc.spec import PUType
from repro.units import left_sum
from repro.workloads.rodinia import rodinia_kernel


@dataclass(frozen=True)
class SplitOutcome:
    """Optimal split and its measured makespan for one selector."""

    selector: str
    best_fraction: float  # share of work on the GPU
    measured_makespan: float


@dataclass(frozen=True)
class WorkSplitResult:
    """Makespan curves and per-selector optima."""

    soc_name: str
    kernel_name: str
    fractions: Tuple[float, ...]
    measured: Tuple[float, ...]
    pccs_predicted: Tuple[float, ...]
    gables_predicted: Tuple[float, ...]
    outcomes: Tuple[SplitOutcome, ...]

    def outcome(self, selector: str) -> SplitOutcome:
        for o in self.outcomes:
            if o.selector == selector:
                return o
        raise UnknownKeyError(selector)

    def curve_error(self, family: str) -> float:
        """Mean |predicted - measured| makespan across the sweep (s)."""
        curve = (
            self.pccs_predicted if family == "pccs" else self.gables_predicted
        )
        return left_sum(
            abs(p - m) for p, m in zip(curve, self.measured)
        ) / len(self.measured)

    def render(self) -> str:
        baseline = min(self.measured)
        series = [
            Series("measured", self.fractions, self.measured),
            Series("pccs", self.fractions, self.pccs_predicted),
            Series("gables", self.fractions, self.gables_predicted),
        ]
        body = render_series(
            series,
            x_label="GPU work fraction",
            y_label="makespan (ms)",
            y_scale=1e3,
            title=(
                f"work-split study — {self.kernel_name} on {self.soc_name} "
                "(makespan in ms)"
            ),
        )
        table = TextTable(
            ["selector", "best GPU fraction", "measured makespan (ms)",
             "vs true optimum (%)"],
        )
        for o in self.outcomes:
            table.add_row(
                [
                    o.selector,
                    fmt(o.best_fraction, 2),
                    fmt(o.measured_makespan * 1e3, 2),
                    fmt((o.measured_makespan / baseline - 1) * 100),
                ]
            )
        return body + "\n\n" + table.render()


def _variants(kernel_name: str, fraction: float):
    """The kernel's two halves, sized by the split fraction."""
    gpu = rodinia_kernel(kernel_name, PUType.GPU)
    cpu = rodinia_kernel(kernel_name, PUType.CPU)
    out = {}
    if fraction > 0:
        out["gpu"] = gpu.scaled(fraction, name=f"{kernel_name}-gpu")
    if fraction < 1:
        out["cpu"] = cpu.scaled(1.0 - fraction, name=f"{kernel_name}-cpu")
    return out


def _predicted_makespan(engine, family_models, placements, demands):
    """Two-stage makespan prediction.

    While both sides run, each progresses at its contended rate; when the
    faster side finishes it stops generating traffic and the survivor
    completes at standalone speed. (The paper's placement workflow stops
    at the first finish — Section 4.2 — so this finish-and-free stage is
    the natural extension for makespan questions.)
    """
    if len(placements) == 1:
        (pu, kernel), = placements.items()
        return engine.standalone_seconds(kernel, pu)
    stretched = {}
    standalone = {}
    for pu, kernel in placements.items():
        external = left_sum(d for name, d in demands.items() if name != pu)
        rs = family_models[pu].relative_speed(demands[pu], external)
        standalone[pu] = engine.standalone_seconds(kernel, pu)
        stretched[pu] = standalone[pu] / rs
    first = min(stretched, key=stretched.get)
    last = max(stretched, key=stretched.get)
    if first == last:  # identical times: no second stage
        return stretched[first]
    t1 = stretched[first]
    progress = t1 / stretched[last]
    return t1 + (1.0 - progress) * standalone[last]


def run_work_split(
    soc_name: str = "xavier-agx",
    kernel_name: str = "srad",
    fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
) -> WorkSplitResult:
    """Sweep the GPU work share; measure and predict the makespan."""
    engine = engine_for(soc_name)
    models: Dict[str, Dict[str, object]] = {
        "pccs": {
            "gpu": pccs_model_for(soc_name, "gpu"),
            "cpu": pccs_model_for(soc_name, "cpu"),
        },
    }
    gables = gables_model_for(soc_name)
    models["gables"] = {"gpu": gables, "cpu": gables}

    measured = []
    predicted: Dict[str, list] = {"pccs": [], "gables": []}
    for fraction in fractions:
        placements = _variants(kernel_name, fraction)
        result = engine.corun(placements, until="all")
        measured.append(
            max(o.elapsed for o in result.outcomes)
        )
        demands = {
            pu: engine.standalone_demand(k, pu)
            for pu, k in placements.items()
        }
        for family, family_models in models.items():
            predicted[family].append(
                _predicted_makespan(
                    engine, family_models, placements, demands
                )
            )

    measured_t = tuple(measured)
    outcomes = [
        SplitOutcome(
            selector="truth",
            best_fraction=fractions[measured_t.index(min(measured_t))],
            measured_makespan=min(measured_t),
        )
    ]
    for family in ("pccs", "gables"):
        curve = predicted[family]
        best_index = curve.index(min(curve))
        outcomes.append(
            SplitOutcome(
                selector=family,
                best_fraction=fractions[best_index],
                measured_makespan=measured_t[best_index],
            )
        )
    return WorkSplitResult(
        soc_name=soc_name,
        kernel_name=kernel_name,
        fractions=tuple(fractions),
        measured=measured_t,
        pccs_predicted=tuple(predicted["pccs"]),
        gables_predicted=tuple(predicted["gables"]),
        outcomes=tuple(outcomes),
    )
