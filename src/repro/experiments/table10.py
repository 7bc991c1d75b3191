"""Table 10: related-work comparison, made quantitative.

The paper's Table 10 positions PCCS against prior memory-interference
models along two axes: accuracy and applicability to design exploration.
This experiment reproduces the comparison with the three approaches
implemented in this repository, measuring on the simulated Xavier GPU:

- **accuracy**: average |predicted - actual| relative speed over the
  Rodinia validation sweep;
- **profiling cost**: co-run measurements required to support N
  applications (Bubble-Up re-profiles per app; PCCS's calibrator
  campaign is per-PU and covers arbitrary apps; Gables needs none).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.errors import mean_abs_error
from repro.analysis.tables import TextTable, fmt
from repro.baselines.bubbleup import BubbleUpModel
from repro.baselines.gables import GablesModel
from repro.baselines.proportional import ProportionalShareModel
from repro.errors import UnknownKeyError
from repro.experiments.common import engine_for, pccs_model_for
from repro.profiling.pressure import sweep_pressure
from repro.soc.spec import PUType
from repro.units import left_sum
from repro.workloads.rodinia import rodinia_kernel
from repro.workloads.roofline import pressure_levels

DEFAULT_BENCHMARKS: Tuple[str, ...] = (
    "hotspot",
    "srad",
    "kmeans",
    "pathfinder",
    "streamcluster",
)


@dataclass(frozen=True)
class ApproachRow:
    """One Table 10 row."""

    name: str
    error: float
    corun_measurements: int
    per_app_profiling: bool
    design_exploration: bool


@dataclass(frozen=True)
class Table10Result:
    """Quantified related-work comparison."""

    soc_name: str
    pu_name: str
    n_apps: int
    rows: Tuple[ApproachRow, ...]

    def row(self, name: str) -> ApproachRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise UnknownKeyError(name)

    def render(self) -> str:
        table = TextTable(
            [
                "approach",
                "avg err (%)",
                "co-run msmts",
                "per-app profiling",
                "design exploration",
            ],
            title=(
                f"Table 10 — approach comparison on {self.soc_name} "
                f"{self.pu_name} ({self.n_apps} applications)"
            ),
        )
        for r in self.rows:
            table.add_row(
                [
                    r.name,
                    fmt(r.error * 100),
                    r.corun_measurements,
                    "yes" if r.per_app_profiling else "no",
                    "yes" if r.design_exploration else "no",
                ]
            )
        return table.render()


def run_table10(
    soc_name: str = "xavier-agx",
    pu_name: str = "gpu",
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    steps: int = 8,
) -> Table10Result:
    """Measure accuracy and profiling cost of every approach."""
    engine = engine_for(soc_name)
    peak = engine.soc.peak_bw
    levels = pressure_levels(peak, steps=steps)
    pu_type = PUType.CPU if pu_name == "cpu" else PUType.GPU
    kernels = [rodinia_kernel(name, pu_type) for name in benchmarks]

    pccs = pccs_model_for(soc_name, pu_name)
    gables = GablesModel(peak)
    proportional = ProportionalShareModel(peak)
    # The bubble campaign samples a coarser grid than the evaluation so
    # Bubble-Up's interpolation error is visible (it would be trivially
    # zero when evaluated exactly at its own profiling points).
    bubbleup = BubbleUpModel(engine, pu_name, steps=max(4, steps - 3))

    errors: Dict[str, list] = {
        "pccs": [],
        "gables": [],
        "proportional": [],
        "bubble-up": [],
    }
    for kernel in kernels:
        sweep = sweep_pressure(engine, kernel, pu_name, external_levels=levels)
        actual = sweep.relative_speeds
        demand = sweep.demand_bw
        errors["pccs"].append(
            mean_abs_error(
                [pccs.relative_speed(demand, y) for y in levels], actual
            )
        )
        errors["gables"].append(
            mean_abs_error(
                [gables.relative_speed(demand, y) for y in levels], actual
            )
        )
        errors["proportional"].append(
            mean_abs_error(
                [proportional.relative_speed(demand, y) for y in levels],
                actual,
            )
        )
        errors["bubble-up"].append(
            mean_abs_error(
                [bubbleup.relative_speed_for(kernel, y) for y in levels],
                actual,
            )
        )

    def avg(name: str) -> float:
        return left_sum(errors[name]) / len(errors[name])

    # PCCS's calibrator campaign: one rela-matrix per PU (rows x cols),
    # independent of application count.
    calibration_cost = 12 * 10
    rows = (
        ApproachRow("pccs", avg("pccs"), calibration_cost, False, True),
        ApproachRow("gables", avg("gables"), 0, False, True),
        ApproachRow(
            "bubble-up",
            avg("bubble-up"),
            bubbleup.corun_measurements,
            True,
            False,
        ),
        ApproachRow(
            "proportional", avg("proportional"), 0, False, True
        ),
    )
    return Table10Result(
        soc_name=soc_name,
        pu_name=pu_name,
        n_apps=len(kernels),
        rows=rows,
    )
