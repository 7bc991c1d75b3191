"""Table 9 + Fig. 15: GPU frequency selection for streamcluster.

The design task of Section 4.3: pick the lowest GPU clock whose co-run
performance (standalone speed x contention slowdown) stays within a 5% or
20% budget of the top-clock co-run performance, at external pressures of
20/40/60 GB/s. Ground truth comes from simulating the co-run at every
candidate clock; PCCS and Gables make their picks from standalone
profiles plus their slowdown predictions. The paper: PCCS lands 1.3-3.6%
off the ground-truth frequency, Gables 3.8-49.1% off (it sees no
contention below the peak bandwidth, so it over-clocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.series import Series, render_series
from repro.analysis.tables import TextTable, fmt
from repro.core.explorer import FrequencyExplorer
from repro.errors import UnknownKeyError
from repro.experiments.common import (
    engine_for,
    gables_model_for,
    pccs_model_for,
)
from repro.soc.spec import PUType
from repro.units import left_sum
from repro.workloads.rodinia import rodinia_kernel

DEFAULT_FREQUENCIES: Tuple[float, ...] = (
    520.0,
    590.0,
    670.0,
    750.0,
    830.0,
    900.0,
    1000.0,
    1100.0,
    1200.0,
    1377.0,
)
DEFAULT_PRESSURES: Tuple[float, ...] = (20.0, 40.0, 60.0)
DEFAULT_BUDGETS: Tuple[float, ...] = (0.05, 0.20)


@dataclass(frozen=True)
class SelectionCell:
    """One (budget, pressure) cell of Table 9."""

    budget: float
    external_bw: float
    truth_mhz: float
    pccs_mhz: float
    gables_mhz: float

    @property
    def pccs_error(self) -> float:
        return abs(self.pccs_mhz - self.truth_mhz) / self.truth_mhz

    @property
    def gables_error(self) -> float:
        return abs(self.gables_mhz - self.truth_mhz) / self.truth_mhz


@dataclass(frozen=True)
class Table9Fig15Result:
    """Frequency selections plus the Fig. 15 curve families."""

    soc_name: str
    pu_name: str
    kernel_name: str
    cells: Tuple[SelectionCell, ...]
    curves: Tuple[Tuple[float, Tuple[Series, ...]], ...]

    def cell(self, budget: float, external_bw: float) -> SelectionCell:
        for c in self.cells:
            if c.budget == budget and c.external_bw == external_bw:
                return c
        raise UnknownKeyError((budget, external_bw))

    def average_error(self, model: str) -> float:
        errors = [
            c.pccs_error if model == "pccs" else c.gables_error
            for c in self.cells
        ]
        return left_sum(errors) / len(errors)

    def render(self) -> str:
        table = TextTable(
            [
                "budget",
                "ext BW",
                "truth (MHz)",
                "PCCS (MHz)",
                "Gables (MHz)",
                "PCCS err (%)",
                "Gables err (%)",
            ],
            title=(
                f"Table 9 — {self.pu_name} frequency selection for "
                f"{self.kernel_name} on {self.soc_name}"
            ),
        )
        for c in self.cells:
            table.add_row(
                [
                    f"{c.budget * 100:.0f}%",
                    fmt(c.external_bw, 0),
                    fmt(c.truth_mhz, 0),
                    fmt(c.pccs_mhz, 0),
                    fmt(c.gables_mhz, 0),
                    fmt(c.pccs_error * 100),
                    fmt(c.gables_error * 100),
                ]
            )
        summary = (
            f"avg |freq error|: PCCS {self.average_error('pccs') * 100:.1f}% "
            f"(paper 2.2-2.4%), Gables "
            f"{self.average_error('gables') * 100:.1f}% (paper 27-30%)"
        )
        blocks = [table.render(), summary]
        for ext, series in self.curves:
            blocks.append(
                render_series(
                    list(series),
                    x_label="frequency (MHz)",
                    y_label="co-run speed vs best",
                    title=f"Fig 15 — co-run performance at ext {ext:.0f} GB/s",
                )
            )
        return "\n\n".join(blocks)


def run_table9_fig15(
    soc_name: str = "xavier-agx",
    pu_name: str = "gpu",
    frequencies_mhz: Sequence[float] = DEFAULT_FREQUENCIES,
    pressures: Sequence[float] = DEFAULT_PRESSURES,
    budgets: Sequence[float] = DEFAULT_BUDGETS,
) -> Table9Fig15Result:
    """Run the frequency-selection case study."""
    engine = engine_for(soc_name)
    pccs = pccs_model_for(soc_name, pu_name)
    gables = gables_model_for(soc_name)
    pu_type = PUType.CPU if pu_name == "cpu" else PUType.GPU
    explorer = FrequencyExplorer(
        engine.soc,
        pu_name,
        kernel_factory=lambda: rodinia_kernel("streamcluster", pu_type),
    )

    cells = []
    curves = []
    for ext in pressures:
        truth_points = explorer.measured_points(frequencies_mhz, ext)
        pccs_points = explorer.predicted_points(frequencies_mhz, ext, pccs)
        gables_points = explorer.predicted_points(frequencies_mhz, ext, gables)
        best = {
            "truth": max(p.corun_speed for p in truth_points),
            "pccs": max(p.corun_speed for p in pccs_points),
            "gables": max(p.corun_speed for p in gables_points),
        }
        curves.append(
            (
                ext,
                (
                    Series(
                        "ground truth",
                        tuple(frequencies_mhz),
                        tuple(
                            p.corun_speed / best["truth"] for p in truth_points
                        ),
                    ),
                    Series(
                        "pccs",
                        tuple(frequencies_mhz),
                        tuple(
                            p.corun_speed / best["pccs"] for p in pccs_points
                        ),
                    ),
                    Series(
                        "gables",
                        tuple(frequencies_mhz),
                        tuple(
                            p.corun_speed / best["gables"]
                            for p in gables_points
                        ),
                    ),
                ),
            )
        )
        for budget in budgets:
            cells.append(
                SelectionCell(
                    budget=budget,
                    external_bw=ext,
                    truth_mhz=explorer.select(truth_points, budget).frequency_mhz,
                    pccs_mhz=explorer.select(pccs_points, budget).frequency_mhz,
                    gables_mhz=explorer.select(
                        gables_points, budget
                    ).frequency_mhz,
                )
            )
    return Table9Fig15Result(
        soc_name=soc_name,
        pu_name=pu_name,
        kernel_name="streamcluster",
        cells=tuple(cells),
        curves=tuple(curves),
    )
