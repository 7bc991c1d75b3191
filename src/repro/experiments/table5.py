"""Table 5: linear bandwidth scaling of PCCS parameters.

Constructs the PCCS model at the top memory clock (2133 MHz), linearly
scales the five bandwidth parameters down to 1066/1333/1600 MHz, then
*re-constructs* the model empirically on the under-clocked machine and
reports the per-parameter error. The paper finds <3% average error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.tables import TextTable, fmt
from repro.core.calibration import build_pccs_parameters
from repro.core.parameters import PCCSParameters
from repro.core.scaling import bandwidth_ratio, scale_parameters, scaling_errors
from repro.experiments.common import engine_for, pccs_params_for
from repro.soc.engine import CoRunEngine
from repro.soc.frequency import soc_with_memory_frequency
from repro.units import left_sum

DEFAULT_FREQUENCIES: Tuple[float, ...] = (1066.0, 1333.0, 1600.0)


@dataclass(frozen=True)
class ScalingComparison:
    """Scaled vs reconstructed parameters at one memory clock."""

    frequency_mhz: float
    scaled: PCCSParameters
    constructed: PCCSParameters
    errors: Dict[str, float]


@dataclass(frozen=True)
class Table5Result:
    """All clock points plus per-parameter average errors."""

    soc_name: str
    pu_name: str
    base_frequency_mhz: float
    comparisons: Tuple[ScalingComparison, ...]

    def average_errors(self) -> Dict[str, float]:
        keys = set()
        for c in self.comparisons:
            keys.update(c.errors)
        return {
            k: left_sum(c.errors[k] for c in self.comparisons if k in c.errors)
            / sum(1 for c in self.comparisons if k in c.errors)
            for k in sorted(keys)
        }

    @property
    def overall_average_error(self) -> float:
        avg = self.average_errors()
        return left_sum(avg.values()) / len(avg)

    def render(self) -> str:
        table = TextTable(
            ["parameter"]
            + [f"{c.frequency_mhz:.0f} MHz err (%)" for c in self.comparisons]
            + ["avg err (%)"],
            title=(
                f"Table 5 — linear parameter scaling on {self.soc_name} "
                f"{self.pu_name} (base {self.base_frequency_mhz:.0f} MHz)"
            ),
        )
        averages = self.average_errors()
        for key in averages:
            row = [key]
            for c in self.comparisons:
                row.append(fmt(c.errors.get(key, float("nan")) * 100))
            row.append(fmt(averages[key] * 100))
            table.add_row(row)
        footer = (
            f"overall average error {self.overall_average_error * 100:.1f}% "
            "(paper: < 3%)"
        )
        return table.render() + "\n" + footer


def run_table5(
    soc_name: str = "xavier-agx",
    pu_name: str = "cpu",
    frequencies_mhz: Sequence[float] = DEFAULT_FREQUENCIES,
) -> Table5Result:
    """Run the scaling-vs-reconstruction comparison."""
    base_engine = engine_for(soc_name)
    base_soc = base_engine.soc
    base_params = pccs_params_for(soc_name, pu_name)
    base_freq = base_soc.memory.io_frequency_mhz

    comparisons = []
    for freq in frequencies_mhz:
        ratio = bandwidth_ratio(base_freq, freq)
        scaled = scale_parameters(base_params, ratio)
        variant = soc_with_memory_frequency(base_soc, freq)
        engine = CoRunEngine(variant)
        constructed = build_pccs_parameters(engine, pu_name)
        comparisons.append(
            ScalingComparison(
                frequency_mhz=freq,
                scaled=scaled,
                constructed=constructed,
                errors=scaling_errors(scaled, constructed),
            )
        )
    return Table5Result(
        soc_name=soc_name,
        pu_name=pu_name,
        base_frequency_mhz=base_freq,
        comparisons=tuple(comparisons),
    )
