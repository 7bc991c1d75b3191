"""Simple SoC power model (the paper's Section 5 power-budget extension).

The paper's discussion notes PCCS "could potentially work with power
budgeting by predicting the co-run performance under each given power
budget". This module provides the missing piece: a first-order power
model — dynamic power scaling with ``cores * f^3`` (voltage tracks
frequency) plus per-core leakage and a bandwidth-proportional memory
term — and a budget explorer that picks the fastest PU clock whose SoC
power stays under a cap, using a slowdown model for the performance side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.workflow import SlowdownModel
from repro.errors import ConfigurationError, PredictionError
from repro.soc.frequency import soc_with_pu_frequency
from repro.soc.spec import PUSpec, PUType, SoCSpec
from repro.units import left_sum

# Reference dynamic power per PU type, in watts, at the reference clock
# of the built-in Xavier configuration. First-order figures in line with
# published Jetson AGX Xavier power profiles (~10-30 W module power).
_REFERENCE_DYNAMIC_W: Dict[PUType, float] = {
    PUType.CPU: 12.0,
    PUType.GPU: 18.0,
    PUType.DLA: 5.0,
}
_LEAKAGE_PER_CORE_W: Dict[PUType, float] = {
    PUType.CPU: 0.15,
    PUType.GPU: 0.004,
    PUType.DLA: 0.0005,
}
_MEMORY_W_PER_GBPS = 0.05


@dataclass(frozen=True)
class PowerModel:
    """First-order power model of one SoC design.

    Dynamic power of a PU scales as ``(f / f_ref)^3`` (DVFS: voltage
    roughly proportional to frequency) and linearly with core count
    relative to the reference configuration.
    """

    reference: SoCSpec
    dynamic_w: Optional[Dict[str, float]] = None
    leakage_per_core_w: Optional[Dict[str, float]] = None
    memory_w_per_gbps: float = _MEMORY_W_PER_GBPS

    def _dynamic_reference(self, pu: PUSpec) -> float:
        if self.dynamic_w and pu.name in self.dynamic_w:
            return self.dynamic_w[pu.name]
        return _REFERENCE_DYNAMIC_W[pu.pu_type]

    def _leakage(self, pu: PUSpec) -> float:
        if self.leakage_per_core_w and pu.name in self.leakage_per_core_w:
            return self.leakage_per_core_w[pu.name] * pu.cores
        return _LEAKAGE_PER_CORE_W[pu.pu_type] * pu.cores

    def pu_power_w(self, pu: PUSpec) -> float:
        """Power draw of one PU at its configured clock and core count."""
        reference_pu = self.reference.pu(pu.name)
        f_ratio = pu.frequency_mhz / reference_pu.frequency_mhz
        core_ratio = pu.cores / reference_pu.cores
        dynamic = self._dynamic_reference(reference_pu)
        return dynamic * core_ratio * f_ratio**3 + self._leakage(pu)

    def soc_power_w(self, soc: SoCSpec) -> float:
        """Total SoC power: PUs plus the memory subsystem."""
        total = left_sum(self.pu_power_w(pu) for pu in soc.pus)
        return total + soc.peak_bw * self.memory_w_per_gbps


@dataclass(frozen=True)
class PowerPoint:
    """One candidate clock with its power and predicted performance."""

    frequency_mhz: float
    power_w: float
    corun_speed: float


@dataclass(frozen=True)
class PowerSelection:
    """Outcome of a power-budget exploration."""

    pu_name: str
    budget_w: float
    selected_mhz: float
    points: Tuple[PowerPoint, ...]

    @property
    def power_saving(self) -> float:
        """Fraction of the max-clock power saved by the selection."""
        top = max(self.points, key=lambda p: p.frequency_mhz)
        chosen = next(
            p for p in self.points if p.frequency_mhz == self.selected_mhz
        )
        if top.power_w <= 0:
            raise PredictionError("non-positive reference power")
        return 1.0 - chosen.power_w / top.power_w


def explore_power_budget(
    explorer,
    power_model: PowerModel,
    frequencies_mhz: Sequence[float],
    external_bw: float,
    budget_w: float,
    model: SlowdownModel,
) -> PowerSelection:
    """Fastest co-run configuration under a total SoC power cap.

    Parameters
    ----------
    explorer:
        A :class:`repro.core.explorer.FrequencyExplorer` for the target
        PU/kernel (supplies standalone profiles per clock).
    power_model:
        The SoC power model.
    frequencies_mhz:
        Candidate clocks.
    external_bw:
        External bandwidth pressure assumed during operation.
    budget_w:
        Total SoC power cap in watts.
    model:
        Slowdown model used for the performance prediction.
    """
    if budget_w <= 0:
        raise ConfigurationError(f"budget_w must be positive, got {budget_w}")
    design_points = explorer.predicted_points(
        frequencies_mhz, external_bw, model
    )
    points = []
    for dp in design_points:
        variant = soc_with_pu_frequency(
            explorer.soc, explorer.pu_name, dp.value
        )
        points.append(
            PowerPoint(
                frequency_mhz=dp.value,
                power_w=power_model.soc_power_w(variant),
                corun_speed=dp.corun_speed,
            )
        )
    eligible = [p for p in points if p.power_w <= budget_w]
    if not eligible:
        raise PredictionError(
            f"no candidate clock fits the {budget_w:.1f} W budget"
        )
    best = max(eligible, key=lambda p: p.corun_speed)
    return PowerSelection(
        pu_name=explorer.pu_name,
        budget_w=budget_w,
        selected_mhz=best.frequency_mhz,
        points=tuple(points),
    )
