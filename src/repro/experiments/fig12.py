"""Fig. 12: DNN inference on the DLA under external pressure.

VGG-19, ResNet-50 (and AlexNet, used later in Table 8) are run on the
Xavier DLA against a CPU-generated pressure sweep; actual relative speed
is compared with the PCCS and Gables predictions. The paper observes the
DLA achieves only 20-30 GB/s standalone, falls entirely in the normal
contention region, keeps slowing until ~70 GB/s of external pressure and
flattens only at the top of the sweep (paper avg error: PCCS 5.3%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.errors import mean_abs_error
from repro.analysis.series import Series, render_series
from repro.analysis.tables import TextTable, fmt
from repro.core.multiphase import phase_inputs_from_profile, predict_multiphase
from repro.errors import UnknownKeyError
from repro.experiments.common import (
    engine_for,
    gables_model_for,
    pccs_model_for,
)
from repro.profiling.pressure import sweep_pressure
from repro.units import left_sum
from repro.workloads.dnn import dnn_model
from repro.workloads.roofline import pressure_levels

DEFAULT_MODELS: Tuple[str, ...] = ("vgg19", "resnet50")


@dataclass(frozen=True)
class DLAValidation:
    """Actual vs predicted curves for one network."""

    model_name: str
    demand_bw: float
    external_bws: Tuple[float, ...]
    actual: Tuple[float, ...]
    pccs: Tuple[float, ...]
    gables: Tuple[float, ...]

    @property
    def pccs_error(self) -> float:
        return mean_abs_error(self.pccs, self.actual)

    @property
    def gables_error(self) -> float:
        return mean_abs_error(self.gables, self.actual)


@dataclass(frozen=True)
class Fig12Result:
    """DLA validation across networks."""

    soc_name: str
    networks: Tuple[DLAValidation, ...]

    @property
    def pccs_avg_error(self) -> float:
        return left_sum(n.pccs_error for n in self.networks) / len(
            self.networks
        )

    @property
    def gables_avg_error(self) -> float:
        return left_sum(n.gables_error for n in self.networks) / len(
            self.networks
        )

    def network(self, name: str) -> DLAValidation:
        for n in self.networks:
            if n.model_name == name:
                return n
        raise UnknownKeyError(name)

    def render(self) -> str:
        table = TextTable(
            ["network", "demand (GB/s)", "PCCS err (%)", "Gables err (%)"],
            title=f"Fig 12 — DNNs on {self.soc_name} DLA",
        )
        for n in self.networks:
            table.add_row(
                [
                    n.model_name,
                    fmt(n.demand_bw),
                    fmt(n.pccs_error * 100),
                    fmt(n.gables_error * 100),
                ]
            )
        table.add_row(
            [
                "AVERAGE",
                "",
                fmt(self.pccs_avg_error * 100),
                fmt(self.gables_avg_error * 100),
            ]
        )
        blocks = [table.render()]
        for n in self.networks:
            blocks.append(
                render_series(
                    [
                        Series("actual", n.external_bws, n.actual),
                        Series("pccs", n.external_bws, n.pccs),
                        Series("gables", n.external_bws, n.gables),
                    ],
                    x_label="external BW (GB/s)",
                    y_label="relative speed",
                    title=f"{n.model_name} (demand {n.demand_bw:.1f} GB/s)",
                )
            )
        return "\n\n".join(blocks)


def run_fig12(
    soc_name: str = "xavier-agx",
    models: Sequence[str] = DEFAULT_MODELS,
    steps: int = 10,
) -> Fig12Result:
    """Validate the DLA slowdown model on DNN inference workloads."""
    engine = engine_for(soc_name)
    pccs = pccs_model_for(soc_name, "dla")
    gables = gables_model_for(soc_name)
    levels = pressure_levels(engine.soc.peak_bw, steps=steps)
    networks = []
    for name in models:
        kernel = dnn_model(name)
        sweep = sweep_pressure(engine, kernel, "dla", external_levels=levels)
        profile = engine.profile(kernel, "dla")
        demands, weights = phase_inputs_from_profile(profile)
        pccs_pred = tuple(
            predict_multiphase(pccs, demands, weights, y) for y in levels
        )
        gables_pred = tuple(
            gables.relative_speed(sweep.demand_bw, y) for y in levels
        )
        networks.append(
            DLAValidation(
                model_name=name,
                demand_bw=sweep.demand_bw,
                external_bws=tuple(levels),
                actual=sweep.relative_speeds,
                pccs=pccs_pred,
                gables=gables_pred,
            )
        )
    return Fig12Result(soc_name=soc_name, networks=tuple(networks))
