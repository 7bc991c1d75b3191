"""The PCCS usage workflow (paper Fig. 7).

Given a *placement* — a mapping of kernels to PUs — and each PU's
slowdown model, predict every PU's co-run relative speed: a PU's external
demand is the sum of the other placed kernels' standalone demands. This
is the interface SoC designers drive during design-space exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Protocol, Tuple

from repro.core.model import PCCSModel
from repro.core.multiphase import phase_inputs_from_profile, predict_multiphase
from repro.errors import PredictionError
from repro.soc.engine import CoRunEngine
from repro.units import left_sum
from repro.workloads.kernel import KernelSpec


class SlowdownModel(Protocol):
    """Anything that predicts relative speed from (demand, external) BW."""

    def relative_speed(
        self, demand_bw: float, external_bw: float
    ) -> float:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class PUPrediction:
    """Predicted co-run behaviour of one PU in a placement."""

    pu_name: str
    kernel_name: str
    demand_bw: float
    external_bw: float
    relative_speed: float


@dataclass(frozen=True)
class PlacementPrediction:
    """Predicted co-run behaviour of a whole placement."""

    predictions: Tuple[PUPrediction, ...]

    def for_pu(self, pu_name: str) -> PUPrediction:
        for p in self.predictions:
            if p.pu_name == pu_name:
                return p
        raise PredictionError(f"no prediction for PU {pu_name!r}")

    def relative_speed(self, pu_name: str) -> float:
        return self.for_pu(pu_name).relative_speed


def predict_placement(
    engine: CoRunEngine,
    models: Mapping[str, SlowdownModel],
    placements: Mapping[str, KernelSpec],
    multiphase: bool = True,
) -> PlacementPrediction:
    """Predict every placed PU's co-run relative speed (Fig. 7 workflow).

    Parameters
    ----------
    engine:
        Used only for *standalone* profiling (the paper's NVprof/perf
        step) — never for co-run measurement; that is the whole point.
    models:
        Slowdown model per PU name. :class:`PCCSModel`,
        :class:`~repro.baselines.gables.GablesModel` and
        :class:`~repro.baselines.proportional.ProportionalShareModel`
        all satisfy the protocol.
    placements:
        Kernel placed on each PU.
    multiphase:
        Predict phase-by-phase (Section 3.2) when a kernel has phases and
        the model is a PCCS model; the average-BW path otherwise.
    """
    if not placements:
        raise PredictionError("placements must not be empty")
    demands: Dict[str, float] = {}
    for pu_name, kernel in placements.items():
        demands[pu_name] = engine.standalone_demand(kernel, pu_name)

    predictions = []
    for pu_name, kernel in placements.items():
        model = models.get(pu_name)
        if model is None:
            raise PredictionError(f"no slowdown model for PU {pu_name!r}")
        external = left_sum(d for n, d in demands.items() if n != pu_name)
        profile = engine.profile(kernel, pu_name)
        if multiphase and kernel.is_multiphase and isinstance(model, PCCSModel):
            phase_demands, weights = phase_inputs_from_profile(profile)
            rs = predict_multiphase(model, phase_demands, weights, external)
        else:
            rs = model.relative_speed(demands[pu_name], external)
        predictions.append(
            PUPrediction(
                pu_name=pu_name,
                kernel_name=kernel.name,
                demand_bw=demands[pu_name],
                external_bw=external,
                relative_speed=rs,
            )
        )
    return PlacementPrediction(predictions=tuple(predictions))


def build_soc_models(
    engine: CoRunEngine,
    options=None,
) -> Dict[str, PCCSModel]:
    """Construct a PCCS model for every PU of an SoC (convenience)."""
    from repro.core.calibration import build_pccs_parameters

    models = {}
    for pu_name in engine.soc.pu_names:
        params = build_pccs_parameters(engine, pu_name, options=options)
        models[pu_name] = PCCSModel(params)
    return models
