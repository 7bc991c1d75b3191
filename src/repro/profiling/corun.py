"""Real-workload co-location measurements (paper Section 4.2, Table 8).

A *workload* places one real program per PU (e.g. streamcluster on the
CPU, pathfinder on the GPU, ResNet-50 on the DLA) and measures every PU's
achieved relative speed until the first program finishes — exactly the
paper's methodology for Fig. 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.core.workflow import SlowdownModel, predict_placement
from repro.errors import UnknownKeyError
from repro.soc.engine import CoRunEngine
from repro.units import left_sum
from repro.workloads.kernel import KernelSpec


@dataclass(frozen=True)
class PUWorkloadResult:
    """Actual vs predicted relative speed of one PU in one workload."""

    pu_name: str
    kernel_name: str
    demand_bw: float
    actual: float
    predicted: Dict[str, float]

    def error(self, model_name: str) -> float:
        """Absolute prediction error of the named model."""
        return abs(self.predicted[model_name] - self.actual)


@dataclass(frozen=True)
class WorkloadResult:
    """One Table 8 workload: all PUs' actual and predicted speeds."""

    workload_name: str
    per_pu: Tuple[PUWorkloadResult, ...]

    def for_pu(self, pu_name: str) -> PUWorkloadResult:
        for r in self.per_pu:
            if r.pu_name == pu_name:
                return r
        raise UnknownKeyError(pu_name)


def measure_workload(
    engine: CoRunEngine,
    placements: Mapping[str, KernelSpec],
    model_sets: Mapping[str, Mapping[str, SlowdownModel]],
    workload_name: str = "",
) -> WorkloadResult:
    """Measure a co-run workload and compare against model predictions.

    Parameters
    ----------
    engine:
        Engine for the target SoC.
    placements:
        Kernel per PU (the workload definition).
    model_sets:
        ``{"pccs": {pu: model}, "gables": {pu: model}}`` — any number of
        named model families to evaluate side by side.
    """
    result = engine.corun(placements, until="first")
    predictions = {
        family: predict_placement(engine, models, placements)
        for family, models in model_sets.items()
    }
    per_pu = []
    for pu_name in placements:
        outcome = result.outcome(pu_name)
        per_pu.append(
            PUWorkloadResult(
                pu_name=pu_name,
                kernel_name=outcome.kernel_name,
                demand_bw=outcome.avg_demand,
                actual=outcome.relative_speed,
                predicted={
                    family: pred.relative_speed(pu_name)
                    for family, pred in predictions.items()
                },
            )
        )
    return WorkloadResult(
        workload_name=workload_name, per_pu=tuple(per_pu)
    )


def average_errors(
    results: Tuple[WorkloadResult, ...], model_name: str
) -> Dict[str, float]:
    """Mean absolute error per PU across workloads (Fig. 14's summary)."""
    sums: Dict[str, list] = {}
    for workload in results:
        for r in workload.per_pu:
            sums.setdefault(r.pu_name, []).append(r.error(model_name))
    return {pu: left_sum(v) / len(v) for pu, v in sums.items()}
