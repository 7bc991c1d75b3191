"""Reusable model-validation sweeps.

The pattern behind Figs. 8-12 and every accuracy number in the paper:
measure a kernel's relative-speed curve under an external-pressure sweep
and score one or more slowdown models against it. Packaged here so
downstream users can validate their own models/workloads with one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.errors import mean_abs_error, max_abs_error
from repro.core.multiphase import phase_inputs_from_profile, predict_multiphase
from repro.core.model import PCCSModel
from repro.errors import PredictionError
from repro.profiling.pressure import sweep_pressure
from repro.soc.engine import CoRunEngine
from repro.units import left_sum
from repro.workloads.kernel import KernelSpec
from repro.workloads.roofline import pressure_levels


@dataclass(frozen=True)
class KernelScore:
    """One kernel's validation outcome for one model."""

    kernel_name: str
    demand_bw: float
    mean_error: float
    max_error: float


@dataclass(frozen=True)
class ValidationScore:
    """A model's validation outcome over a kernel suite."""

    model_name: str
    pu_name: str
    kernels: Tuple[KernelScore, ...]

    @property
    def mean_error(self) -> float:
        return left_sum(k.mean_error for k in self.kernels) / len(self.kernels)

    @property
    def worst_kernel(self) -> KernelScore:
        return max(self.kernels, key=lambda k: k.mean_error)


def predict_curve(
    model,
    engine: CoRunEngine,
    kernel: KernelSpec,
    pu_name: str,
    levels: Sequence[float],
) -> Tuple[float, ...]:
    """A model's predicted relative-speed curve for one kernel.

    PCCS models get the phase-by-phase treatment for multi-phase kernels;
    any other :class:`~repro.core.workflow.SlowdownModel` is fed the
    time-averaged demand.
    """
    profile = engine.profile(kernel, pu_name)
    if kernel.is_multiphase and isinstance(model, PCCSModel):
        demands, weights = phase_inputs_from_profile(profile)
        return tuple(
            predict_multiphase(model, demands, weights, y) for y in levels
        )
    demand = profile.avg_demand
    return tuple(model.relative_speed(demand, y) for y in levels)


def validate_models(
    engine: CoRunEngine,
    pu_name: str,
    kernels: Mapping[str, KernelSpec],
    models: Mapping[str, object],
    external_levels: Optional[Sequence[float]] = None,
) -> Dict[str, ValidationScore]:
    """Score every model against measured pressure sweeps.

    Parameters
    ----------
    engine:
        The ground-truth machine.
    pu_name:
        PU the kernels run on.
    kernels:
        ``{name: kernel}`` suite to validate on.
    models:
        ``{name: slowdown model}`` — anything with ``relative_speed``.
    external_levels:
        External-pressure sweep; defaults to the paper's 10%..100% of
        peak bandwidth.

    Returns
    -------
    dict
        ``{model_name: ValidationScore}``.
    """
    if not kernels:
        raise PredictionError("kernel suite must be non-empty")
    if not models:
        raise PredictionError("at least one model required")
    levels = (
        list(external_levels)
        if external_levels is not None
        else pressure_levels(engine.soc.peak_bw)
    )
    sweeps = {
        name: sweep_pressure(engine, kernel, pu_name, external_levels=levels)
        for name, kernel in kernels.items()
    }
    scores: Dict[str, ValidationScore] = {}
    for model_name, model in models.items():
        kernel_scores = []
        for kernel_name, kernel in kernels.items():
            sweep = sweeps[kernel_name]
            predicted = predict_curve(model, engine, kernel, pu_name, levels)
            kernel_scores.append(
                KernelScore(
                    kernel_name=kernel_name,
                    demand_bw=sweep.demand_bw,
                    mean_error=mean_abs_error(
                        predicted, sweep.relative_speeds
                    ),
                    max_error=max_abs_error(
                        predicted, sweep.relative_speeds
                    ),
                )
            )
        scores[model_name] = ValidationScore(
            model_name=model_name,
            pu_name=pu_name,
            kernels=tuple(kernel_scores),
        )
    return scores
