"""Multi-phase slowdown prediction (paper Section 3.2, Fig. 13).

A program with distinct execution phases (the paper's example is CFD,
with one high-BW kernel and three medium-BW kernels) is mispredicted when
its *average* bandwidth demand is fed to the model, because high-BW
phases suffer disproportionately. Predicting each phase separately and
combining by standalone execution-time weights fixes this (error 19.4% →
4.6% in the paper).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.model import PCCSModel
from repro.errors import PredictionError
from repro.units import left_sum


def predict_multiphase(
    model: PCCSModel,
    phase_demands: Sequence[float],
    phase_weights: Sequence[float],
    external_bw: float,
) -> float:
    """Phase-weighted relative speed under external pressure.

    Parameters
    ----------
    model:
        The PU's PCCS model.
    phase_demands:
        Standalone BW demand of each phase (GB/s).
    phase_weights:
        Standalone execution-time fraction of each phase; must sum to 1.
    external_bw:
        Total external BW demand (GB/s).

    Returns
    -------
    float
        Predicted relative speed. Each phase is stretched by its own
        predicted slowdown; the total time ratio gives the combined RS:
        ``RS = 1 / sum(w_p / RS_p)``.
    """
    if len(phase_demands) != len(phase_weights):
        raise PredictionError(
            "phase_demands and phase_weights must have equal length"
        )
    if not phase_demands:
        raise PredictionError("at least one phase required")
    total_weight = left_sum(phase_weights)
    if abs(total_weight - 1.0) > 1e-6:
        raise PredictionError(
            f"phase weights must sum to 1, got {total_weight}"
        )
    if any(w < 0 for w in phase_weights):
        raise PredictionError("phase weights must be non-negative")

    stretched = 0.0
    for demand, weight in zip(phase_demands, phase_weights):
        rs = model.relative_speed(demand, external_bw)
        if rs <= 0:
            raise PredictionError("phase predicted at zero speed")
        stretched += weight / rs
    return 1.0 / stretched


def predict_average_bw(
    model: PCCSModel,
    phase_demands: Sequence[float],
    phase_weights: Sequence[float],
    external_bw: float,
) -> float:
    """The naive alternative: predict from the time-averaged demand.

    This is the paper's Fig. 13(a) strawman; kept as a public function so
    the experiment (and downstream users) can quantify the gap.
    """
    if len(phase_demands) != len(phase_weights):
        raise PredictionError(
            "phase_demands and phase_weights must have equal length"
        )
    avg = left_sum(d * w for d, w in zip(phase_demands, phase_weights))
    return model.relative_speed(avg, external_bw)


def phase_inputs_from_profile(profile) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Extract (demands, weights) from a standalone kernel profile."""
    demands = tuple(p.demand for p in profile.phases)
    weights = profile.phase_weights()
    return demands, weights
