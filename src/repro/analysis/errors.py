"""Prediction-error metrics, matching the paper's reporting.

The paper reports "average prediction error" as the mean absolute
difference between predicted and actual achieved relative speed, in
percentage points of standalone speed.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PredictionError
from repro.units import left_sum


def mean_abs_error(
    predicted: Sequence[float], actual: Sequence[float]
) -> float:
    """Mean absolute error between two equal-length sequences."""
    if len(predicted) != len(actual):
        raise PredictionError(
            f"length mismatch: {len(predicted)} predictions for "
            f"{len(actual)} measurements"
        )
    if not predicted:
        raise PredictionError("cannot average zero errors")
    return left_sum(
        abs(p - a) for p, a in zip(predicted, actual)
    ) / len(predicted)


def mean_abs_error_pct(
    predicted: Sequence[float], actual: Sequence[float]
) -> float:
    """Mean absolute error in percentage points (the paper's unit)."""
    return mean_abs_error(predicted, actual) * 100.0


def max_abs_error(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Worst-case absolute error."""
    if len(predicted) != len(actual) or not predicted:
        raise PredictionError("need equal-length, non-empty sequences")
    return max(abs(p - a) for p, a in zip(predicted, actual))


def relative_error(value: float, reference: float) -> float:
    """|value - reference| / |reference| (absolute if reference is 0)."""
    if reference == 0:
        return abs(value)
    return abs(value - reference) / abs(reference)
