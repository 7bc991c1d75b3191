"""Bandwidth-phase detection from monitored demand series.

The paper handles multi-phase programs by predicting each phase
separately and combining by time weights (Section 3.2, Fig. 13), noting
that *detecting* the phases "is a well-studied topic and is orthogonal to
this work". This module supplies a working detector so the multi-phase
pipeline runs end-to-end from a monitored bandwidth series (the kind a
hardware bandwidth counter produces), with no prior knowledge of the
program structure:

1. :func:`sample_demand_series` — produce the monitored series from a
   standalone profile (the stand-in for a perf-counter trace);
2. :func:`detect_phases` — online mean-shift segmentation of the series;
3. :func:`phases_to_inputs` — (demands, weights) for
   :func:`repro.core.multiphase.predict_multiphase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import PredictionError
from repro.units import left_sum

_EPS = 1e-9


@dataclass(frozen=True)
class DetectedPhase:
    """One detected execution phase of a monitored program."""

    start_index: int
    end_index: int  # exclusive
    mean_demand: float

    @property
    def length(self) -> int:
        return self.end_index - self.start_index


def detect_phases(
    samples: Sequence[float],
    threshold: float = 0.15,
    persistence: int = 2,
) -> List[DetectedPhase]:
    """Segment a bandwidth series into constant-demand phases.

    A new phase opens when ``persistence`` consecutive samples deviate
    from the current phase's running mean by more than ``threshold``
    (relative). Adjacent phases whose means differ by less than half the
    threshold are merged.

    Parameters
    ----------
    samples:
        Monitored bandwidth demands (GB/s), equally spaced in time.
    threshold:
        Relative mean-shift that starts a new phase.
    persistence:
        Consecutive deviating samples required (rejects single-sample
        noise).
    """
    if not samples:
        raise PredictionError("cannot detect phases in an empty series")
    if threshold <= 0:
        raise PredictionError("threshold must be positive")
    if persistence < 1:
        raise PredictionError("persistence must be >= 1")

    phases: List[DetectedPhase] = []
    start = 0
    total = float(samples[0])
    count = 1
    deviants = 0
    for i in range(1, len(samples)):
        mean = total / count
        if abs(samples[i] - mean) > threshold * max(mean, _EPS):
            deviants += 1
        else:
            deviants = 0
            total += samples[i]
            count += 1
            continue
        if deviants >= persistence:
            # Close the current phase before the deviation run began.
            cut = i - deviants + 1
            if cut > start:
                phases.append(
                    DetectedPhase(
                        start_index=start,
                        end_index=cut,
                        mean_demand=mean,
                    )
                )
            start = cut
            total = float(left_sum(samples[start : i + 1]))
            count = i + 1 - start
            deviants = 0
    phases.append(
        DetectedPhase(
            start_index=start,
            end_index=len(samples),
            mean_demand=total / count,
        )
    )
    return _merge_similar(phases, threshold / 2.0)


def _merge_similar(
    phases: List[DetectedPhase], tolerance: float
) -> List[DetectedPhase]:
    merged: List[DetectedPhase] = []
    for phase in phases:
        if merged:
            previous = merged[-1]
            scale = max(previous.mean_demand, _EPS)
            if abs(phase.mean_demand - previous.mean_demand) / scale <= tolerance:
                combined_length = previous.length + phase.length
                mean = (
                    previous.mean_demand * previous.length
                    + phase.mean_demand * phase.length
                ) / combined_length
                merged[-1] = DetectedPhase(
                    start_index=previous.start_index,
                    end_index=phase.end_index,
                    mean_demand=mean,
                )
                continue
        merged.append(phase)
    return merged


def phases_to_inputs(
    phases: Sequence[DetectedPhase],
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """(demands, time weights) for the multi-phase predictor."""
    if not phases:
        raise PredictionError("no phases to convert")
    total = sum(p.length for p in phases)
    demands = tuple(p.mean_demand for p in phases)
    weights = tuple(p.length / total for p in phases)
    return demands, weights


def sample_demand_series(profile, n_samples: int = 100) -> List[float]:
    """Monitored bandwidth series of a standalone run.

    Walks a :class:`repro.soc.pu.StandaloneProfile` in equal time steps
    and records the demand of whichever phase is executing — exactly what
    a periodic bandwidth counter would report.
    """
    if n_samples <= 0:
        raise PredictionError("n_samples must be positive")
    total = profile.total_seconds
    boundaries = []
    elapsed = 0.0
    for phase in profile.phases:
        elapsed += phase.seconds
        boundaries.append((elapsed, phase.demand))
    samples = []
    for i in range(n_samples):
        t = (i + 0.5) / n_samples * total
        for boundary, demand in boundaries:
            if t <= boundary:
                samples.append(demand)
                break
        else:  # pragma: no cover - float edge
            samples.append(boundaries[-1][1])
    return samples
