"""Gables: the paper's state-of-the-art baseline (Hill & Reddi, HPCA'19).

Gables extends the Roofline model to mobile SoCs. Its memory-contention
assumptions, as characterized in the paper (Section 4.1.1):

1. A processor's effective bandwidth under contention is *not* reduced as
   long as the total requested bandwidth is below the SoC peak.
2. Beyond the peak, the available bandwidth is pro-rated across the
   requesting PUs in proportion to their requests.

Both assumptions contradict the measured behaviour (Fig. 2/3): real
fairness-controlled memory controllers slow co-runners well before the
theoretical peak is reached, and flatten slowdowns beyond the contention
balance point. This module reimplements Gables faithfully so the
comparison experiments can quantify the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import PredictionError
from repro.units import clamp, left_sum


class GablesModel:
    """Gables slowdown predictions for one SoC.

    Parameters
    ----------
    peak_bw:
        Theoretical peak DRAM bandwidth of the SoC (GB/s).
    """

    def __init__(self, peak_bw: float):
        if peak_bw <= 0:
            raise PredictionError(f"peak_bw must be positive, got {peak_bw}")
        self.peak_bw = peak_bw

    def effective_bw(self, demand_bw: float, external_bw: float) -> float:
        """Bandwidth Gables grants a PU demanding ``demand_bw`` (GB/s)."""
        if demand_bw < 0 or external_bw < 0:
            raise PredictionError("bandwidth demands must be >= 0")
        total = demand_bw + external_bw
        if total <= self.peak_bw or total == 0:
            return demand_bw
        return demand_bw * self.peak_bw / total

    def relative_speed(
        self,
        demand_bw: float,
        external_bw: float,
        memory_fraction: float = 1.0,
    ) -> float:
        """Predicted achieved relative speed.

        Parameters
        ----------
        demand_bw:
            The kernel's standalone BW demand on this PU (GB/s).
        external_bw:
            Total external BW demand (GB/s).
        memory_fraction:
            Fraction of the kernel's standalone time that is
            memory-bound; the remainder is unaffected by the bandwidth
            cut (roofline compute ceiling). 1.0 reproduces the paper's
            usage on memory-characterized demands.
        """
        if not 0 <= memory_fraction <= 1:
            raise PredictionError("memory_fraction must be in [0, 1]")
        if demand_bw == 0:
            return 1.0
        granted = self.effective_bw(demand_bw, external_bw)
        if granted <= 0:
            raise PredictionError("Gables granted zero bandwidth")
        stretch = (1 - memory_fraction) + memory_fraction * demand_bw / granted
        return clamp(1.0 / stretch, 0.0, 1.0)

    @staticmethod
    def attainable_gflops(
        op_intensity: float, peak_gflops: float, bandwidth: float
    ) -> float:
        """Classic roofline attainable performance (GFLOP/s)."""
        if op_intensity < 0 or peak_gflops <= 0 or bandwidth <= 0:
            raise PredictionError("invalid roofline inputs")
        return min(peak_gflops, op_intensity * bandwidth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GablesModel(peak_bw={self.peak_bw})"


@dataclass(frozen=True)
class GablesAttainable:
    """Outcome of the full SoC-level Gables roofline."""

    gflops: float
    binding_constraint: str  # "compute:<pu>" or "memory"
    per_pu_gflops: Dict[str, float]


def gables_soc_attainable(
    soc,
    assignments: Mapping[str, Tuple[float, float]],
) -> GablesAttainable:
    """The full Gables multi-PU roofline (Hill & Reddi, HPCA'19).

    Work is split across PUs: PU *i* executes fraction ``f_i`` of the
    total operations at operational intensity ``I_i`` (FLOPs/byte). The
    attainable SoC throughput ``Perf`` obeys:

    - per-PU compute ceilings: ``f_i * Perf <= P_i``;
    - the shared-memory ceiling: ``sum_i f_i * Perf / I_i <= B_peak``.

    The memory ceiling embodies Gables' contention assumption — the full
    theoretical bandwidth is divisible without loss — which is exactly
    what PCCS shows to be optimistic.

    Parameters
    ----------
    soc:
        A :class:`repro.soc.spec.SoCSpec` (supplies ``P_i`` and peak BW).
    assignments:
        ``{pu_name: (work_fraction, op_intensity)}``; fractions must sum
        to 1 and intensities be positive.
    """
    if not assignments:
        raise PredictionError("at least one PU assignment required")
    total_fraction = left_sum(f for f, _ in assignments.values())
    if abs(total_fraction - 1.0) > 1e-9:
        raise PredictionError(
            f"work fractions must sum to 1, got {total_fraction}"
        )
    ceilings: Dict[str, float] = {}
    memory_load = 0.0
    for pu_name, (fraction, intensity) in assignments.items():
        if fraction < 0:
            raise PredictionError("work fractions must be >= 0")
        if intensity <= 0:
            raise PredictionError("operational intensity must be positive")
        if fraction == 0:
            continue
        pu = soc.pu(pu_name)
        ceilings[f"compute:{pu_name}"] = pu.peak_gflops / fraction
        memory_load += fraction / intensity
    if not ceilings:
        raise PredictionError("no PU carries any work")
    ceilings["memory"] = soc.peak_bw / memory_load
    binding = min(ceilings, key=ceilings.get)
    perf = ceilings[binding]
    per_pu = {
        pu_name: fraction * perf
        for pu_name, (fraction, _) in assignments.items()
    }
    return GablesAttainable(
        gflops=perf, binding_constraint=binding, per_pu_gflops=per_pu
    )


def best_work_split(
    soc,
    pu_a: str,
    pu_b: str,
    intensity_a: float,
    intensity_b: float,
    steps: int = 100,
) -> Tuple[float, GablesAttainable]:
    """Gables' design question: the best two-PU work split.

    Sweeps the fraction assigned to ``pu_a`` and returns the split with
    the highest attainable throughput.
    """
    if steps < 2:
        raise PredictionError("need at least 2 sweep steps")
    best: Optional[Tuple[float, GablesAttainable]] = None
    for i in range(steps + 1):
        fraction = i / steps
        outcome = gables_soc_attainable(
            soc,
            {
                pu_a: (fraction, intensity_a),
                pu_b: (1.0 - fraction, intensity_b),
            },
        )
        if best is None or outcome.gflops > best[1].gflops:
            best = (fraction, outcome)
    assert best is not None
    return best
