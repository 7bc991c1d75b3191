"""A PCCS-driven QoS frequency governor.

Post-silicon scenario: a latency-critical kernel owns one PU; the other
PUs run best-effort work whose bandwidth demand varies over time. The
governor watches the monitored external demand and, each control epoch,
picks the lowest PU clock that keeps the critical kernel's *predicted*
co-run performance within a QoS budget of its top-clock co-run
performance — spending DVFS headroom only when contention is actually
low. This is the runtime counterpart of the Section 4.3 design
exploration, using the same model and the same selection rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.explorer import DesignExplorer, FrequencyExplorer
from repro.core.workflow import SlowdownModel
from repro.errors import PredictionError
from repro.soc.spec import SoCSpec
from repro.units import left_sum
from repro.workloads.kernel import KernelSpec


@dataclass(frozen=True)
class GovernorDecision:
    """One control-epoch outcome."""

    external_bw: float
    frequency_mhz: float
    predicted_speed: float  # co-run speed relative to the top clock


class QoSGovernor:
    """Pick per-epoch clocks for a PU hosting a critical kernel.

    Parameters
    ----------
    soc:
        The platform.
    pu_name:
        PU hosting the latency-critical kernel.
    kernel_factory:
        Builds the critical kernel (re-profiled per candidate clock).
    frequencies_mhz:
        The DVFS operating points available to the governor.
    model:
        The PU's PCCS model (or any slowdown model).
    budget:
        Allowed fractional slowdown vs the top clock's co-run
        performance at the same external demand.
    """

    def __init__(
        self,
        soc: SoCSpec,
        pu_name: str,
        kernel_factory,
        frequencies_mhz: Sequence[float],
        model: SlowdownModel,
        budget: float = 0.05,
    ) -> None:
        if not frequencies_mhz:
            raise PredictionError("need at least one DVFS operating point")
        if not 0 <= budget < 1:
            raise PredictionError(f"budget must be in [0, 1), got {budget}")
        self.frequencies_mhz = tuple(sorted(frequencies_mhz))
        self.model = model
        self.budget = budget
        self._explorer = FrequencyExplorer(soc, pu_name, kernel_factory)
        # Standalone profiles per clock are contention-independent:
        # compute once, reuse for every decision.
        self._standalone: Dict[float, Tuple[float, float]] = {
            f: self._explorer._standalone(f) for f in self.frequencies_mhz
        }

    # ------------------------------------------------------------------
    def decide(self, external_bw: float) -> GovernorDecision:
        """Lowest clock within budget at the observed external demand."""
        if external_bw < 0:
            raise PredictionError("external_bw must be >= 0")
        corun = {}
        for f in self.frequencies_mhz:
            speed, demand = self._standalone[f]
            rs = self.model.relative_speed(demand, external_bw)
            corun[f] = speed * rs
        best = max(corun.values())
        eligible = [
            f
            for f in self.frequencies_mhz
            if corun[f] >= (1.0 - self.budget) * best
        ]
        chosen = min(eligible)
        return GovernorDecision(
            external_bw=external_bw,
            frequency_mhz=chosen,
            predicted_speed=corun[chosen] / best,
        )

    def run(self, external_series: Sequence[float]) -> List[GovernorDecision]:
        """Decide per control epoch over a monitored demand series."""
        return [self.decide(bw) for bw in external_series]

    # ------------------------------------------------------------------
    def energy_proxy(self, decisions: Sequence[GovernorDecision]) -> float:
        """Σ f³ across epochs, normalized to all-top-clock (∈ (0, 1]).

        A dimensionless dynamic-energy proxy: 1.0 means the governor
        never left the top clock; lower is energy saved.
        """
        if not decisions:
            raise PredictionError("no decisions to score")
        top = max(self.frequencies_mhz)
        used = left_sum((d.frequency_mhz / top) ** 3 for d in decisions)
        return used / len(decisions)
