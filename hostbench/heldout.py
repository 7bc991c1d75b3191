"""Seeded held-out kernel population for the ``heldout_sweeps`` workload.

The kernels are synthetic: none is a kernel the PCCS parameters were
built from. Each has one to four phases, and each phase draws its
operational intensity (log-uniformly) and row locality (uniformly) from
the span the repo's Rodinia models (CPU, GPU) and DNN models (DLA) cover
on that PU type, stratified over the phases placed on one PU. Kernels are
placed round-robin over the five PUs of the two built-in SoCs.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.soc.configs import soc_by_name
from repro.soc.spec import PUType
from repro.workloads.dnn import dnn_suite
from repro.workloads.kernel import KernelSpec, Phase
from repro.workloads.rodinia import rodinia_suite

PLACEMENTS: Tuple[Tuple[str, str], ...] = (
    ("xavier-agx", "cpu"),
    ("xavier-agx", "gpu"),
    ("xavier-agx", "dla"),
    ("snapdragon-855", "cpu"),
    ("snapdragon-855", "gpu"),
)

#: Share of kernels with two to four phases; the rest have one.
MULTIPHASE_SHARE = 0.35
MAX_PHASES = 4
TRAFFIC_BYTES = 0.5e9

Span = Tuple[float, float]


@dataclass(frozen=True)
class HeldoutKernel:
    """One generated kernel and the PU it is swept on."""

    soc_name: str
    pu_name: str
    kernel: KernelSpec

    @property
    def placement(self) -> str:
        return f"{self.soc_name}/{self.pu_name}"


def _span(kernels: Sequence[KernelSpec]) -> Tuple[Span, Span]:
    phases = [phase for kernel in kernels for phase in kernel.phases]
    intensities = [phase.op_intensity for phase in phases]
    localities = [phase.locality for phase in phases]
    return (
        (min(intensities), max(intensities)),
        (min(localities), max(localities)),
    )


def model_spans() -> Dict[PUType, Tuple[Span, Span]]:
    """(intensity, locality) span of the repo's models per PU type."""
    return {
        PUType.CPU: _span(list(rodinia_suite(PUType.CPU).values())),
        PUType.GPU: _span(list(rodinia_suite(PUType.GPU).values())),
        PUType.DLA: _span(list(dnn_suite().values())),
    }


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    """``n`` draws, one from each of ``n`` equal strata of [lo, hi], shuffled.

    Stratifying keeps the population's spread, and so the work a pass
    does, nearly the same from seed to seed; the seed still decides every
    value and how the values pair up.
    """
    width = (hi - lo) / n
    values = [rng.uniform(lo + k * width, lo + (k + 1) * width) for k in range(n)]
    rng.shuffle(values)
    return values


def generate(seed: int, count: int) -> List[HeldoutKernel]:
    """``count`` kernels drawn from ``seed``; the same seed, the same set.

    On each PU, ``MULTIPHASE_SHARE`` of the kernels (rounded) have two to
    four phases, the rest one; intensities and localities are stratified
    over the phases placed on that PU.
    """
    rng = random.Random(seed)
    spans = model_spans()
    kernels: Dict[int, HeldoutKernel] = {}
    for slot, (soc_name, pu_name) in enumerate(PLACEMENTS):
        indices = range(slot, count, len(PLACEMENTS))
        n_multi = round(MULTIPHASE_SHARE * len(indices))
        phase_counts = [2 + j % (MAX_PHASES - 1) for j in range(n_multi)]
        phase_counts += [1] * (len(indices) - n_multi)
        rng.shuffle(phase_counts)
        (oi_lo, oi_hi), (loc_lo, loc_hi) = spans[
            soc_by_name(soc_name).pu(pu_name).pu_type
        ]
        n_phases = sum(phase_counts)
        log_intensities = _stratified(
            rng, n_phases, math.log(oi_lo), math.log(oi_hi)
        )
        localities = _stratified(rng, n_phases, loc_lo, loc_hi)
        for index, phases_here in zip(indices, phase_counts):
            traffic = TRAFFIC_BYTES / phases_here
            phases = []
            for p in range(phases_here):
                intensity = math.exp(log_intensities.pop())
                phases.append(
                    Phase(
                        name=f"P{p}",
                        flops=intensity * traffic,
                        traffic_bytes=traffic,
                        locality=localities.pop(),
                    )
                )
            kernels[index] = HeldoutKernel(
                soc_name=soc_name,
                pu_name=pu_name,
                kernel=KernelSpec(
                    name=f"heldout{index:04d}",
                    phases=tuple(phases),
                    suite="heldout",
                ),
            )
    return [kernels[index] for index in range(count)]


def multiphase_share(kernels: Sequence[HeldoutKernel]) -> float:
    return sum(k.kernel.is_multiphase for k in kernels) / len(kernels)


def region_shares(
    points: Sequence[Tuple[str, str, int]],
) -> Dict[str, Dict[str, float]]:
    """Share of sweep points per PCCS region, per placement.

    ``points`` holds ``(placement, region, n_points)`` per swept kernel;
    a kernel's region is that of the demand PCCS is given for it.
    """
    per_placement: Dict[str, Counter] = {}
    for placement, region, n_points in points:
        per_placement.setdefault(placement, Counter())[region] += n_points
    return {
        placement: {
            region: counts[region] / sum(counts.values())
            for region in ("minor", "normal", "intensive")
        }
        for placement, counts in sorted(per_placement.items())
    }
