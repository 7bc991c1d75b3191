"""Reference copy of the co-run and standalone solvers before inlining.

``SharedMemorySystem.resolve`` / ``_allocate`` and ``profile_phase`` were
rewritten to do less interpreter work per iteration while producing the
same bits. This module keeps the earlier code verbatim (docstrings cut
short) so ``test_memsys_reference.py`` can compare the two with ``==``.
Its float sums call :func:`repro.units.left_sum`, as the live solvers
do, where the earlier code called ``sum()``: the two agree before
Python 3.12, and the comparison stays one of the same arithmetic on
every interpreter.

The first change that alters solver results on purpose (ROADMAP item 1,
the root-find) deletes this module together with that test.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.errors import SimulationError
from repro.soc.memsys import StreamDemand, StreamGrant
from repro.soc.pu import PhaseProfile, compute_time_per_gb
from repro.soc.spec import MCBehavior, PUSpec
from repro.units import CACHELINE_BYTES, clamp, left_sum
from repro.workloads.kernel import Phase

_EPS_BW = 1e-9
_FIXED_POINT_ITERS = 24
_DAMPING = 0.5
_STANDALONE_ITERS = 40
_STANDALONE_DAMPING = 0.5
_LINES_PER_GB = 1e9 / CACHELINE_BYTES


def time_per_gb(
    compute_time_per_gb: float,
    burst_bw: float,
    overlap: float,
    latency_exposure: float = 0.0,
    latency_ns: float = 0.0,
) -> float:
    """Execution time per GB of traffic for a (partially) overlapped PU."""
    if burst_bw <= 0:
        raise SimulationError("burst bandwidth must be positive")
    t_mem = 1.0 / burst_bw
    t_cmp = compute_time_per_gb
    base = (1.0 - overlap) * (t_cmp + t_mem) + overlap * max(t_cmp, t_mem)
    if latency_exposure > 0 and latency_ns > 0:
        compute_weight = t_cmp / (t_cmp + t_mem) if (t_cmp + t_mem) > 0 else 0.0
        base += (
            latency_exposure
            * latency_ns
            * 1e-9
            * _LINES_PER_GB
            * compute_weight
        )
    return base


class ReferenceMemorySystem:
    """``SharedMemorySystem`` as it was before the hot path was inlined."""

    def __init__(self, peak_bw: float, behavior: Optional[MCBehavior] = None):
        if peak_bw <= 0:
            raise SimulationError(f"peak_bw must be positive, got {peak_bw}")
        self.peak_bw = peak_bw
        self.behavior = behavior or MCBehavior()

    def effective_bw(self, streams: Sequence[StreamDemand]) -> float:
        """Serviceable bandwidth for this mix of streams (GB/s)."""
        b = self.behavior
        total = left_sum(s.demand for s in streams)
        if total <= _EPS_BW:
            return self.peak_bw * b.single_stream_efficiency
        demands = [s.demand for s in streams if s.demand > _EPS_BW]
        minority_traffic = total - max(demands)
        mixing = 1.0 - math.exp(-minority_traffic / (0.10 * self.peak_bw))
        pressure = clamp(total / self.peak_bw, 0.0, 1.0)
        eff = b.single_stream_efficiency - (
            b.single_stream_efficiency - b.multi_stream_efficiency
        ) * mixing * pressure
        locality = (
            left_sum(s.demand * s.locality for s in streams) / total
        ) ** b.locality_exponent
        return self.peak_bw * eff * locality

    def loaded_latency_ns(self, utilization: float) -> float:
        """Mean access latency at the given bus utilization."""
        b = self.behavior
        rho = clamp(utilization, 0.0, b.max_utilization)
        return b.base_latency_ns * (
            1.0 + b.queue_factor * rho / (1.0 - b.queue_saturation * rho)
        )

    @staticmethod
    def pu_burst_bw(
        max_bw: float,
        mlp_lines: float,
        latency_sensitivity: float,
        latency_ns: float,
    ) -> float:
        """Achievable burst bandwidth of a PU at the given DRAM latency."""
        if latency_ns <= 0:
            raise SimulationError("latency must be positive")
        l_sat = mlp_lines * CACHELINE_BYTES / max_bw
        if latency_ns <= l_sat or latency_sensitivity == 0:
            return max_bw
        return max_bw * (l_sat / latency_ns) ** latency_sensitivity

    def _allocate(
        self,
        capacity: float,
        targets: Sequence[float],
        caps: Sequence[float],
        weights: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Fairness allocation: guaranteed floors + proportional excess."""
        n = len(targets)
        if weights is None:
            weights = [1.0] * n
        floor_level = self.behavior.guarantee_fraction * capacity
        floors = [min(t, floor_level) for t in targets]
        total_floors = left_sum(floors)
        if total_floors >= capacity:
            scale = capacity / total_floors if total_floors > 0 else 0.0
            return [f * scale for f in floors]
        alloc = list(floors)
        remaining = capacity - total_floors

        def fill(limits: Sequence[float], remaining: float) -> float:
            hungry = [i for i in range(n) if limits[i] - alloc[i] > _EPS_BW]
            while hungry and remaining > _EPS_BW:
                share_w = {
                    i: weights[i] * max(targets[i] - floors[i], _EPS_BW)
                    for i in hungry
                }
                total_w = left_sum(share_w.values())
                done = [
                    i
                    for i in hungry
                    if limits[i] - alloc[i]
                    <= remaining * share_w[i] / total_w
                ]
                if done:
                    for i in done:
                        remaining -= limits[i] - alloc[i]
                        alloc[i] = limits[i]
                    hungry = [i for i in hungry if i not in done]
                else:
                    for i in hungry:
                        alloc[i] += remaining * share_w[i] / total_w
                    remaining = 0.0
            return remaining

        limit = [min(t, c) for t, c in zip(targets, caps)]
        remaining = fill(limit, remaining)
        if remaining > _EPS_BW:
            fill(list(targets), remaining)
        return alloc

    def resolve(self, streams: Sequence[StreamDemand]) -> List[StreamGrant]:
        """Solve the co-run steady state for a set of streams."""
        b = self.behavior
        if not streams:
            return []
        for s in streams:
            if s.demand < 0 or s.max_bw <= 0 or s.mlp_lines <= 0:
                raise SimulationError(f"invalid stream demand: {s}")
        capacity = self.effective_bw(streams)
        n_active = sum(1 for s in streams if s.demand > _EPS_BW)
        cap = b.cap_fraction * capacity if n_active > 1 else float("inf")

        latency = b.base_latency_ns
        grants = [0.0] * len(streams)
        bursts = [s.burst_bw for s in streams]
        for _ in range(_FIXED_POINT_ITERS):
            targets = []
            new_bursts = []
            for s in streams:
                if s.demand <= _EPS_BW:
                    targets.append(0.0)
                    new_bursts.append(s.burst_bw)
                    continue
                burst = min(
                    s.burst_bw,
                    s.max_bw,
                    self.pu_burst_bw(
                        s.max_bw, s.mlp_lines, s.latency_sensitivity, latency
                    ),
                )
                burst = max(burst, _EPS_BW)
                rate = 1.0 / time_per_gb(
                    s.compute_time_per_gb,
                    burst,
                    s.overlap,
                    s.latency_exposure,
                    latency,
                )
                targets.append(min(rate, s.demand))
                new_bursts.append(burst)
            bursts = new_bursts
            grants = self._allocate(
                capacity,
                targets,
                [cap] * len(streams),
                [s.arbitration_weight for s in streams],
            )
            rho = left_sum(grants) / capacity if capacity > 0 else 1.0
            new_latency = self.loaded_latency_ns(rho)
            latency = _DAMPING * latency + (1.0 - _DAMPING) * new_latency
        return [
            StreamGrant(
                name=s.name,
                demand=s.demand,
                granted=min(g, s.demand),
                latency_ns=latency,
                burst_bw=burst,
            )
            for s, g, burst in zip(streams, grants, bursts)
        ]


def profile_phase(pu: PUSpec, phase: Phase, mem) -> PhaseProfile:
    """Solve the standalone fixed point for one phase on one PU."""
    tc = compute_time_per_gb(pu, phase)
    probe = StreamDemand(
        name=pu.name,
        demand=1.0,  # any positive value: marks the stream active
        compute_time_per_gb=tc,
        burst_bw=pu.max_bw,
        overlap=pu.overlap,
        mlp_lines=pu.mlp_lines,
        max_bw=pu.max_bw,
        latency_sensitivity=pu.latency_sensitivity,
        latency_exposure=pu.latency_exposure,
        locality=phase.locality,
        arbitration_weight=pu.arbitration_weight,
    )
    capacity = mem.effective_bw([probe])
    if capacity <= 0:
        raise SimulationError("memory system has no effective bandwidth")

    burst = min(pu.max_bw, capacity)
    latency = mem.behavior.base_latency_ns
    rate = 1.0 / time_per_gb(tc, burst, pu.overlap, pu.latency_exposure, latency)
    for _ in range(_STANDALONE_ITERS):
        rho = min(rate / capacity, mem.behavior.max_utilization)
        latency = mem.loaded_latency_ns(rho)
        target_burst = min(
            pu.max_bw,
            capacity,
            mem.pu_burst_bw(
                pu.max_bw, pu.mlp_lines, pu.latency_sensitivity, latency
            ),
        )
        burst = (
            _STANDALONE_DAMPING * burst
            + (1.0 - _STANDALONE_DAMPING) * target_burst
        )
        rate = 1.0 / time_per_gb(
            tc, burst, pu.overlap, pu.latency_exposure, latency
        )
    seconds = phase.traffic_bytes / 1e9 / rate
    return PhaseProfile(
        name=phase.name,
        demand=rate,
        burst_bw=burst,
        compute_time_per_gb=tc,
        seconds=seconds,
        traffic_bytes=phase.traffic_bytes,
        locality=phase.locality,
    )
