"""Processing-unit execution model.

A PU executes a kernel phase at a rate set by the roofline-with-overlap
law (:func:`repro.soc.memsys.time_per_gb`): compute time per byte comes
from the phase's operational intensity and the PU's arithmetic peak;
memory time per byte comes from the burst bandwidth the PU can sustain,
which is limited by its front-end (``max_bw``), its memory-level
parallelism under the current DRAM latency, and the memory system's
effective bandwidth.

The standalone profile of a phase (its achieved rate — which *is* the
paper's "bandwidth demand" — plus the burst bandwidth it sustains) is the
solution of a small fixed point, because the rate determines utilization,
utilization determines latency, and latency bounds the burst bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.errors import SimulationError
from repro.soc.memsys import (
    _LINES_PER_GB,
    SharedMemorySystem,
    StreamDemand,
    time_per_gb,
)
from repro.soc.spec import PUSpec
from repro.units import CACHELINE_BYTES, left_sum
from repro.workloads.kernel import KernelSpec, Phase

_STANDALONE_ITERS = 40
_STANDALONE_DAMPING = 0.5


@dataclass(frozen=True)
class PhaseProfile:
    """Standalone execution profile of one phase on one PU.

    Attributes
    ----------
    name:
        Phase name.
    demand:
        Standalone average bandwidth (GB/s) — the paper's BW demand.
    burst_bw:
        Burst bandwidth sustained while memory-active (GB/s).
    compute_time_per_gb:
        Arithmetic time per GB of traffic (s/GB).
    seconds:
        Standalone execution time of the phase.
    traffic_bytes:
        DRAM traffic volume of the phase.
    locality:
        Row-locality factor inherited from the phase.
    """

    name: str
    demand: float
    burst_bw: float
    compute_time_per_gb: float
    seconds: float
    traffic_bytes: float
    locality: float

    @property
    def traffic_gb(self) -> float:
        return self.traffic_bytes / 1e9


@dataclass(frozen=True)
class StandaloneProfile:
    """Standalone execution profile of a whole kernel on one PU.

    The totals are computed on first read and kept in the instance
    dict, outside the fields, so ``repr`` and ``==`` do not see them.
    """

    kernel_name: str
    pu_name: str
    phases: Tuple[PhaseProfile, ...]

    @cached_property
    def total_seconds(self) -> float:
        return left_sum(p.seconds for p in self.phases)

    @cached_property
    def total_traffic_bytes(self) -> float:
        return left_sum(p.traffic_bytes for p in self.phases)

    @cached_property
    def avg_demand(self) -> float:
        """Time-averaged bandwidth demand across phases (GB/s)."""
        return self.total_traffic_bytes / 1e9 / self.total_seconds

    @property
    def peak_phase_demand(self) -> float:
        return max(p.demand for p in self.phases)

    def phase_weights(self) -> Tuple[float, ...]:
        """Standalone execution-time fraction of each phase."""
        total = self.total_seconds
        return tuple(p.seconds / total for p in self.phases)


def compute_time_per_gb(pu: PUSpec, phase: Phase) -> float:
    """Arithmetic time per GB of traffic for ``phase`` on ``pu`` (s/GB)."""
    return phase.op_intensity / pu.peak_gflops


def profile_phase(
    pu: PUSpec, phase: Phase, mem: SharedMemorySystem
) -> PhaseProfile:
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

    max_bw = pu.max_bw
    overlap = pu.overlap
    serial = 1.0 - overlap
    exposure = pu.latency_exposure
    sensitivity = pu.latency_sensitivity
    l_sat = pu.mlp_lines * CACHELINE_BYTES / max_bw
    behavior = mem.behavior
    base_latency = behavior.base_latency_ns
    queue_factor = behavior.queue_factor
    queue_saturation = behavior.queue_saturation
    max_utilization = behavior.max_utilization
    # The first two operands of min(max_bw, capacity, pu_burst_bw(L)).
    top = min(max_bw, capacity)
    burst = top
    latency = base_latency
    rate = 1.0 / time_per_gb(tc, burst, overlap, exposure, latency)
    for _ in range(_STANDALONE_ITERS):
        # (burst, rate) is the whole state an iteration reads: it
        # recomputes the latency from the rate. Once an iteration gives
        # both back bit for bit, every later one would too.
        last_burst = burst
        last_rate = rate
        # The loaded_latency_ns rule at min(rate / capacity,
        # max_utilization), inlined. Its clamp to [0, max_utilization]
        # subsumes that min, for NaN too.
        rho = rate / capacity
        rho = rho if rho < max_utilization else max_utilization
        rho = rho if rho > 0.0 else 0.0
        latency = base_latency * (
            1.0 + queue_factor * rho / (1.0 - queue_saturation * rho)
        )
        # SharedMemorySystem.pu_burst_bw at this latency and the
        # three-way min, inlined.
        target_burst = top
        if latency > l_sat and sensitivity != 0:
            limited = max_bw * (l_sat / latency) ** sensitivity
            if limited < target_burst:
                target_burst = limited
        burst = (
            _STANDALONE_DAMPING * burst
            + (1.0 - _STANDALONE_DAMPING) * target_burst
        )
        # The time_per_gb rule at (burst, L), inlined.
        if burst <= 0:
            raise SimulationError("burst bandwidth must be positive")
        t_mem = 1.0 / burst
        t_sum = tc + t_mem
        t = serial * t_sum + overlap * (t_mem if t_mem > tc else tc)
        if exposure > 0 and latency > 0:
            t += exposure * latency * 1e-9 * _LINES_PER_GB * (tc / t_sum)
        rate = 1.0 / t
        if burst == last_burst and rate == last_rate:
            break
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


def profile_kernel(
    pu: PUSpec, kernel: KernelSpec, mem: SharedMemorySystem
) -> StandaloneProfile:
    """Standalone profile of every phase of ``kernel`` on ``pu``."""
    return StandaloneProfile(
        kernel_name=kernel.name,
        pu_name=pu.name,
        phases=tuple(profile_phase(pu, p, mem) for p in kernel.phases),
    )


def stream_for_phase(pu: PUSpec, profile: PhaseProfile) -> StreamDemand:
    """Build the co-run stream demand of a phase from its profile."""
    return StreamDemand(
        name=pu.name,
        demand=profile.demand,
        compute_time_per_gb=profile.compute_time_per_gb,
        burst_bw=profile.burst_bw,
        overlap=pu.overlap,
        mlp_lines=pu.mlp_lines,
        max_bw=pu.max_bw,
        latency_sensitivity=pu.latency_sensitivity,
        latency_exposure=pu.latency_exposure,
        locality=profile.locality,
        arbitration_weight=pu.arbitration_weight,
    )
