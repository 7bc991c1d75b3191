"""Epoch-level model of the shared, fairness-controlled memory system.

Section 2.3 of the paper shows that the three-region co-run slowdown
curves are produced by two memory-controller mechanisms:

1. **Row-hit prioritization**: a single streaming client achieves close to
   peak bandwidth, but interleaving multiple streams collapses the
   row-buffer hit rate and lowers the *effective* bandwidth well below
   peak (Table 3).
2. **Fairness control** (ATLAS/TCM/SMS style): service is balanced across
   clients, so a heavy stream cannot hog the bus; beyond a point, raising
   its demand does not raise its achieved bandwidth, which is why victim
   curves flatten (the contention balance point).

This module implements those mechanisms at epoch granularity:

- an *effective bandwidth* model: interleaving pressure and poor row
  locality shrink the serviceable bandwidth from the single-stream level
  towards a multi-stream floor;
- a *capped max-min* (progressive filling) bandwidth allocator — the
  steady-state outcome of least-attained-service fairness scheduling;
- a *loaded-latency* model: queueing delay grows with utilization, and a
  PU with limited memory-level parallelism (MLP) sees its achievable
  burst bandwidth shrink as latency grows (``mlp_lines * 64B / latency``).

The co-run state is solved as a damped fixed point over (latency,
per-stream effective demand, allocation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.soc.spec import MCBehavior
from repro.units import CACHELINE_BYTES, clamp, left_sum

_EPS_BW = 1e-9
_FIXED_POINT_ITERS = 24
_DAMPING = 0.5


@dataclass(frozen=True)
class StreamDemand:
    """One PU's memory traffic during an epoch.

    Attributes
    ----------
    name:
        Stream label (usually the PU name).
    demand:
        Unconstrained average bandwidth the stream would consume if memory
        were uncontended — i.e. its standalone rate for the current phase
        (GB/s). This is the paper's "bandwidth demand".
    compute_time_per_gb:
        Arithmetic time the owning kernel needs per GB of traffic
        (seconds/GB); encodes operational intensity vs PU compute peak.
    burst_bw:
        Bandwidth the PU sustains while memory-active in standalone mode
        (GB/s); the solved standalone burst bandwidth.
    overlap:
        Compute/memory overlap capability of the PU, [0, 1].
    mlp_lines:
        Cachelines the PU keeps in flight (limits burst BW under latency).
    max_bw:
        Front-end bandwidth ceiling of the PU (GB/s).
    latency_sensitivity:
        Exponent controlling burst-bandwidth decay beyond the PU's
        saturation latency; see :class:`repro.soc.spec.PUSpec`.
    locality:
        Row-locality of the stream's access pattern, (0, 1].
    """

    name: str
    demand: float
    compute_time_per_gb: float
    burst_bw: float
    overlap: float
    mlp_lines: float
    max_bw: float
    latency_sensitivity: float = 1.0
    latency_exposure: float = 0.0
    locality: float = 1.0
    arbitration_weight: float = 1.0


@dataclass(frozen=True)
class StreamGrant:
    """Allocation outcome for one stream."""

    name: str
    demand: float
    granted: float
    latency_ns: float
    burst_bw: float

    @property
    def satisfaction(self) -> float:
        """Fraction of demanded bandwidth actually delivered."""
        if self.demand <= _EPS_BW:
            return 1.0
        return min(self.granted / self.demand, 1.0)


_LINES_PER_GB = 1e9 / CACHELINE_BYTES


def time_per_gb(
    compute_time_per_gb: float,
    burst_bw: float,
    overlap: float,
    latency_exposure: float = 0.0,
    latency_ns: float = 0.0,
) -> float:
    """Execution time per GB of traffic for a (partially) overlapped PU.

    ``overlap = 1`` gives the roofline ``max`` of compute and memory time;
    ``overlap = 0`` serializes them; intermediate values interpolate.

    The exposure term adds the serialized latency of dependent accesses:
    ``latency_exposure`` is the fraction of cachelines whose full DRAM
    latency the PU cannot hide. It is weighted by the phase's
    compute-boundedness — streaming (memory-bound) phases prefetch and
    hide latency, while compute phases interleave dependent loads. This
    is what produces the paper's minor-contention region slowdown (MRMC).
    """
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


def _allocate_pair(
    capacity: float,
    guarantee_fraction: float,
    cap: float,
    t0: float,
    t1: float,
    w0: float,
    w1: float,
) -> Tuple[float, float]:
    """:meth:`SharedMemorySystem._allocate` for two streams, on scalars.

    Both streams have the cap ``cap``. The float operations are
    ``_allocate``'s, in its order, so the grants are the same bits: a
    two-term ``left_sum`` is written ``a + b`` and a one-term one is its
    term, each ``done`` test reads ``remaining`` before any update,
    updates run in index order, and each ``min``/``max`` is the
    comparison that returns the built-in's operand.
    """
    floor_level = guarantee_fraction * capacity
    f0 = floor_level if floor_level < t0 else t0
    f1 = floor_level if floor_level < t1 else t1
    total_floors = f0 + f1
    if total_floors >= capacity:
        scale = capacity / total_floors if total_floors > 0 else 0.0
        return f0 * scale, f1 * scale
    a0 = f0
    a1 = f1
    remaining = capacity - total_floors
    s0 = w0 * (t0 - f0)
    s1 = w1 * (t1 - f1)
    capped = (cap if cap < t0 else t0, cap if cap < t1 else t1)
    for l0, l1 in (capped, (t0, t1)):
        h0 = l0 - a0 > _EPS_BW
        h1 = l1 - a1 > _EPS_BW
        while (h0 or h1) and remaining > _EPS_BW:
            if h0 and h1:
                total_w = s0 + s1
            else:
                total_w = s0 if h0 else s1
            d0 = h0 and l0 - a0 <= remaining * s0 / total_w
            d1 = h1 and l1 - a1 <= remaining * s1 / total_w
            if d0 or d1:
                if d0:
                    remaining -= l0 - a0
                    a0 = l0
                    h0 = False
                if d1:
                    remaining -= l1 - a1
                    a1 = l1
                    h1 = False
            else:
                if h0:
                    a0 += remaining * s0 / total_w
                if h1:
                    a1 += remaining * s1 / total_w
                remaining = 0.0
        if remaining <= _EPS_BW:
            break
    return a0, a1


class SharedMemorySystem:
    """The SoC's shared DRAM subsystem under fairness-controlled scheduling.

    Parameters
    ----------
    peak_bw:
        Theoretical peak bandwidth (GB/s).
    behavior:
        Behavioural constants of the memory controller.
    """

    def __init__(self, peak_bw: float, behavior: Optional[MCBehavior] = None):
        if peak_bw <= 0:
            raise SimulationError(f"peak_bw must be positive, got {peak_bw}")
        self.peak_bw = peak_bw
        self.behavior = behavior or MCBehavior()

    # ------------------------------------------------------------------
    # Effective bandwidth
    # ------------------------------------------------------------------
    def effective_bw(self, streams: Sequence[StreamDemand]) -> float:
        """Serviceable bandwidth for this mix of streams (GB/s).

        Starts from the single-stream (row-hit limited) level and shrinks
        towards the multi-stream floor as interleaving pressure grows.
        Interleaving pressure combines how evenly traffic is split across
        streams (1 - Herfindahl index, normalized) with how close total
        demand is to peak. Poor row locality of the mix lowers it further.
        """
        b = self.behavior
        total = left_sum(s.demand for s in streams)
        if total <= _EPS_BW:
            return self.peak_bw * b.single_stream_efficiency
        demands = [s.demand for s in streams if s.demand > _EPS_BW]
        # Row-buffer disruption is driven by the *minority* traffic — the
        # requests that interleave into the dominant stream's row bursts.
        # An exponential saturation in absolute GB/s keeps the effective
        # bandwidth smooth and monotone in every stream's demand (a hard
        # share threshold would make a heavier aggressor look less
        # disruptive once it becomes the majority).
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

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
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
        """Achievable burst bandwidth of a PU at the given DRAM latency.

        Up to the saturation latency ``L_sat = mlp_lines * 64B / max_bw``
        the PU sustains ``max_bw``; beyond it, the bandwidth decays as
        ``max_bw * (L_sat / L) ** latency_sensitivity``. A sensitivity of
        1 is a strictly MLP-bound engine; values near 0 model DMA engines
        that pipeline past most of the extra latency.
        """
        if latency_ns <= 0:
            raise SimulationError("latency must be positive")
        l_sat = mlp_lines * CACHELINE_BYTES / max_bw
        if latency_ns <= l_sat or latency_sensitivity == 0:
            return max_bw
        return max_bw * (l_sat / latency_ns) ** latency_sensitivity

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _allocate(
        self,
        capacity: float,
        targets: Sequence[float],
        caps: Sequence[float],
        weights: Sequence[float],
    ) -> List[float]:
        """Fairness allocation: guaranteed floors + proportional excess.

        Two stages model the steady state of least-attained-service
        scheduling while staying (approximately) *source-oblivious* —
        a victim's grant depends on the total competing demand, not on
        how many clients generate it (Section 3.2 of the paper validates
        this property on real hardware):

        1. every stream is guaranteed up to ``guarantee_fraction`` of the
           effective bandwidth (light clients are fully served first);
        2. the residual capacity is water-filled proportionally to
           ``weight * excess demand`` — demand-proportional, so splitting
           one aggressor into two of half the demand changes nothing.

        Per-stream caps bound any single client while others are hungry.
        Each ``min``/``max`` is written as the comparison that returns
        the operand the built-in would.
        """
        n = len(targets)
        floor_level = self.behavior.guarantee_fraction * capacity
        floors = [floor_level if floor_level < t else t for t in targets]
        total_floors = left_sum(floors)
        if total_floors >= capacity:
            scale = capacity / total_floors if total_floors > 0 else 0.0
            return [f * scale for f in floors]
        alloc = list(floors)
        remaining = capacity - total_floors
        # weight * excess demand, fixed for the whole call. Only a hungry
        # stream's weight is read, and its excess is above _EPS_BW: its
        # limit is at most its target and its grant at least its floor.
        share_w = [w * (t - f) for w, t, f in zip(weights, targets, floors)]
        capped = [c if c < t else t for t, c in zip(targets, caps)]
        # The capped fill, then the same fill with caps released when
        # capacity is left over: the controller does not idle the bus for
        # a lone hungry client once every other client is satisfied.
        for limits in (capped, targets):
            hungry = [i for i in range(n) if limits[i] - alloc[i] > _EPS_BW]
            while hungry and remaining > _EPS_BW:
                total_w = left_sum([share_w[i] for i in hungry])
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
            if remaining <= _EPS_BW:
                break
        return alloc

    # ------------------------------------------------------------------
    # Co-run resolution
    # ------------------------------------------------------------------
    def resolve(self, streams: Sequence[StreamDemand]) -> List[StreamGrant]:
        """Solve the co-run steady state for a set of streams.

        Returns one :class:`StreamGrant` per input stream (same order).
        The solution is a damped fixed point over the loaded latency L.
        One evaluation at L gives every active stream's MLP-limited
        burst bandwidth (:meth:`pu_burst_bw`) and latency-adjusted demand
        (:func:`time_per_gb`), the fairness allocation of those demands,
        and the loaded latency its utilization implies
        (:meth:`loaded_latency_ns`); L is then damped towards it.

        The evaluation inlines those three rules operation for
        operation: every product and quotient keeps their association
        order, floats are added left to right with
        :func:`repro.units.left_sum` (from Python 3.12 ``sum()``
        rounds differently), and each ``min``/``max`` is the comparison
        that returns the operand the built-in would. Two streams, the pairwise
        co-runs of every sweep, are allocated by :func:`_allocate_pair`
        on scalars; any other count by :meth:`_allocate`.

        Raises :class:`SimulationError` for a stream the solver cannot
        handle: demand must be finite and >= 0; ``max_bw``,
        ``mlp_lines`` and ``arbitration_weight`` finite and > 0;
        ``burst_bw`` > 0; ``overlap`` and ``latency_sensitivity`` in
        [0, 1]; ``locality`` in (0, 1]; ``compute_time_per_gb`` and
        ``latency_exposure`` finite and >= 0.
        """
        if not streams:
            return []
        for s in streams:
            if not (
                0 <= s.demand < math.inf
                and 0 < s.max_bw < math.inf
                and 0 < s.mlp_lines < math.inf
                and 0 < s.arbitration_weight < math.inf
                and s.burst_bw > 0
                and 0 <= s.overlap <= 1
                and 0 <= s.latency_sensitivity <= 1
                and 0 < s.locality <= 1
                and 0 <= s.compute_time_per_gb < math.inf
                and 0 <= s.latency_exposure < math.inf
            ):
                raise SimulationError(
                    f"invalid stream demand for {s.name!r}: {s}"
                )
        b = self.behavior
        n = len(streams)
        capacity = self.effective_bw(streams)
        # Per active stream, what the evaluation reads, fixed for the
        # call: L_sat of the pu_burst_bw rule and the first two operands
        # of min(burst_bw, max_bw, pu_burst_bw(L)).
        active = [
            (
                i,
                s.demand,
                min(s.burst_bw, s.max_bw),
                s.max_bw,
                s.mlp_lines * CACHELINE_BYTES / s.max_bw,
                s.latency_sensitivity,
                s.compute_time_per_gb,
                s.overlap,
                1.0 - s.overlap,
                s.latency_exposure,
            )
            for i, s in enumerate(streams)
            if s.demand > _EPS_BW
        ]
        cap = b.cap_fraction * capacity if len(active) > 1 else math.inf
        caps = [cap] * n
        weights = [s.arbitration_weight for s in streams]
        guarantee = b.guarantee_fraction
        base_latency = b.base_latency_ns
        queue_factor = b.queue_factor
        queue_saturation = b.queue_saturation
        max_utilization = b.max_utilization

        latency = base_latency
        targets = [0.0] * n
        bursts = [s.burst_bw for s in streams]
        grants: Sequence[float] = [0.0] * n
        for _ in range(_FIXED_POINT_ITERS):
            for (
                i, demand, top, max_bw, l_sat, sensitivity,
                t_cmp, overlap, serial, exposure,
            ) in active:
                # SharedMemorySystem.pu_burst_bw at L, the three-way min
                # and the _EPS_BW floor, inlined.
                burst = top
                if latency > l_sat and sensitivity != 0:
                    limited = max_bw * (l_sat / latency) ** sensitivity
                    if limited < burst:
                        burst = limited
                if _EPS_BW > burst:
                    burst = _EPS_BW
                # The time_per_gb rule at (burst, L), inlined; t_mem > 0.
                t_mem = 1.0 / burst
                t_sum = t_cmp + t_mem
                t = serial * t_sum + overlap * (
                    t_mem if t_mem > t_cmp else t_cmp
                )
                if exposure > 0 and latency > 0:
                    t += (
                        exposure
                        * latency
                        * 1e-9
                        * _LINES_PER_GB
                        * (t_cmp / t_sum)
                    )
                rate = 1.0 / t
                targets[i] = demand if demand < rate else rate
                bursts[i] = burst
            if n == 2:
                grants = _allocate_pair(
                    capacity, guarantee, cap,
                    targets[0], targets[1], weights[0], weights[1],
                )
                total = grants[0] + grants[1]
            else:
                grants = self._allocate(capacity, targets, caps, weights)
                total = left_sum(grants)
            rho = total / capacity if capacity > 0 else 1.0
            # The loaded_latency_ns rule, its clamp to [0, max_utilization]
            # inlined.
            rho = rho if rho < max_utilization else max_utilization
            rho = rho if rho > 0.0 else 0.0
            new_latency = base_latency * (
                1.0 + queue_factor * rho / (1.0 - queue_saturation * rho)
            )
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
