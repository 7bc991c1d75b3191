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


_Active = Tuple[
    int, float, float, float, float, float, float, float, float, float
]


def _active_streams(streams: Sequence[StreamDemand]) -> List[_Active]:
    """What the co-run evaluation reads of each active stream.

    A stream is active when its demand exceeds ``_EPS_BW``. Its tuple
    holds its index, its demand, the first two operands of
    ``min(burst_bw, max_bw, pu_burst_bw(L))``, ``max_bw``, ``L_sat`` and
    the sensitivity of the :meth:`SharedMemorySystem.pu_burst_bw` rule,
    and the compute time, overlap, ``1 - overlap`` and exposure of the
    :func:`time_per_gb` rule: all fixed for the call.
    """
    return [
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


def _stream_grants(
    streams: Sequence[StreamDemand],
    grants: Sequence[float],
    bursts: Sequence[float],
    latency: float,
) -> List[StreamGrant]:
    """One :class:`StreamGrant` per stream, its grant capped at its demand."""
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
        that returns the operand the built-in would. Exactly two active
        streams, the pairwise co-runs of every sweep, are solved on
        scalars by :meth:`_resolve_pair`; any other count by
        :meth:`_resolve_streams`. Both give the same bits.

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
        active = _active_streams(streams)
        if len(active) == 2:
            return self._resolve_pair(streams, active)
        return self._resolve_streams(streams, active)

    def _resolve_streams(
        self, streams: Sequence[StreamDemand], active: Sequence[_Active]
    ) -> List[StreamGrant]:
        """The fixed point of :meth:`resolve` for any number of streams.

        ``active`` is :func:`_active_streams` of ``streams``. Each
        iteration evaluates the active streams in one loop and
        allocates with :meth:`_allocate`. :meth:`resolve` runs this for
        one active stream and for three or more.
        """
        b = self.behavior
        n = len(streams)
        capacity = self.effective_bw(streams)
        cap = b.cap_fraction * capacity if len(active) > 1 else math.inf
        caps = [cap] * n
        weights = [s.arbitration_weight for s in streams]
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
        return _stream_grants(streams, grants, bursts, latency)

    def _resolve_pair(
        self, streams: Sequence[StreamDemand], active: Sequence[_Active]
    ) -> List[StreamGrant]:
        """:meth:`_resolve_streams` for exactly two active streams.

        One loop runs the iterations on scalars: both stream evaluations
        are written out, and so is :meth:`_allocate`'s water-fill, so an
        iteration builds no list and makes no call. The float operations
        are the generic loop's, in its order, so the grants, bursts and
        latency are the same bits:

        - while the MLP limit does not bind, a stream's evaluation reads
          terms that do not depend on L: the floored burst at ``top``,
          its ``t_mem`` and ``t_sum``, the base time and ``t_cmp /
          t_sum``. They are computed once per call;
        - a stream with ``latency_sensitivity == 0`` is never MLP-limited,
          so its limit starts at an infinite L;
        - L never falls below ``base_latency_ns > 0``, so the exposure
          term needs no ``latency > 0`` test;
        - in the allocation, a two-term ``left_sum`` is written ``a +
          b`` and a one-term one is its term, each ``done`` test reads
          ``remaining`` before any update, and the updates run in index
          order;
        - each ``min``/``max`` is the comparison that returns the
          built-in's operand.
        """
        b = self.behavior
        capacity = self.effective_bw(streams)
        cap = b.cap_fraction * capacity
        floor_level = b.guarantee_fraction * capacity
        base_latency = b.base_latency_ns
        queue_factor = b.queue_factor
        queue_saturation = b.queue_saturation
        max_utilization = b.max_utilization
        eps = _EPS_BW
        lines_per_gb = _LINES_PER_GB
        (
            (
                i0, demand0, top0, max_bw0, l_sat0, sensitivity0,
                t_cmp0, overlap0, serial0, exposure0,
            ),
            (
                i1, demand1, top1, max_bw1, l_sat1, sensitivity1,
                t_cmp1, overlap1, serial1, exposure1,
            ),
        ) = active
        w0 = streams[i0].arbitration_weight
        w1 = streams[i1].arbitration_weight
        limit_from0 = l_sat0 if sensitivity0 != 0 else math.inf
        limit_from1 = l_sat1 if sensitivity1 != 0 else math.inf
        # Each stream's evaluation while the MLP limit does not bind.
        top_burst0 = eps if eps > top0 else top0
        t_mem = 1.0 / top_burst0
        top_sum0 = t_cmp0 + t_mem
        top_time0 = serial0 * top_sum0 + overlap0 * (
            t_mem if t_mem > t_cmp0 else t_cmp0
        )
        top_weight0 = t_cmp0 / top_sum0
        top_burst1 = eps if eps > top1 else top1
        t_mem = 1.0 / top_burst1
        top_sum1 = t_cmp1 + t_mem
        top_time1 = serial1 * top_sum1 + overlap1 * (
            t_mem if t_mem > t_cmp1 else t_cmp1
        )
        top_weight1 = t_cmp1 / top_sum1

        latency = base_latency
        burst0 = top_burst0
        burst1 = top_burst1
        a0 = a1 = 0.0
        for _ in range(_FIXED_POINT_ITERS):
            # Stream 0: pu_burst_bw, the min and floor, time_per_gb.
            burst0 = top_burst0
            t = top_time0
            weight = top_weight0
            if latency > limit_from0:
                limited = max_bw0 * (l_sat0 / latency) ** sensitivity0
                if limited < top0:
                    burst0 = eps if eps > limited else limited
                    t_mem = 1.0 / burst0
                    t_sum = t_cmp0 + t_mem
                    t = serial0 * t_sum + overlap0 * (
                        t_mem if t_mem > t_cmp0 else t_cmp0
                    )
                    weight = t_cmp0 / t_sum
            if exposure0 > 0:
                t += exposure0 * latency * 1e-9 * lines_per_gb * weight
            rate = 1.0 / t
            t0 = demand0 if demand0 < rate else rate
            # Stream 1, the same.
            burst1 = top_burst1
            t = top_time1
            weight = top_weight1
            if latency > limit_from1:
                limited = max_bw1 * (l_sat1 / latency) ** sensitivity1
                if limited < top1:
                    burst1 = eps if eps > limited else limited
                    t_mem = 1.0 / burst1
                    t_sum = t_cmp1 + t_mem
                    t = serial1 * t_sum + overlap1 * (
                        t_mem if t_mem > t_cmp1 else t_cmp1
                    )
                    weight = t_cmp1 / t_sum
            if exposure1 > 0:
                t += exposure1 * latency * 1e-9 * lines_per_gb * weight
            rate = 1.0 / t
            t1 = demand1 if demand1 < rate else rate
            # _allocate on (t0, t1): guarantee floors, then the capped
            # fill and, with capacity left, the caps-released one.
            f0 = floor_level if floor_level < t0 else t0
            f1 = floor_level if floor_level < t1 else t1
            floors = f0 + f1
            if floors >= capacity:
                scale = capacity / floors if floors > 0 else 0.0
                a0 = f0 * scale
                a1 = f1 * scale
            else:
                a0 = f0
                a1 = f1
                remaining = capacity - floors
                s0 = w0 * (t0 - f0)
                s1 = w1 * (t1 - f1)
                l0 = cap if cap < t0 else t0
                l1 = cap if cap < t1 else t1
                for _fill in (0, 1):
                    h0 = l0 - a0 > eps
                    h1 = l1 - a1 > eps
                    while (h0 or h1) and remaining > eps:
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
                    if remaining <= eps:
                        break
                    l0 = t0
                    l1 = t1
            # rho and the loaded_latency_ns rule, as in the generic loop.
            rho = (a0 + a1) / capacity if capacity > 0 else 1.0
            rho = rho if rho < max_utilization else max_utilization
            rho = rho if rho > 0.0 else 0.0
            new_latency = base_latency * (
                1.0 + queue_factor * rho / (1.0 - queue_saturation * rho)
            )
            latency = _DAMPING * latency + (1.0 - _DAMPING) * new_latency
        grants = [0.0] * len(streams)
        bursts = [s.burst_bw for s in streams]
        grants[i0] = a0
        grants[i1] = a1
        bursts[i0] = burst0
        bursts[i1] = burst1
        return _stream_grants(streams, grants, bursts, latency)

