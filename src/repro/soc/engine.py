"""Co-run simulation engine.

:class:`CoRunEngine` places kernels on PUs of an SoC and simulates their
concurrent execution against the shared memory system. Time advances in
exact event steps (to the next phase/kernel completion at current rates),
re-resolving the memory steady state whenever the set of active phases
changes. This is the "ground truth machine" every model in the library is
validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.soc.memsys import SharedMemorySystem, StreamDemand, StreamGrant
from repro.soc.pu import (
    StandaloneProfile,
    profile_kernel,
    stream_for_phase,
)
from repro.soc.spec import SoCSpec
from repro.workloads.kernel import KernelSpec

_MIN_RATE = 1e-12


def _rates(grants: Tuple[StreamGrant, ...]) -> Tuple[float, ...]:
    """The rate each stream advances at: its grant, floored at
    ``_MIN_RATE`` (the comparison ``max(granted, _MIN_RATE)`` makes)."""
    return tuple([
        _MIN_RATE if _MIN_RATE > g.granted else g.granted for g in grants
    ])


class ResolveCacheStats:
    """Live view of the engine's steady-state resolve-cache counters.

    Backed by the engine's :class:`repro.obs.metrics.MetricsRegistry`
    rather than ad-hoc integers, so the counters export uniformly with
    every other metric and — unlike a cache-entry count — survive
    :meth:`CoRunEngine.clear_resolve_cache` (clears are themselves
    counted). Counters are cumulative over the engine's lifetime.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._hits = registry.counter("soc.resolve_cache.hits")
        self._misses = registry.counter("soc.resolve_cache.misses")
        self._clears = registry.counter("soc.resolve_cache.clears")

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def clears(self) -> int:
        return int(self._clears.value)

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.calls if self.calls else 0.0


class _Placement(NamedTuple):
    """What ``corun`` reads of one kernel placed on one PU."""

    profile: StandaloneProfile
    #: Per phase: its co-run stream, that stream's interned id and the
    #: phase's traffic in bytes.
    streams: Tuple[StreamDemand, ...]
    stream_ids: Tuple[int, ...]
    traffic: Tuple[float, ...]


@dataclass(frozen=True)
class PUOutcome:
    """Per-PU outcome of a co-run simulation."""

    pu_name: str
    kernel_name: str
    finished: bool
    elapsed: float
    standalone_seconds: float
    standalone_seconds_done: float
    avg_achieved_bw: float
    avg_demand: float

    @property
    def relative_speed(self) -> float:
        """Achieved fraction of standalone speed (the paper's RS)."""
        if self.elapsed <= 0:
            return 1.0
        return min(self.standalone_seconds_done / self.elapsed, 1.0)

    @property
    def bw_satisfaction(self) -> float:
        """Achieved over demanded bandwidth (Fig. 2's y-axis)."""
        if self.avg_demand <= 0:
            return 1.0
        return min(self.avg_achieved_bw / self.avg_demand, 1.0)


@dataclass(frozen=True)
class TimelineSample:
    """Per-PU granted bandwidth at one simulation step."""

    time: float
    granted: Tuple[Tuple[str, float], ...]

    def bw(self, pu_name: str) -> float:
        for name, value in self.granted:
            if name == pu_name:
                return value
        raise SimulationError(f"no timeline entry for PU {pu_name!r}")


@dataclass(frozen=True)
class CoRunResult:
    """Outcome of one co-run simulation across all placed PUs."""

    soc_name: str
    outcomes: Tuple[PUOutcome, ...]
    elapsed: float
    timeline: Tuple[TimelineSample, ...] = ()

    def outcome(self, pu_name: str) -> PUOutcome:
        for o in self.outcomes:
            if o.pu_name == pu_name:
                return o
        raise SimulationError(f"no outcome for PU {pu_name!r}")

    def relative_speed(self, pu_name: str) -> float:
        return self.outcome(pu_name).relative_speed


class CoRunEngine:
    """Simulates standalone and co-located kernel executions on an SoC.

    Parameters
    ----------
    soc:
        The SoC specification.
    memory_system:
        Optional override of the shared memory model — e.g. a
        :class:`repro.soc.multimc.PartitionedMemorySystem` for multi-MC
        designs. Defaults to the single-controller model.
    resolve_cache:
        Memoise ``memory.resolve`` on the active stream signature, the
        tuple of the epoch's interned stream ids. The steady state is a
        pure function of the competing stream demands, and the active
        (PU, phase) set only changes at phase boundaries, so event steps
        between boundaries re-request identical signatures. Disable (``False``) to force a fresh fixed-point
        solve per event step when debugging the memory model; results
        are bit-identical either way. Statistics are exposed via
        :attr:`resolve_stats` (a view over :attr:`metrics`).
    tracer:
        Explicit tracer override. By default each :meth:`corun` call
        resolves the active :mod:`repro.obs.runtime` session's tracer,
        so cached engines pick up tracing sessions activated after they
        were built. Tracing never changes results: traced and untraced
        runs are bit-identical (asserted by the determinism harness).
    """

    def __init__(
        self,
        soc: SoCSpec,
        memory_system=None,
        resolve_cache: bool = True,
        tracer=None,
    ):
        self.soc = soc
        self.memory = (
            memory_system
            if memory_system is not None
            else SharedMemorySystem(soc.peak_bw, soc.mc)
        )
        self._profiles: Dict[Tuple[str, KernelSpec], StandaloneProfile] = {}
        #: What ``corun`` reads of each placed (PU, kernel), built on its
        #: first placement: the profile, and per phase its co-run stream,
        #: that stream's id and its traffic.
        self._placements: Dict[Tuple[str, KernelSpec], _Placement] = {}
        #: Every co-run stream this engine has built, each interned once
        #: to a small int. Equal streams share an id, so a tuple of ids
        #: is equal exactly when the tuple of streams would be.
        self._stream_ids: Dict[StreamDemand, int] = {}
        #: :func:`repro.workloads.roofline.calibrator_for_bandwidth`
        #: results by (PU, target_bw, traffic_gb, tolerance): a pure
        #: function of this engine's standalone profiles.
        self.calibrators: Dict[
            Tuple[str, float, float, float], Tuple[KernelSpec, float]
        ] = {}
        #: Grants and the rates ``corun`` advances at, by the tuple of
        #: the epoch's active stream ids.
        self._resolve_cache: Optional[
            Dict[
                Tuple[int, ...],
                Tuple[Tuple[StreamGrant, ...], Tuple[float, ...]],
            ]
        ] = {} if resolve_cache else None
        self.metrics = MetricsRegistry()
        self.resolve_stats = ResolveCacheStats(self.metrics)
        self._tracer = tracer

    # ------------------------------------------------------------------
    # Standalone
    # ------------------------------------------------------------------
    def profile(self, kernel: KernelSpec, pu_name: str) -> StandaloneProfile:
        """Standalone profile of ``kernel`` on the named PU (cached)."""
        key = (pu_name, kernel)
        profile = self._profiles.get(key)
        if profile is None:
            pu = self.soc.pu(pu_name)
            profile = profile_kernel(pu, kernel, self.memory)
            self._profiles[key] = profile
        return profile

    def standalone_seconds(self, kernel: KernelSpec, pu_name: str) -> float:
        return self.profile(kernel, pu_name).total_seconds

    def standalone_demand(self, kernel: KernelSpec, pu_name: str) -> float:
        """Time-averaged standalone BW demand (GB/s), the PCCS input."""
        return self.profile(kernel, pu_name).avg_demand

    # ------------------------------------------------------------------
    # Steady-state resolve cache
    # ------------------------------------------------------------------
    def clear_resolve_cache(self) -> None:
        """Drop memoised steady states.

        Hit/miss counters are cumulative and deliberately survive the
        clear (it is recorded in ``soc.resolve_cache.clears``), so a
        sweep that clears between configurations still reports its true
        lifetime hit rate.
        """
        if self._resolve_cache is not None:
            self._resolve_cache.clear()
            self.resolve_stats._clears.inc()

    def _placement(self, pu_name: str, kernel: KernelSpec) -> _Placement:
        """The table entry of ``kernel`` on the named PU (built once)."""
        key = (pu_name, kernel)
        entry = self._placements.get(key)
        if entry is None:
            profile = self.profile(kernel, pu_name)
            pu = self.soc.pu(pu_name)
            streams = tuple(stream_for_phase(pu, p) for p in profile.phases)
            ids = self._stream_ids
            entry = _Placement(
                profile,
                streams,
                tuple(ids.setdefault(s, len(ids)) for s in streams),
                tuple(p.traffic_bytes for p in profile.phases),
            )
            self._placements[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Tracing helpers (only reached when a tracer is enabled)
    # ------------------------------------------------------------------
    def _trace_epoch(
        self,
        tracer,
        soc_track: str,
        tracks: List[str],
        now: float,
        dt: float,
        step: int,
        grants: Tuple[StreamGrant, ...],
        resolve_hit: bool,
    ) -> None:
        """Emit one epoch span plus per-PU arbitration events.

        Once-per-epoch hot path: uses the tracer's pre-frozen
        ``emit_*`` API with alphabetically ordered arg tuples and the
        track strings interned once per corun — no dict build or sort
        per emission. Epoch spans sit at depth 1 under the long-lived
        ``corun`` span. ``tracks`` are the runnable PUs' tracks.
        """
        tracer.emit_span(
            "epoch",
            start=now,
            end=now + dt,
            track=soc_track,
            category="soc",
            args=(
                ("active", len(tracks)),
                ("resolve_hit", resolve_hit),
                ("step", step),
            ),
            depth=1,
        )
        if not resolve_hit:
            # A real fixed-point solve happened this step (zero sim
            # duration: resolution is instantaneous in simulated time,
            # but the profiler attributes the solve count per phase).
            tracer.emit_span(
                "memsys.resolve",
                start=now,
                end=now,
                track=soc_track,
                category="soc",
                args=(("streams", len(tracks)),),
                depth=2,
            )
        for track, grant in zip(tracks, grants):
            # The fairness decision of this epoch: a capped stream was
            # held below its demand by the allocator's max-min filling.
            tracer.emit_event(
                "grant",
                time=now,
                track=track,
                category="soc",
                args=(
                    ("capped", grant.granted + _MIN_RATE < grant.demand),
                    ("demand", grant.demand),
                    ("granted", grant.granted),
                    ("latency_ns", grant.latency_ns),
                ),
            )

    # ------------------------------------------------------------------
    # Co-run
    # ------------------------------------------------------------------
    def corun(
        self,
        placements: Mapping[str, KernelSpec],
        looping: Iterable[str] = (),
        until: str = "first",
        max_seconds: float = 3600.0,
        record_timeline: bool = False,
    ) -> CoRunResult:
        """Simulate kernels co-running on their assigned PUs.

        Parameters
        ----------
        placements:
            Map from PU name to the kernel it runs.
        looping:
            PUs whose kernels restart when finished (external pressure
            generators). Looping PUs never terminate the simulation.
        until:
            ``"first"`` stops when the first non-looping kernel finishes
            (the paper's Section 4.2 methodology); ``"all"`` runs until
            every non-looping kernel finishes.
        max_seconds:
            Simulated-time guard against degenerate configurations.
        record_timeline:
            Record per-step granted bandwidths (phase dynamics for
            multi-phase programs); available as ``result.timeline``.

        Returns
        -------
        CoRunResult
            Per-PU relative speeds and achieved bandwidths.
        """
        if not placements:
            raise SimulationError("placements must not be empty")
        if until not in ("first", "all"):
            raise SimulationError(f"unknown until mode {until!r}")
        loop_set = set(looping)
        unknown = loop_set - set(placements)
        if unknown:
            raise SimulationError(f"looping PUs not placed: {sorted(unknown)}")
        victims = [name for name in placements if name not in loop_set]
        if not victims:
            raise SimulationError("at least one non-looping kernel required")

        order = list(placements)
        n = len(order)
        entries = [
            self._placement(name, kernel)
            for name, kernel in placements.items()
        ]
        loops = [name in loop_set for name in order]
        streams_of = [entry.streams for entry in entries]
        ids_of = [entry.stream_ids for entry in entries]
        traffic_of = [entry.traffic for entry in entries]
        # Each placement's progress, by its index in ``order``: its
        # phase, the bytes left in that phase, the bytes done, the whole
        # loops done and when it finished (None while it runs).
        phase_at = [0] * n
        bytes_left = [traffic[0] for traffic in traffic_of]
        bytes_done = [0.0] * n
        loops_done = [0] * n
        finished_at: List[Optional[float]] = [None] * n
        live = list(range(n))
        finished_victims = 0
        stop_at_first = until == "first"

        # Observability: resolved once per corun (not per step), so the
        # disabled path costs one lookup here and an `if` per emission.
        session = obs_runtime.active()
        tracer = self._tracer if self._tracer is not None else session.tracer
        trace_on = tracer.enabled
        metrics_on = session.metrics.enabled
        observing = trace_on or metrics_on
        soc_track = f"soc.{self.soc.name}"
        # Track strings interned once per corun so per-epoch emissions
        # never re-format them (satellite of the obs v2 overhead work).
        tracks = [f"pu.{name}" for name in order] if trace_on else []
        steps = 0
        phase_transitions = 0
        corun_span = None
        if trace_on:
            corun_span = tracer.span(
                "corun",
                start=0.0,
                track=soc_track,
                category="soc",
                pus=",".join(order),
                until=until,
            )

        cache = self._resolve_cache
        resolve = self.memory.resolve
        hits = misses = 0
        now = 0.0
        timeline = []
        try:
            while now < max_seconds:
                runnable = [i for i in live if bytes_left[i] > 0]
                if not runnable:
                    break
                # The traced ``resolve_hit``: this epoch's state came from
                # the cache. Without a cache every epoch solves.
                hit = False
                if cache is None:
                    grants = tuple(resolve(
                        [streams_of[i][phase_at[i]] for i in runnable]
                    ))
                    rates = _rates(grants)
                else:
                    key = tuple([ids_of[i][phase_at[i]] for i in runnable])
                    cached = cache.get(key)
                    if cached is None:
                        grants = tuple(resolve(
                            [streams_of[i][phase_at[i]] for i in runnable]
                        ))
                        rates = _rates(grants)
                        cache[key] = (grants, rates)
                        misses += 1
                    else:
                        hits += 1
                        hit = True
                        grants, rates = cached
                if record_timeline:
                    timeline.append(
                        TimelineSample(
                            time=now,
                            granted=tuple(sorted(
                                zip([order[i] for i in runnable], rates)
                            )),
                        )
                    )
                dt = min([
                    bytes_left[i] / 1e9 / rate
                    for i, rate in zip(runnable, rates)
                ])
                dt = min(dt, max_seconds - now)
                if trace_on:
                    self._trace_epoch(
                        tracer, soc_track, [tracks[i] for i in runnable],
                        now, dt, steps, grants, hit,
                    )
                now += dt
                steps += 1
                for i, rate in zip(runnable, rates):
                    n_bytes = rate * 1e9 * dt
                    left = bytes_left[i] - n_bytes
                    bytes_done[i] += n_bytes
                    if left > 1e-3:
                        bytes_left[i] = left
                        continue
                    # The phase ended: the kernel moves to its next
                    # phase, starts its next loop or finishes.
                    traffic = traffic_of[i]
                    phase = phase_at[i] + 1
                    if phase < len(traffic):
                        phase_at[i] = phase
                        bytes_left[i] = traffic[phase]
                    elif loops[i]:
                        loops_done[i] += 1
                        phase_at[i] = 0
                        bytes_left[i] = traffic[0]
                    else:
                        finished_at[i] = now
                        bytes_left[i] = 0.0
                        live.remove(i)
                        finished_victims += 1
                        if trace_on:
                            tracer.emit_event(
                                "kernel.finished",
                                time=now,
                                track=tracks[i],
                                category="soc",
                                args=(
                                    ("kernel", entries[i].profile.kernel_name),
                                ),
                            )
                        continue
                    if observing:
                        phase_transitions += 1
                        if trace_on:
                            tracer.emit_event(
                                "phase.transition",
                                time=now,
                                track=tracks[i],
                                category="soc",
                                args=(
                                    ("loops_done", loops_done[i]),
                                    ("phase", phase_at[i]),
                                ),
                            )
                if finished_victims and (
                    stop_at_first or finished_victims == len(victims)
                ):
                    break
        finally:
            # Once per call, so the counters read what counting each
            # epoch would give, also after a raise; a raise also ends
            # the span, at the time the run reached.
            self.resolve_stats._hits.inc(hits)
            self.resolve_stats._misses.inc(misses)
            if metrics_on:
                metrics = session.metrics
                metrics.counter("soc.epochs").inc(steps)
                metrics.counter("soc.phase_transitions").inc(
                    phase_transitions
                )
                metrics.counter("soc.resolve_cache.hits").inc(hits)
                metrics.counter("soc.resolve_cache.misses").inc(misses)
            if corun_span is not None:
                corun_span.note(steps=steps)
                corun_span.finish(now)
                corun_span.close()

        if metrics_on:
            # Only a co-run that returned counts as one.
            session.metrics.counter("soc.coruns").inc()

        outcomes = []
        for i, name in enumerate(order):
            profile = entries[i].profile
            done_at = finished_at[i]
            elapsed = done_at if done_at is not None else now
            elapsed = elapsed if elapsed and elapsed > 0 else now
            achieved = bytes_done[i] / 1e9 / elapsed if elapsed > 0 else 0.0
            # The standalone time equivalent of the work done.
            phase = phase_at[i]
            done = loops_done[i] * profile.total_seconds
            for before in profile.phases[:phase]:
                done += before.seconds
            current = profile.phases[phase]
            fraction = 1.0 - bytes_left[i] / current.traffic_bytes
            outcomes.append(
                PUOutcome(
                    pu_name=name,
                    kernel_name=profile.kernel_name,
                    finished=done_at is not None,
                    elapsed=elapsed,
                    standalone_seconds=profile.total_seconds,
                    standalone_seconds_done=done + fraction * current.seconds,
                    avg_achieved_bw=achieved,
                    avg_demand=profile.avg_demand,
                )
            )
        return CoRunResult(
            soc_name=self.soc.name,
            outcomes=tuple(outcomes),
            elapsed=now,
            timeline=tuple(timeline),
        )

    def relative_speed(
        self,
        victim_pu: str,
        victim_kernel: KernelSpec,
        pressure: Mapping[str, KernelSpec],
    ) -> float:
        """Relative speed of a victim kernel under looping pressure."""
        placements = dict(pressure)
        placements[victim_pu] = victim_kernel
        result = self.corun(
            placements, looping=set(pressure), until="first"
        )
        return result.relative_speed(victim_pu)
