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
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

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


@dataclass
class _StreamState:
    """Mutable progress of one placed kernel during co-run simulation."""

    pu_name: str
    profile: StandaloneProfile
    looping: bool
    phase_index: int = 0
    bytes_left: float = 0.0
    bytes_done: float = 0.0
    loops_done: int = 0
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        self.bytes_left = self.profile.phases[0].traffic_bytes

    @property
    def current_phase(self):
        return self.profile.phases[self.phase_index]

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    def standalone_seconds_done(self) -> float:
        """Standalone time equivalent of the work completed so far."""
        done = self.loops_done * self.profile.total_seconds
        for i, phase in enumerate(self.profile.phases):
            if i < self.phase_index:
                done += phase.seconds
        phase = self.current_phase
        fraction = 1.0 - self.bytes_left / phase.traffic_bytes
        return done + fraction * phase.seconds

    def advance(self, n_bytes: float, now: float) -> bool:
        """Consume ``n_bytes`` of the current phase, rolling phases over.

        Returns whether the current phase ended: the state moved to the
        next phase, started its next loop, or finished.
        """
        self.bytes_left -= n_bytes
        self.bytes_done += n_bytes
        if self.bytes_left > 1e-3:
            return False
        self.phase_index += 1
        if self.phase_index < len(self.profile.phases):
            self.bytes_left = self.current_phase.traffic_bytes
            return True
        if self.looping:
            self.loops_done += 1
            self.phase_index = 0
            self.bytes_left = self.current_phase.traffic_bytes
        else:
            if self.finished_at is None:
                self.finished_at = now
            self.phase_index = len(self.profile.phases) - 1
            self.bytes_left = 0.0
        return True


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
        Memoise ``memory.resolve`` on the active stream signature. The
        steady state is a pure function of the competing stream demands,
        and the active (PU, phase) set only changes at phase boundaries,
        so event steps between boundaries re-request identical
        signatures. Disable (``False``) to force a fresh fixed-point
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
        #: :func:`repro.workloads.roofline.calibrator_for_bandwidth`
        #: results by (PU, target_bw, traffic_gb, tolerance): a pure
        #: function of this engine's standalone profiles.
        self.calibrators: Dict[
            Tuple[str, float, float, float], Tuple[KernelSpec, float]
        ] = {}
        self._resolve_cache: Optional[
            Dict[Tuple[StreamDemand, ...], Tuple[StreamGrant, ...]]
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

    def _resolve(
        self, streams: List[StreamDemand]
    ) -> Tuple[StreamGrant, ...]:
        """``memory.resolve``, memoised on the active stream signature.

        ``StreamDemand`` is a frozen dataclass fully determined by the
        owning PU and the phase profile, so the tuple of active streams
        *is* the (PU, phase) signature of the event step.
        """
        if self._resolve_cache is None:
            return tuple(self.memory.resolve(streams))
        key = tuple(streams)
        grants = self._resolve_cache.get(key)
        if grants is None:
            grants = tuple(self.memory.resolve(streams))
            self._resolve_cache[key] = grants
            self.resolve_stats._misses.inc()
        else:
            self.resolve_stats._hits.inc()
        return grants

    # ------------------------------------------------------------------
    # Tracing helpers (only reached when a tracer is enabled)
    # ------------------------------------------------------------------
    def _trace_epoch(
        self,
        tracer,
        soc_track: str,
        pu_tracks: Dict[str, str],
        now: float,
        dt: float,
        step: int,
        runnable: List[str],
        grants: Tuple[StreamGrant, ...],
        misses_before: int,
    ) -> None:
        """Emit one epoch span plus per-PU arbitration events.

        Once-per-epoch hot path: uses the tracer's pre-frozen
        ``emit_*`` API with alphabetically ordered arg tuples and the
        track strings interned once per corun — no dict build or sort
        per emission. Epoch spans sit at depth 1 under the long-lived
        ``corun`` span.
        """
        resolve_hit = self.resolve_stats.misses == misses_before
        tracer.emit_span(
            "epoch",
            start=now,
            end=now + dt,
            track=soc_track,
            category="soc",
            args=(
                ("active", len(runnable)),
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
                args=(("streams", len(runnable)),),
                depth=2,
            )
        for name, grant in zip(runnable, grants):
            # The fairness decision of this epoch: a capped stream was
            # held below its demand by the allocator's max-min filling.
            tracer.emit_event(
                "grant",
                time=now,
                track=pu_tracks[name],
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

        states = {
            name: _StreamState(
                pu_name=name,
                profile=self.profile(kernel, name),
                looping=name in loop_set,
            )
            for name, kernel in placements.items()
        }
        order = list(placements)
        # One co-run stream per (PU, phase): what the resolve cache keys
        # on, built once per corun instead of once per epoch.
        phase_streams: Dict[str, List[StreamDemand]] = {}
        for name in order:
            pu = self.soc.pu(name)
            phase_streams[name] = [
                stream_for_phase(pu, phase)
                for phase in states[name].profile.phases
            ]

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
        pu_tracks = (
            {n: f"pu.{n}" for n in order} if trace_on else {}
        )
        steps = 0
        phase_transitions = 0
        hits_before = self.resolve_stats.hits
        misses_before = self.resolve_stats.misses
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

        now = 0.0
        timeline = []
        while now < max_seconds:
            active = [
                n for n in order if not states[n].finished
            ]
            runnable = [n for n in active if states[n].bytes_left > 0]
            if not runnable:
                break
            streams = [
                phase_streams[n][states[n].phase_index] for n in runnable
            ]
            if trace_on:
                step_misses = self.resolve_stats.misses
            grants = self._resolve(streams)
            rates = {
                n: max(g.granted, _MIN_RATE) for n, g in zip(runnable, grants)
            }
            if record_timeline:
                timeline.append(
                    TimelineSample(
                        time=now,
                        granted=tuple(sorted(rates.items())),
                    )
                )
            dt = min(
                states[n].bytes_left / 1e9 / rates[n] for n in runnable
            )
            dt = min(dt, max_seconds - now)
            if trace_on:
                self._trace_epoch(
                    tracer, soc_track, pu_tracks, now, dt, steps,
                    runnable, grants, step_misses,
                )
            now += dt
            steps += 1
            for n in runnable:
                state = states[n]
                ended = state.advance(rates[n] * 1e9 * dt, now)
                if ended and observing:
                    # A runnable kernel is unfinished before its advance,
                    # so a phase that ends either finishes the kernel or
                    # moves it to another phase or loop.
                    if state.finished:
                        if trace_on:
                            tracer.emit_event(
                                "kernel.finished",
                                time=now,
                                track=pu_tracks[n],
                                category="soc",
                                args=(("kernel", state.profile.kernel_name),),
                            )
                    else:
                        phase_transitions += 1
                        if trace_on:
                            tracer.emit_event(
                                "phase.transition",
                                time=now,
                                track=pu_tracks[n],
                                category="soc",
                                args=(
                                    ("loops_done", state.loops_done),
                                    ("phase", state.phase_index),
                                ),
                            )
            done_victims = [v for v in victims if states[v].finished]
            if until == "first" and done_victims:
                break
            if until == "all" and len(done_victims) == len(victims):
                break

        if corun_span is not None:
            corun_span.note(steps=steps)
            corun_span.finish(now)
            corun_span.close()
        if metrics_on:
            metrics = session.metrics
            metrics.counter("soc.coruns").inc()
            metrics.counter("soc.epochs").inc(steps)
            metrics.counter("soc.phase_transitions").inc(phase_transitions)
            metrics.counter("soc.resolve_cache.hits").inc(
                self.resolve_stats.hits - hits_before
            )
            metrics.counter("soc.resolve_cache.misses").inc(
                self.resolve_stats.misses - misses_before
            )

        outcomes = []
        for name in order:
            state = states[name]
            elapsed = state.finished_at if state.finished else now
            elapsed = elapsed if elapsed and elapsed > 0 else now
            achieved = state.bytes_done / 1e9 / elapsed if elapsed > 0 else 0.0
            outcomes.append(
                PUOutcome(
                    pu_name=name,
                    kernel_name=state.profile.kernel_name,
                    finished=state.finished,
                    elapsed=elapsed,
                    standalone_seconds=state.profile.total_seconds,
                    standalone_seconds_done=state.standalone_seconds_done(),
                    avg_achieved_bw=achieved,
                    avg_demand=state.profile.avg_demand,
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
