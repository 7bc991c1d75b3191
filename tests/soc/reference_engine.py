"""Reference copy of ``CoRunEngine.corun`` before its per-(PU, kernel) table.

``CoRunEngine.corun`` was rewritten to keep each placement's progress in
local lists and to key the resolve cache on interned stream ids, while
producing the same bits. This module keeps the earlier ``_StreamState``
and co-run loop verbatim (docstrings cut short), with the engine methods
they call, so ``test_engine_reference.py`` can compare the two with
``==``. It builds the live result classes, whose equality is exact float
equality on every field, and profiles kernels with the live
``profile_kernel``, which ``test_memsys_reference.py`` checks on its own.

One record differs from the earlier loop on purpose: without a resolve
cache every epoch is a solve, so its ``epoch`` span is flagged
``resolve_hit=False`` and followed by a ``memsys.resolve`` span, where
the earlier loop flagged it a hit and emitted none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.soc.engine import (
    CoRunResult,
    PUOutcome,
    ResolveCacheStats,
    TimelineSample,
)
from repro.soc.memsys import SharedMemorySystem, StreamDemand, StreamGrant
from repro.soc.pu import (
    StandaloneProfile,
    profile_kernel,
    stream_for_phase,
)
from repro.soc.spec import SoCSpec
from repro.workloads.kernel import KernelSpec

_MIN_RATE = 1e-12


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
        """Consume ``n_bytes`` of the current phase, rolling phases over."""
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


class ReferenceCoRunEngine:
    """``CoRunEngine`` as it was before the co-run loop was rewritten."""

    def __init__(
        self,
        soc: SoCSpec,
        resolve_cache: bool = True,
        tracer=None,
    ):
        self.soc = soc
        self.memory = SharedMemorySystem(soc.peak_bw, soc.mc)
        self._profiles: Dict[Tuple[str, KernelSpec], StandaloneProfile] = {}
        self._resolve_cache: Optional[
            Dict[Tuple[StreamDemand, ...], Tuple[StreamGrant, ...]]
        ] = {} if resolve_cache else None
        self.metrics = MetricsRegistry()
        self.resolve_stats = ResolveCacheStats(self.metrics)
        self._tracer = tracer

    def profile(self, kernel: KernelSpec, pu_name: str) -> StandaloneProfile:
        """Standalone profile of ``kernel`` on the named PU (cached)."""
        key = (pu_name, kernel)
        profile = self._profiles.get(key)
        if profile is None:
            pu = self.soc.pu(pu_name)
            profile = profile_kernel(pu, kernel, self.memory)
            self._profiles[key] = profile
        return profile

    def _resolve(
        self, streams: List[StreamDemand]
    ) -> Tuple[StreamGrant, ...]:
        """``memory.resolve``, memoised on the active stream signature."""
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
        """Emit one epoch span plus per-PU arbitration events."""
        # Without a cache every epoch solves: the one intended change to
        # the earlier loop's records.
        resolve_hit = (
            self._resolve_cache is not None
            and self.resolve_stats.misses == misses_before
        )
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

    def corun(
        self,
        placements: Mapping[str, KernelSpec],
        looping: Iterable[str] = (),
        until: str = "first",
        max_seconds: float = 3600.0,
        record_timeline: bool = False,
    ) -> CoRunResult:
        """Simulate kernels co-running on their assigned PUs."""
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
        phase_streams: Dict[str, List[StreamDemand]] = {}
        for name in order:
            pu = self.soc.pu(name)
            phase_streams[name] = [
                stream_for_phase(pu, phase)
                for phase in states[name].profile.phases
            ]

        session = obs_runtime.active()
        tracer = self._tracer if self._tracer is not None else session.tracer
        trace_on = tracer.enabled
        metrics_on = session.metrics.enabled
        observing = trace_on or metrics_on
        soc_track = f"soc.{self.soc.name}"
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
