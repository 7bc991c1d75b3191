"""The CMP memory-system simulator (event-driven engine).

Couples the core front ends (:mod:`repro.dram.cores`), the address mapper
and channel/bank state, and a scheduling policy into one discrete-event
simulation. Used by the Fig. 5 / Table 3 experiments.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.dram.address import AddressMapper
from repro.dram.bank import ChannelState
from repro.dram.cores import CoreConfig, CoreState, staggered_base
from repro.dram.metrics import DramMetrics
from repro.dram.request import Request
from repro.dram.schedulers import Scheduler, make_scheduler
from repro.dram.timing import DDR4_3200, DramTiming
from repro.errors import SimulationError
from repro.obs import runtime as obs_runtime
from repro.units import left_sum

_GEN, _SERVE, _COMPLETE = 0, 1, 2

_NS_TO_S = 1e-9
"""Trace records carry seconds; the DRAM timeline is nanoseconds."""

#: Queueing-latency histogram edges (ns) for the session metrics
#: registry; fixed so per-worker histograms merge bucket-wise.
LATENCY_BUCKETS_NS = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0,
                      3200.0, 6400.0)


def _row_outcome(channel: ChannelState, request: Request) -> str:
    """Classify an access against current bank state (no side effects).

    ``hit`` — the row is open; ``miss`` — the bank is closed (first
    activation); ``conflict`` — another row occupies the row buffer and
    must be precharged first.
    """
    open_row = channel.banks[request.bank].open_row
    if open_row == request.row:
        return "hit"
    if open_row is None:
        return "miss"
    return "conflict"


def _export_metrics(
    registry, latencies: List[float], row_hits: int, misses: int
) -> None:
    """Add one run's dispatches to the session metrics registry.

    Called once per run. Integer counts are exact as floats and the
    histogram adds the latencies in dispatch order, so the snapshot is
    the one per-request recording would give.
    """
    dispatched = len(latencies)
    if not dispatched:
        return
    registry.counter("dram.requests").inc(dispatched)
    for outcome, count in (
        ("conflict", dispatched - row_hits - misses),
        ("hit", row_hits),
        ("miss", misses),
    ):
        if count:
            registry.counter(f"dram.row_{outcome}").inc(count)
    histogram = registry.histogram("dram.latency_ns", LATENCY_BUCKETS_NS)
    for latency in latencies:
        histogram.observe(latency)


class BufferWaitQueue:
    """FIFO of cores stalled on a full controller request buffer.

    Enqueueing is idempotent — a core appears at most once, tracked by
    its ``buffer_waiting`` flag instead of an O(n) membership scan —
    and :meth:`pop` releases cores in the order they blocked, so buffer
    space frees up fairly.
    """

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        self._waiters: "deque[CoreState]" = deque()

    def __len__(self) -> int:
        return len(self._waiters)

    def add(self, state: CoreState) -> None:
        if not state.buffer_waiting:
            state.buffer_waiting = True
            self._waiters.append(state)

    def pop(self) -> Optional[CoreState]:
        if not self._waiters:
            return None
        state = self._waiters.popleft()
        state.buffer_waiting = False
        return state


@dataclass(frozen=True)
class CoreResult:
    """Per-core outcome of one run."""

    index: int
    demand_gbps: float
    issued: int
    completed: int
    finish_ns: Optional[float]
    achieved_gbps: float


@dataclass(frozen=True)
class GroupResult:
    """Aggregated outcome of a set of cores (one 'program group')."""

    cores: Tuple[int, ...]
    demand_gbps: float
    achieved_gbps: float
    finish_ns: Optional[float]


@dataclass(frozen=True)
class SimResult:
    """Outcome of one DRAM simulation."""

    policy: str
    elapsed_ns: float
    cores: Tuple[CoreResult, ...]
    row_hit_rate: float
    effective_bw_gbps: float
    mean_latency_ns: float
    p50_latency_ns: float = 0.0
    p99_latency_ns: float = 0.0

    def core(self, index: int) -> CoreResult:
        return self.cores[index]

    def group(self, indices: Sequence[int]) -> GroupResult:
        members = [self.cores[i] for i in indices]
        finishes = [c.finish_ns for c in members]
        finish = max(finishes) if all(f is not None for f in finishes) else None
        return GroupResult(
            cores=tuple(indices),
            demand_gbps=left_sum(c.demand_gbps for c in members),
            achieved_gbps=left_sum(c.achieved_gbps for c in members),
            finish_ns=finish,
        )


class CMPSystem:
    """A 16-core (by default) CMP sharing one DRAM controller.

    Parameters
    ----------
    timing:
        DRAM configuration; defaults to the paper's DDR4-3200 (Table 1).
    policy:
        Scheduling policy name (``fcfs``, ``frfcfs``, ``atlas``, ``tcm``,
        ``sms``).
    seed:
        Seed for stochastic policies (TCM shuffle, SMS probabilistic
        stage); the engine itself is deterministic.
    queue_factory:
        Channel queue container. ``None`` (the default) builds the
        policy's own queue (``Scheduler.queue_class``), which indexes
        just what the policy's ``select`` reads;
        :class:`~repro.dram.queue.ScanQueue` makes any policy scan every
        request instead (the reference the equivalence tests compare
        against — results are bit-identical). Another policy's queue
        class lacks the methods this policy's ``select`` calls.
    tracer:
        Explicit tracer override; by default each :meth:`run` resolves
        the active :mod:`repro.obs.runtime` session. Tracing records the
        request lifecycle (enqueue → scheduler selection → row
        hit/miss/conflict → completion) without perturbing results:
        traced and untraced runs are bit-identical.
    """

    def __init__(
        self,
        timing: DramTiming = DDR4_3200,
        policy: str = "frfcfs",
        seed: int = 0,
        queue_factory: Optional[Callable[[], object]] = None,
        tracer=None,
    ):
        self.timing = timing
        self.policy_name = policy
        self.seed = seed
        self.queue_factory = queue_factory
        self.mapper = AddressMapper(timing)
        self._tracer = tracer

    # ------------------------------------------------------------------
    def run(
        self,
        cores: Sequence[CoreConfig],
        stop_cores: Optional[Set[int]] = None,
        max_ns: float = 1e9,
    ) -> SimResult:
        """Simulate until completion (or until ``stop_cores`` finish).

        Parameters
        ----------
        cores:
            Traffic configuration per core.
        stop_cores:
            If given, a non-empty set of indices into ``cores``: the run
            ends once every listed core finished; other cores act as
            background pressure and may be left unfinished.
        max_ns:
            Simulated-time guard: the run stops at the first event
            later than ``max_ns`` without processing it, and reports
            ``max_ns`` as its elapsed time.
        """
        if not cores:
            raise SimulationError("at least one core required")
        all_cores = set(range(len(cores)))
        must_finish = all_cores if stop_cores is None else set(stop_cores)
        if not must_finish or not must_finish <= all_cores:
            raise SimulationError(
                "stop_cores must be a non-empty set of core indices "
                f"below {len(cores)}, got {stop_cores!r}"
            )
        scheduler = make_scheduler(
            self.policy_name, n_cores=len(cores), seed=self.seed
        )
        states = [CoreState(index=i, config=c) for i, c in enumerate(cores)]
        channels = [
            ChannelState(index=i, timing=self.timing)
            for i in range(self.timing.channels)
        ]
        queue_factory = self.queue_factory
        if queue_factory is None:
            queue_factory = scheduler.queue_class
        queues = [queue_factory() for _ in channels]
        # Requests per channel queue: the loop tests these instead of
        # the queues, whose emptiness would cost a __len__ call.
        queued = [0] * len(channels)
        serve_scheduled = [False] * len(channels)
        buffer_used = 0
        buffer_cap = self.timing.request_buffer
        buffer_waiters = BufferWaitQueue()
        # Its deque, so each dispatch tests for stalled cores without a
        # Python-level len().
        waiting = buffer_waiters._waiters
        # Run tallies, turned into DramMetrics after the loop. The
        # latency sum is a running one in dispatch order (see DramMetrics).
        row_hits = 0
        latency_sum = 0.0
        latencies: List[float] = []

        # Observability: one session lookup per run; every emission in
        # the event loop is guarded by a plain attribute check.
        session = obs_runtime.active()
        tracer = self._tracer if self._tracer is not None else session.tracer
        trace_on = tracer.enabled
        obs_metrics = session.metrics
        metrics_on = obs_metrics.enabled
        run_span = None
        if trace_on:
            run_span = tracer.span(
                "dram.run",
                start=0.0,
                track=f"dram.{self.policy_name}",
                category="dram",
                policy=self.policy_name,
                cores=len(cores),
            )
            # Per-request emission is the hottest trace path in the
            # repo (one enqueue event + one select event + one span per
            # request). Track names and the static policy tag are
            # interned once per run and args are passed as pre-sorted
            # tuples through the tracer's emit_* fast path — identical
            # records to the keyword API, without the per-record dict
            # build and sort.
            ch_tracks = [f"dram.ch{i}" for i in range(len(channels))]
            policy_pair = ("policy", self.policy_name)

        # Heap entries are (time, tie, kind, payload); the tie counter
        # orders same-time events by push order. Pushes are inlined:
        # a GEN for a core is pushed only while none is pending
        # (``gen_pending``), a SERVE for a channel only while none is
        # scheduled and its queue is non-empty.
        events: List[Tuple[float, int, int, int]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        tie = itertools.count().__next__
        next_request_id = itertools.count().__next__
        select = scheduler.select
        # The base hook does nothing; only an override is called.
        on_dispatch = (
            scheduler.on_dispatch
            if type(scheduler).on_dispatch is not Scheduler.on_dispatch
            else None
        )
        # Each request's access, hoisted per core. A trace core replays
        # its records (CoreState.next_access); a synthetic core's i-th
        # access is at its first address + 64 i, which successive
        # take_address calls return, and a write when i % period ==
        # period - 1 (CoreConfig.is_write_index).
        core_records = [
            None if c.trace is None else c.trace.records for c in cores
        ]
        write_periods = [c.write_period for c in cores]
        first_addresses = [s.next_address for s in states]
        # AddressMapper.decode's shifts and masks. Addresses are never
        # negative (CoreConfig and TraceRecord reject negative ones), so
        # the inlined decode skips decode's sign check.
        mapper = self.mapper
        line_bits = mapper.LINE_BITS
        channel_mask = mapper.channel_mask
        bank_shift, bank_mask = mapper.bank_shift, mapper.bank_mask
        row_shift = mapper.row_shift

        for state in states:
            state.gen_pending = True
            heappush(events, (0.0, tie(), _GEN, state.index))

        now = 0.0
        while events:
            now, _, kind, payload = heappop(events)
            if now > max_ns:
                # The guard stops the run before this event happens, so
                # the simulated time that elapsed is max_ns.
                now = max_ns
                break
            if kind == _GEN:
                state = states[payload]
                state.gen_pending = False
                config = state.config
                total = config.total_requests
                issued = state.issued
                if issued >= total:
                    continue
                if now + 1e-12 < state.next_gen_ns:
                    # Woken early (completion/buffer space): respect the
                    # demand pacing — cores never run ahead of their rate.
                    state.gen_pending = True
                    heappush(events, (state.next_gen_ns, tie(), _GEN, payload))
                    continue
                mshr = config.mshr
                inflight = state.inflight
                records = core_records[payload]
                period = write_periods[payload]
                first_address = first_addresses[payload]
                first = issued
                stop = first + config.burst_lines
                if stop > total:
                    stop = total
                # Channels to wake, in the order first touched; each is
                # marked scheduled as it joins.
                wake = []
                # Each pass through the loop either blocks the core or
                # issues a request, which unblocks it; the loop runs at
                # least once, so unblocking once here is the same.
                blocked = False
                while issued < stop:
                    if records is None:
                        address = first_address + 64 * issued
                        is_write = (
                            period > 0 and issued % period == period - 1
                        )
                    else:
                        record = records[issued]
                        address = record.address
                        is_write = record.is_write
                    # Only reads take an MSHR; writes are posted.
                    if inflight >= mshr and not is_write:
                        blocked = True
                        break
                    if buffer_used >= buffer_cap:
                        blocked = True
                        buffer_waiters.add(state)
                        break
                    ch = (address >> line_bits) & channel_mask
                    row = address >> row_shift
                    bank = ((address >> bank_shift) ^ row) & bank_mask
                    request = Request(
                        next_request_id(), payload, ch, bank, row, now, is_write
                    )
                    queues[ch].append(request)
                    queued[ch] += 1
                    if trace_on:
                        tracer.emit_event(
                            "req.enqueue",
                            time=now * _NS_TO_S,
                            track=ch_tracks[ch],
                            category="dram",
                            args=(
                                ("bank", bank),
                                ("core", payload),
                                ("req_id", request.req_id),
                                ("row", row),
                                ("write", is_write),
                            ),
                        )
                    buffer_used += 1
                    issued += 1
                    if not is_write:
                        inflight += 1
                    if not serve_scheduled[ch]:
                        serve_scheduled[ch] = True
                        wake.append(ch)
                state.issued = issued
                state.inflight = inflight
                state.blocked = blocked
                # In channel order, so the heap tie-break counters never
                # depend on the order the burst touched the channels.
                wake.sort()
                for ch in wake:
                    bus_free = channels[ch].bus_free_at
                    heappush(events, (
                        bus_free if bus_free > now else now, tie(), _SERVE, ch
                    ))
                issued_now = issued - first
                if issued_now:
                    next_gen = state.next_gen_ns
                    state.next_gen_ns = next_gen = (
                        (next_gen if next_gen > now else now)
                        + issued_now * config.interval_ns
                    )
                    if issued < total and not blocked:
                        state.gen_pending = True
                        heappush(events, (next_gen, tie(), _GEN, payload))
            elif kind == _SERVE:
                ch = payload
                serve_scheduled[ch] = False
                if not queued[ch]:
                    continue
                channel = channels[ch]
                # refresh_if_due checks again; this skips the call on
                # every serve between refreshes.
                refreshed = (
                    now >= channel.next_refresh_ns
                    and channel.refresh_if_due(now)
                )
                if refreshed:
                    if trace_on:
                        tracer.emit_event(
                            "refresh",
                            time=now * _NS_TO_S,
                            track=ch_tracks[ch],
                            category="dram",
                        )
                    if metrics_on:
                        obs_metrics.counter("dram.refreshes").inc()
                bus_free = channel.bus_free_at
                if refreshed or now + 1e-12 < bus_free:
                    # Serve again once the bus is free.
                    serve_scheduled[ch] = True
                    heappush(events, (
                        bus_free if bus_free > now else now, tie(), _SERVE, ch
                    ))
                    continue
                queue = queues[ch]
                request = select(queue, channel, now)
                if trace_on:
                    outcome = _row_outcome(channel, request)
                queue.remove(request)
                queued[ch] -= 1
                buffer_used -= 1
                completion = channel.dispatch(request, now)
                if on_dispatch is not None:
                    on_dispatch(request, now)
                if trace_on:
                    tracer.emit_event(
                        "sched.select",
                        time=now * _NS_TO_S,
                        track=ch_tracks[ch],
                        category="dram",
                        args=(
                            policy_pair,
                            ("queue_len", queued[ch] + 1),
                            ("req_id", request.req_id),
                        ),
                    )
                    tracer.emit_span(
                        "req",
                        start=request.arrival_ns * _NS_TO_S,
                        end=completion * _NS_TO_S,
                        track=ch_tracks[ch],
                        category="dram",
                        args=(
                            ("bank", request.bank),
                            ("core", request.core),
                            ("outcome", outcome),
                            ("req_id", request.req_id),
                            ("row", request.row),
                            ("scheduled_ns", now),
                            ("write", request.is_write),
                        ),
                    )
                if request.row_hit:
                    row_hits += 1
                latency = completion - request.arrival_ns
                latency_sum += latency
                latencies.append(latency)
                if request.is_write:
                    # Posted write: the core already moved on; account
                    # the completion here without a core event.
                    wstate = states[request.core]
                    wstate.completed += 1
                    if (
                        wstate.completed >= wstate.config.total_requests
                        and wstate.finish_ns is None
                    ):
                        wstate.finish_ns = now
                        if all(states[i].finished for i in must_finish):
                            break
                else:
                    heappush(events, (completion, tie(), _COMPLETE, request.core))
                if queued[ch]:
                    serve_scheduled[ch] = True
                    bus_free = channel.bus_free_at
                    heappush(events, (
                        bus_free if bus_free > now else now, tie(), _SERVE, ch
                    ))
                while waiting and buffer_used < buffer_cap:
                    waiter = buffer_waiters.pop()
                    if waiter.blocked and not waiter.gen_pending:
                        waiter.gen_pending = True
                        heappush(events, (now, tie(), _GEN, waiter.index))
            else:  # _COMPLETE
                state = states[payload]
                state.inflight -= 1
                state.completed += 1
                total = state.config.total_requests
                if state.completed >= total and state.finish_ns is None:
                    state.finish_ns = now
                    if all(states[i].finished for i in must_finish):
                        break
                if state.blocked and state.issued < total:
                    state.blocked = False
                    if not state.gen_pending:
                        state.gen_pending = True
                        heappush(events, (now, tie(), _GEN, payload))

        elapsed = now
        if run_span is not None:
            run_span.finish(elapsed * _NS_TO_S)
            run_span.close()
        if metrics_on:
            _export_metrics(
                obs_metrics,
                latencies,
                row_hits,
                sum(channel.misses for channel in channels),
            )
            obs_metrics.counter("dram.runs").inc()
        metrics = DramMetrics(
            row_hits=row_hits,
            sum_queue_latency_ns=latency_sum,
            latencies_ns=latencies,
        )
        results = tuple(
            CoreResult(
                index=s.index,
                demand_gbps=s.config.demand_gbps,
                issued=s.issued,
                completed=s.completed,
                finish_ns=s.finish_ns,
                achieved_gbps=(
                    s.completed * 64.0 / elapsed if elapsed > 0 else 0.0
                ),
            )
            for s in states
        )
        p50, p99 = metrics.latency_percentiles((50.0, 99.0))
        return SimResult(
            policy=self.policy_name,
            elapsed_ns=elapsed,
            cores=results,
            row_hit_rate=metrics.row_hit_rate,
            effective_bw_gbps=metrics.effective_bw_gbps(elapsed),
            mean_latency_ns=metrics.mean_latency_ns,
            p50_latency_ns=p50,
            p99_latency_ns=p99,
        )

    # ------------------------------------------------------------------
    def group_configs(
        self,
        group_demand_gbps: float,
        n_cores: int,
        requests_per_core: int,
        mshr: int = 16,
        index_offset: int = 0,
    ) -> List[CoreConfig]:
        """Split a group bandwidth demand evenly across cores."""
        if n_cores <= 0:
            raise SimulationError("n_cores must be positive")
        per_core = group_demand_gbps / n_cores
        banks = self.timing.banks_per_channel
        return [
            CoreConfig(
                demand_gbps=per_core,
                total_requests=requests_per_core,
                mshr=mshr,
                address_base=staggered_base(index_offset + i, banks),
            )
            for i in range(n_cores)
        ]
