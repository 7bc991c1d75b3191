"""Differential test of the co-run loop.

``CoRunEngine.corun`` keeps one table entry per placed (PU, kernel),
with each phase's stream interned to a small int, keys the resolve
cache on the tuple of active stream ids, keeps each placement's
progress in local lists and adds its resolve-cache counts once per
call. It must give the same bits as the loop it replaced, so each
result is compared with ``==`` against the verbatim earlier code in
``reference_engine.py``: ``CoRunResult`` equality is exact float
equality on every field of every outcome and timeline sample. The
resolve-cache hit and miss counts each call adds, the records a traced
call emits and the counters a metrics session gathers must be equal
too.

Each example runs two co-runs on one engine of each kind, so the second
finds the placement table and the resolve cache warm. Kernels come from
a pool of two, the second sometimes a reordering of the first's phases,
whose streams on a PU equal the first's and so share their ids.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationError
from repro.obs import runtime as obs_runtime
from repro.obs.tracer import Tracer
from repro.soc.configs import snapdragon_855, xavier_agx
from repro.soc.engine import CoRunEngine
from repro.workloads.kernel import KernelSpec, Phase

from tests.soc.reference_engine import ReferenceCoRunEngine

SOCS = {soc.name: soc for soc in (xavier_agx(), snapdragon_855())}

DIFFERENTIAL = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def phases(draw, index):
    # Traffic within 10x and a bounded intensity keep the looping
    # kernels to a few hundred epochs per co-run.
    traffic = draw(st.floats(5e7, 5e8))
    return Phase(
        name=f"p{index}",
        flops=draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))) * traffic,
        traffic_bytes=traffic,
        locality=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
    )


@st.composite
def kernel_pools(draw):
    first = KernelSpec(
        name="a",
        phases=tuple(
            draw(phases(i)) for i in range(draw(st.integers(1, 4)))
        ),
    )
    if draw(st.booleans()):
        second_phases = draw(st.permutations(first.phases))
    else:
        second_phases = tuple(
            draw(phases(i)) for i in range(draw(st.integers(1, 4)))
        )
    return (first, KernelSpec(name="b", phases=tuple(second_phases)))


@st.composite
def coruns(draw, soc, pool):
    names = [pu.name for pu in soc.pus]
    pus = draw(
        st.lists(
            st.sampled_from(names),
            min_size=1,
            max_size=min(3, len(names)),
            unique=True,
        )
    )
    return dict(
        placements={pu: draw(st.sampled_from(pool)) for pu in pus},
        # At least one victim.
        looping=draw(st.sets(st.sampled_from(pus), max_size=len(pus) - 1)),
        until=draw(st.sampled_from(["first", "all"])),
        # Small guards truncate some runs.
        max_seconds=draw(
            st.one_of(st.just(3600.0), st.floats(1e-4, 0.02))
        ),
        record_timeline=draw(st.booleans()),
    )


def observed_corun(engine, kwargs, trace, metrics):
    """The result, resolve-cache deltas and session records of a corun."""
    stats = engine.resolve_stats
    hits, misses = stats.hits, stats.misses
    with obs_runtime.session(trace=trace, metrics=metrics) as session:
        result = engine.corun(**kwargs)
    records = None
    if trace:
        buffer = session.tracer.buffer
        records = (list(buffer.events), list(buffer.spans))
    return (
        result,
        (stats.hits - hits, stats.misses - misses),
        records,
        session.metrics.snapshot().counters,
    )


@DIFFERENTIAL
@given(data=st.data())
def test_corun_matches_reference(data):
    soc = SOCS[data.draw(st.sampled_from(sorted(SOCS)))]
    pool = data.draw(kernel_pools())
    cache = data.draw(st.booleans())
    trace, metrics = data.draw(
        st.sampled_from([(False, False), (False, True), (True, True)])
    )
    live = CoRunEngine(soc, resolve_cache=cache)
    reference = ReferenceCoRunEngine(soc, resolve_cache=cache)
    for _ in range(2):
        kwargs = data.draw(coruns(soc, pool))
        got = observed_corun(live, kwargs, trace, metrics)
        want = observed_corun(reference, kwargs, trace, metrics)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]
        assert got[3] == want[3]


class _FailingMemory:
    """A memory system whose resolve fails once ``budget`` calls ran."""

    def __init__(self, memory, budget):
        self._memory = memory
        self._budget = budget

    def __getattr__(self, name):
        return getattr(self._memory, name)

    def resolve(self, streams):
        if self._budget == 0:
            raise SimulationError("resolve failed")
        self._budget -= 1
        return self._memory.resolve(streams)


#: A two-phase GPU victim against a looping two-phase CPU kernel.
RAISING_PLACEMENTS = {
    "gpu": KernelSpec(
        name="v",
        phases=(
            Phase("v0", flops=1e10, traffic_bytes=1e9),
            Phase("v1", flops=0.0, traffic_bytes=5e8),
        ),
    ),
    "cpu": KernelSpec(
        name="p",
        phases=(
            Phase("p0", flops=0.0, traffic_bytes=5e7),
            Phase("p1", flops=4e8, traffic_bytes=2e7),
        ),
    ),
}


@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_counts_survive_a_raising_corun(budget):
    """A corun whose resolve raises has still added the hits and misses
    of the epochs it ran, as counting each epoch did: a solve that
    raised is not counted."""
    soc = SOCS["xavier-agx"]
    placements = RAISING_PLACEMENTS
    full = CoRunEngine(soc)
    full.corun(placements, looping={"cpu"})
    assert full.resolve_stats.misses > budget
    counts = []
    for engine in (CoRunEngine(soc), ReferenceCoRunEngine(soc)):
        engine.memory = _FailingMemory(engine.memory, budget)
        with pytest.raises(SimulationError, match="resolve failed"):
            engine.corun(placements, looping={"cpu"})
        counts.append((engine.resolve_stats.hits, engine.resolve_stats.misses))
    assert counts[0] == counts[1]
    assert counts[0][1] == budget
    if budget == 3:
        # The pressure kernel has looped: epochs between the solves hit.
        assert counts[0][0] > 0


def test_a_raising_corun_ends_its_span():
    """A corun whose resolve raises still emits its ``corun`` span, ended
    at the time the run reached, so the tracer's depth on the SoC track
    drops back and the next corun's span is at depth 0 again."""
    tracer = Tracer()
    engine = CoRunEngine(SOCS["xavier-agx"], tracer=tracer)
    memory = engine.memory
    engine.memory = _FailingMemory(memory, 1)
    with pytest.raises(SimulationError, match="resolve failed"):
        engine.corun(RAISING_PLACEMENTS, looping={"cpu"})
    engine.memory = memory
    engine.corun(RAISING_PLACEMENTS, looping={"cpu"})
    spans = [s for s in tracer.buffer.spans if s.name == "corun"]
    assert [s.depth for s in spans] == [0, 0]
    failed, done = spans
    assert dict(failed.args)["steps"] >= 1
    assert 0.0 < failed.end < done.end


def _traced_raising_corun(cache):
    tracer = Tracer()
    engine = CoRunEngine(
        SOCS["xavier-agx"], resolve_cache=cache, tracer=tracer
    )
    engine.corun(RAISING_PLACEMENTS, looping={"cpu"})
    return engine, tracer.buffer


def test_epochs_without_a_cache_are_traced_as_solves():
    """With the resolve cache off every epoch runs ``memory.resolve``, so
    no epoch is flagged a hit and each has its ``memsys.resolve`` span."""
    engine, buffer = _traced_raising_corun(cache=False)
    epochs = [s for s in buffer.spans if s.name == "epoch"]
    solves = [s for s in buffer.spans if s.name == "memsys.resolve"]
    assert len(epochs) > 1
    assert not any(dict(s.args)["resolve_hit"] for s in epochs)
    assert [s.start for s in solves] == [s.start for s in epochs]
    assert engine.resolve_stats.calls == 0


def test_epochs_with_a_cache_trace_the_cache_test():
    """With the cache on, an epoch is a hit exactly when the cache served
    it, and only the misses emit a ``memsys.resolve`` span."""
    engine, buffer = _traced_raising_corun(cache=True)
    epochs = [s for s in buffer.spans if s.name == "epoch"]
    solves = [s for s in buffer.spans if s.name == "memsys.resolve"]
    flags = [dict(s.args)["resolve_hit"] for s in epochs]
    stats = engine.resolve_stats
    assert flags.count(True) == stats.hits
    assert flags.count(False) == stats.misses
    assert stats.hits > 0 and stats.misses > 0
    assert [s.start for s in solves] == [
        s.start for s, hit in zip(epochs, flags) if not hit
    ]


def test_session_counts_survive_a_raising_corun():
    """When ``memory.resolve`` raises, the session still gets the epochs,
    phase transitions, hits and misses of the epochs that ran, equal to
    the engine's ``resolve_stats``; only a co-run that returned counts in
    ``soc.coruns``."""
    engine = CoRunEngine(SOCS["xavier-agx"])
    engine.memory = _FailingMemory(engine.memory, 2)
    with obs_runtime.session(metrics=True) as session:
        with pytest.raises(SimulationError, match="resolve failed"):
            engine.corun(RAISING_PLACEMENTS, looping={"cpu"})
    counters = dict(session.metrics.snapshot().counters)
    stats = engine.resolve_stats
    assert stats.misses == 2 and stats.hits > 0
    assert counters["soc.resolve_cache.hits"] == stats.hits
    assert counters["soc.resolve_cache.misses"] == stats.misses
    assert counters["soc.epochs"] == stats.hits + stats.misses
    assert counters["soc.phase_transitions"] > 0
    assert "soc.coruns" not in counters
