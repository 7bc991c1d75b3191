"""Differential test of the co-run loops.

``CoRunEngine.corun`` keeps one table entry per placed (PU, kernel),
with each phase's stream interned to a small int, and keys the resolve
cache on the tuple of active stream ids. Two placements that run until
the first finish take ``_corun_pair``, which keeps each placement's
progress in scalars and reuses the last epoch's grants while no phase
changes; every other co-run takes ``_corun_any``, which keeps it in
lists. Both add their resolve-cache counts once per call. They must
give the same bits as the loop they replaced, so each result is
compared with ``==`` against the verbatim earlier code in
``reference_engine.py``: ``CoRunResult`` equality is exact float
equality on every field of every outcome and timeline sample. The
resolve-cache hit and miss counts each call adds, the records a traced
call emits and the counters a metrics session gathers must be equal
too.

Each example runs two co-runs on one engine of each kind, so the second
finds the placement table and the resolve cache warm. Kernels come from
a pool of two, the second sometimes a reordering of the first's phases,
whose streams on a PU equal the first's and so share their ids. The
pinned examples reach the pair loop's cases the draws miss: a looping
kernel placed first or second, of one phase or two, and two victims
that finish in one epoch. The raising co-runs run once in each loop.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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


@st.composite
def cases(draw):
    """An SoC, cache and session setting, and two co-runs on it."""
    soc_name = draw(st.sampled_from(sorted(SOCS)))
    pool = draw(kernel_pools())
    cache = draw(st.booleans())
    trace, metrics = draw(
        st.sampled_from([(False, False), (False, True), (True, True)])
    )
    runs = [draw(coruns(SOCS[soc_name], pool)) for _ in range(2)]
    return soc_name, cache, trace, metrics, runs


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


def _run(placements, looping=(), until="first"):
    return dict(
        placements=placements,
        looping=set(looping),
        until=until,
        max_seconds=3600.0,
        record_timeline=True,
    )


#: A two-phase victim and two looping kernels, of one phase and of two.
VICTIM = KernelSpec(
    name="v",
    phases=(
        Phase("v0", flops=1e10, traffic_bytes=1e9),
        Phase("v1", flops=0.0, traffic_bytes=5e8),
    ),
)
ONE_PHASE = KernelSpec(
    name="o", phases=(Phase("o0", flops=0.0, traffic_bytes=5e7),)
)
TWO_PHASES = KernelSpec(
    name="p",
    phases=(
        Phase("p0", flops=0.0, traffic_bytes=5e7),
        Phase("p1", flops=4e8, traffic_bytes=2e7),
    ),
)
#: Two one-phase victims whose traffic makes them finish in one epoch.
SAME_EPOCH = {
    "gpu": KernelSpec(
        name="a", phases=(Phase("a0", flops=8e8, traffic_bytes=2e8),)
    ),
    "cpu": KernelSpec(
        name="b",
        phases=(
            Phase(
                "b0", flops=108755053.97178307,
                traffic_bytes=108755053.97178307,
            ),
        ),
    ),
}


#: Cases the draws miss. The looping PU placed first, then second, of
#: one phase and of two, with the cache on, where the pair loop reuses a
#: one-phase kernel's key; without the cache, which it then never does,
#: two victims until the first finish that finish in one epoch, and a
#: looping one-phase kernel.
PINNED_CASES = [
    (
        "xavier-agx", True, True, True,
        [
            _run({"cpu": ONE_PHASE, "gpu": VICTIM}, {"cpu"}),
            _run({"cpu": TWO_PHASES, "gpu": VICTIM}, {"cpu"}, "all"),
        ],
    ),
    (
        "xavier-agx", True, True, True,
        [
            _run({"gpu": VICTIM, "cpu": ONE_PHASE}, {"cpu"}, "all"),
            _run({"gpu": VICTIM, "cpu": TWO_PHASES}, {"cpu"}),
        ],
    ),
    (
        "xavier-agx", False, True, True,
        [
            _run(SAME_EPOCH),
            _run({"gpu": VICTIM, "cpu": ONE_PHASE}, {"cpu"}),
        ],
    ),
]


def pinned(test):
    for case in PINNED_CASES:
        test = example(case=case)(test)
    return test


@DIFFERENTIAL
@given(case=cases())
@pinned
def test_corun_matches_reference(case):
    soc_name, cache, trace, metrics, runs = case
    soc = SOCS[soc_name]
    live = CoRunEngine(soc, resolve_cache=cache)
    reference = ReferenceCoRunEngine(soc, resolve_cache=cache)
    for kwargs in runs:
        got = observed_corun(live, kwargs, trace, metrics)
        want = observed_corun(reference, kwargs, trace, metrics)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]
        assert got[3] == want[3]


class GeneralLoopEngine(CoRunEngine):
    """Runs every co-run, the two-placement ones too, in the general
    loop."""

    _corun_pair = CoRunEngine._corun_any


@DIFFERENTIAL
@given(case=cases())
@pinned
def test_pair_loop_matches_general_loop(case):
    """The live general loop is the pair loop's second oracle, so a
    change to the one that misses the other fails here."""
    soc_name, cache, trace, metrics, runs = case
    soc = SOCS[soc_name]
    live = CoRunEngine(soc, resolve_cache=cache)
    general = GeneralLoopEngine(soc, resolve_cache=cache)
    for kwargs in runs:
        got = observed_corun(live, kwargs, trace, metrics)
        want = observed_corun(general, kwargs, trace, metrics)
        assert got == want


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


#: The victim under looping ``TWO_PHASES`` on the CPU, which takes the
#: engine's two-placement loop, and under that and a looping one-phase
#: DLA kernel, which takes its general loop.
TWO_PU = dict(placements={"gpu": VICTIM, "cpu": TWO_PHASES}, looping={"cpu"})
THREE_PU = dict(
    placements={
        "gpu": VICTIM,
        "cpu": TWO_PHASES,
        "dla": KernelSpec(
            name="d", phases=(Phase("d0", flops=2e9, traffic_bytes=3e7),)
        ),
    },
    looping={"cpu", "dla"},
)
RAISING_CORUNS = [
    pytest.param(TWO_PU, id="two-pu"),
    pytest.param(THREE_PU, id="three-pu"),
]


@pytest.mark.parametrize(
    "corun, budget",
    [pytest.param(TWO_PU, budget, id=str(budget)) for budget in range(4)]
    + [
        pytest.param(THREE_PU, budget, id=f"three-pu-{budget}")
        for budget in range(4)
    ],
)
def test_counts_survive_a_raising_corun(corun, budget):
    """A corun whose resolve raises has still added the hits and misses
    of the epochs it ran, as counting each epoch did: a solve that
    raised is not counted."""
    soc = SOCS["xavier-agx"]
    full = CoRunEngine(soc)
    full.corun(**corun)
    assert full.resolve_stats.misses > budget
    counts = []
    for engine in (CoRunEngine(soc), ReferenceCoRunEngine(soc)):
        engine.memory = _FailingMemory(engine.memory, budget)
        with pytest.raises(SimulationError, match="resolve failed"):
            engine.corun(**corun)
        counts.append((engine.resolve_stats.hits, engine.resolve_stats.misses))
    assert counts[0] == counts[1]
    assert counts[0][1] == budget
    if budget == 3:
        # The pressure kernel has looped: epochs between the solves hit.
        assert counts[0][0] > 0


@pytest.mark.parametrize("corun", RAISING_CORUNS)
def test_a_raising_corun_ends_its_span(corun):
    """A corun whose resolve raises still emits its ``corun`` span, ended
    at the time the run reached, so the tracer's depth on the SoC track
    drops back and the next corun's span is at depth 0 again."""
    tracer = Tracer()
    engine = CoRunEngine(SOCS["xavier-agx"], tracer=tracer)
    memory = engine.memory
    engine.memory = _FailingMemory(memory, 1)
    with pytest.raises(SimulationError, match="resolve failed"):
        engine.corun(**corun)
    engine.memory = memory
    engine.corun(**corun)
    spans = [s for s in tracer.buffer.spans if s.name == "corun"]
    assert [s.depth for s in spans] == [0, 0]
    failed, done = spans
    assert dict(failed.args)["steps"] >= 1
    assert 0.0 < failed.end < done.end


def _traced_raising_corun(corun, cache):
    tracer = Tracer()
    engine = CoRunEngine(
        SOCS["xavier-agx"], resolve_cache=cache, tracer=tracer
    )
    engine.corun(**corun)
    return engine, tracer.buffer


@pytest.mark.parametrize("corun", RAISING_CORUNS)
def test_epochs_without_a_cache_are_traced_as_solves(corun):
    """With the resolve cache off every epoch runs ``memory.resolve``, so
    no epoch is flagged a hit and each has its ``memsys.resolve`` span."""
    engine, buffer = _traced_raising_corun(corun, cache=False)
    epochs = [s for s in buffer.spans if s.name == "epoch"]
    solves = [s for s in buffer.spans if s.name == "memsys.resolve"]
    assert len(epochs) > 1
    assert not any(dict(s.args)["resolve_hit"] for s in epochs)
    assert [s.start for s in solves] == [s.start for s in epochs]
    assert engine.resolve_stats.calls == 0


@pytest.mark.parametrize("corun", RAISING_CORUNS)
def test_epochs_with_a_cache_trace_the_cache_test(corun):
    """With the cache on, an epoch is a hit exactly when the cache served
    it, and only the misses emit a ``memsys.resolve`` span."""
    engine, buffer = _traced_raising_corun(corun, cache=True)
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


@pytest.mark.parametrize("corun", RAISING_CORUNS)
def test_session_counts_survive_a_raising_corun(corun):
    """When ``memory.resolve`` raises, the session still gets the epochs,
    phase transitions, hits and misses of the epochs that ran, equal to
    the engine's ``resolve_stats``; only a co-run that returned counts in
    ``soc.coruns``."""
    engine = CoRunEngine(SOCS["xavier-agx"])
    engine.memory = _FailingMemory(engine.memory, 2)
    with obs_runtime.session(metrics=True) as session:
        with pytest.raises(SimulationError, match="resolve failed"):
            engine.corun(**corun)
    counters = dict(session.metrics.snapshot().counters)
    stats = engine.resolve_stats
    assert stats.misses == 2 and stats.hits > 0
    assert counters["soc.resolve_cache.hits"] == stats.hits
    assert counters["soc.resolve_cache.misses"] == stats.misses
    assert counters["soc.epochs"] == stats.hits + stats.misses
    assert counters["soc.phase_transitions"] > 0
    assert "soc.coruns" not in counters
