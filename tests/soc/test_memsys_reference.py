"""Differential test of the co-run and standalone solvers.

To save interpreter work, ``SharedMemorySystem.resolve`` inlines the
documented rules (``pu_burst_bw``, ``time_per_gb``,
``loaded_latency_ns``). Exactly two active streams run the pair loop,
``_resolve_pair``, which also writes out ``_allocate``'s water-fill on
scalars and computes each stream's L-independent terms once per call;
any other count runs ``_resolve_streams``, which calls ``_allocate``.
``profile_phase`` inlines all three rules in its loop too
(``loaded_latency_ns`` read from ``mem.behavior``, ``pu_burst_bw`` with
the three-way ``min``, ``time_per_gb`` with its error and exposure
term), calling ``time_per_gb`` only for its starting rate. The inlined
code must return the same bits, so each result is compared with ``==``
against the verbatim earlier code in ``reference_memsys.py``:
``StreamGrant`` and ``PhaseProfile`` equality is exact float equality
on every field. The drawn stream sets run every statement of the pair
loop and take each of its ``if`` and ``while`` tests both ways; the
``else`` arm of its ``floors > 0`` guard needs a capacity <= 0, which
``resolve`` never passes. They reach its floors-exceed-capacity scale
only where the scale is 1; ``TestAllocation`` in ``test_memsys.py``
checks that scale, and the order of the two ``remaining`` updates.

``profile_phase`` also leaves its 40-iteration loop once an iteration
gives (burst, rate) back bit for bit; the copy runs all 40.
``test_profile_phase_exits_at_its_exact_fixed_point`` pins a phase that
leaves early and one that runs all 40 and counts the iterations run.

Both sides run in this interpreter, and both add floats with
:func:`repro.units.left_sum`, the arithmetic ``sum()`` had before Python
3.12, so the comparison is of the same arithmetic on every supported
Python, and a digest recorded on one version holds on the others.

The first change that alters solver results on purpose (ROADMAP item 1,
the root-find) deletes this test and ``reference_memsys.py``. The
allocation tests in ``test_memsys.py`` do not use the copy and stay.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.soc.configs import snapdragon_855, xavier_agx
from repro.soc.engine import CoRunEngine
from repro.soc.memsys import SharedMemorySystem, StreamDemand
from repro.soc.multimc import MCPartition, split_socs_memory
from repro.soc import pu as pu_module
from repro.soc.pu import profile_phase, stream_for_phase
from repro.workloads.kernel import KernelSpec, Phase

from tests.soc import reference_memsys as reference

SOCS = {soc.name: soc for soc in (xavier_agx(), snapdragon_855())}

DIFFERENTIAL = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def behaviors(draw):
    """Both SoCs' controllers, or a variant of one with drawn fairness
    and queueing constants."""
    base = SOCS[draw(st.sampled_from(sorted(SOCS)))].mc
    if draw(st.booleans()):
        return base
    guarantee = draw(st.floats(0.02, 0.5))
    single = draw(st.floats(0.5, 1.0))
    return replace(
        base,
        single_stream_efficiency=single,
        multi_stream_efficiency=draw(st.floats(0.2, 1.0)) * single,
        guarantee_fraction=guarantee,
        cap_fraction=draw(
            st.one_of(
                st.just(1.0),
                st.floats(guarantee, 1.0, exclude_max=True),
            )
        ),
        base_latency_ns=draw(st.floats(20.0, 200.0)),
        queue_factor=draw(st.floats(0.0, 3.0)),
        queue_saturation=draw(st.floats(0.0, 0.99)),
        locality_exponent=draw(st.floats(0.0, 2.0)),
        max_utilization=draw(st.floats(0.5, 0.999)),
    )


peaks = st.one_of(
    st.sampled_from(sorted(soc.peak_bw for soc in SOCS.values())),
    st.floats(5.0, 300.0),
)


@st.composite
def stream_demands(draw, name):
    max_bw = draw(st.floats(2.0, 200.0))
    return StreamDemand(
        name=name,
        demand=draw(st.one_of(st.just(0.0), st.floats(0.0, 200.0))),
        compute_time_per_gb=draw(
            st.one_of(st.just(0.0), st.floats(0.0, 0.2), st.floats(0.0, 5.0))
        ),
        # 1e-12 reaches the _EPS_BW floor on the burst bandwidth.
        burst_bw=draw(
            st.one_of(st.just(1e-12), st.floats(0.1, 1.5 * max_bw))
        ),
        overlap=draw(st.floats(0.0, 1.0)),
        mlp_lines=draw(st.floats(5.0, 2000.0)),
        max_bw=max_bw,
        latency_sensitivity=draw(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        ),
        latency_exposure=draw(
            st.one_of(st.just(0.0), st.floats(0.0, 0.01))
        ),
        locality=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
        arbitration_weight=draw(
            st.one_of(st.just(1.0), st.floats(0.25, 4.0))
        ),
    )


@st.composite
def stream_sets(draw):
    n = draw(st.integers(1, 4))
    return [draw(stream_demands(f"s{i}")) for i in range(n)]


@st.composite
def phases(draw):
    traffic = draw(st.floats(1e6, 2e9))
    return Phase(
        name="p",
        flops=draw(st.floats(0.0, 200.0)) * traffic,
        traffic_bytes=traffic,
        locality=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
    )


@DIFFERENTIAL
@given(peak=peaks, behavior=behaviors(), streams=stream_sets())
def test_resolve_matches_reference(peak, behavior, streams):
    got = SharedMemorySystem(peak, behavior).resolve(streams)
    want = reference.ReferenceMemorySystem(peak, behavior).resolve(streams)
    assert got == want


@pytest.mark.parametrize("soc_name", sorted(SOCS))
@DIFFERENTIAL
@given(data=st.data())
def test_profile_phase_and_corun_streams_match_reference(soc_name, data):
    """Every PU of the SoC profiles a drawn phase identically, and the
    co-run of the resulting streams resolves identically."""
    soc = SOCS[soc_name]
    behavior = data.draw(st.one_of(st.just(soc.mc), behaviors()))
    mem = SharedMemorySystem(soc.peak_bw, behavior)
    ref = reference.ReferenceMemorySystem(soc.peak_bw, behavior)
    streams = []
    for pu in soc.pus:
        phase = data.draw(phases())
        got = profile_phase(pu, phase, mem)
        assert got == reference.profile_phase(pu, phase, ref)
        streams.append(stream_for_phase(pu, got))
    assert mem.resolve(streams) == ref.resolve(streams)


def reference_partitioned_resolve(memory, streams):
    """The partitioned system's per-controller resolve, on the copy."""
    grants = [None] * len(streams)
    for partition in memory.partitions:
        indices = [
            i
            for i, s in enumerate(streams)
            if memory.partition_of(s.name) == partition.name
        ]
        system = reference.ReferenceMemorySystem(
            memory.peak_bw * partition.peak_fraction, memory.behavior
        )
        subset = [streams[i] for i in indices]
        for i, grant in zip(indices, system.resolve(subset)):
            grants[i] = grant
    return grants


@pytest.fixture(scope="module")
def partitioned_engine():
    soc = SOCS["xavier-agx"]
    memory = split_socs_memory(
        soc,
        (
            MCPartition(name="mc0", pu_names=("gpu",), peak_fraction=0.4),
            MCPartition(
                name="mc1", pu_names=("cpu", "dla"), peak_fraction=0.6
            ),
        ),
    )
    return CoRunEngine(soc, memory_system=memory)


@DIFFERENTIAL
@given(data=st.data())
def test_partitioned_engine_matches_reference(partitioned_engine, data):
    """``profile_phase`` reads a ``PartitionedMemorySystem``'s
    ``behavior`` where the copy asks it for its loaded latency; profiles
    and per-controller grants are unchanged."""
    engine = partitioned_engine
    streams = []
    for pu in engine.soc.pus:
        kernel = KernelSpec(name="k", phases=(data.draw(phases()),))
        got = engine.profile(kernel, pu.name).phases[0]
        assert got == reference.profile_phase(
            pu, kernel.phases[0], engine.memory
        )
        streams.append(stream_for_phase(pu, got))
    assert engine.memory.resolve(streams) == reference_partitioned_resolve(
        engine.memory, streams
    )


class _CountingRange:
    """``range`` for one module's loops: counts the iterations run and
    whether a loop ran out rather than breaking."""

    def __init__(self):
        self.iterations = 0
        self.ran_out = False

    def __call__(self, stop):
        for i in range(stop):
            self.iterations += 1
            yield i
        self.ran_out = True


@pytest.mark.parametrize(
    "pu_name, phase, iterations",
    [
        # The start is the fixed point: the first iteration repeats it.
        ("dla", Phase("main", flops=5e8, traffic_bytes=1e9), 1),
        # cfd's K2: (burst, rate) repeats at iteration 8.
        (
            "cpu",
            Phase("K2", flops=3.5e8, traffic_bytes=1.25e8, locality=0.9),
            8,
        ),
        # cfd's K1 never repeats exactly: all 40 run, none breaks.
        (
            "cpu",
            Phase("K1", flops=1.5e8, traffic_bytes=1.25e8, locality=0.95),
            40,
        ),
    ],
)
def test_profile_phase_exits_at_its_exact_fixed_point(
    monkeypatch, pu_name, phase, iterations
):
    """The iterations ``profile_phase`` runs for three phases on the
    Xavier, and its profile against the copy's, which runs all 40."""
    soc = SOCS["xavier-agx"]
    pu = soc.pu(pu_name)
    counter = _CountingRange()
    monkeypatch.setattr(pu_module, "range", counter, raising=False)
    got = profile_phase(pu, phase, SharedMemorySystem(soc.peak_bw, soc.mc))
    assert counter.iterations == iterations
    assert counter.ran_out == (iterations == 40)
    assert got == reference.profile_phase(
        pu, phase, reference.ReferenceMemorySystem(soc.peak_bw, soc.mc)
    )
