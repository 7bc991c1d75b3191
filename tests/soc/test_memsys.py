"""Shared memory system: effective BW, allocation, latency, resolve."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.soc.configs import snapdragon_855, xavier_agx
from repro.soc.memsys import (
    _EPS_BW,
    SharedMemorySystem,
    StreamDemand,
    _active_streams,
    time_per_gb,
)
from repro.soc.spec import MCBehavior

PEAK = 136.5


def stream(demand, name="s", locality=1.0, mlp=1400.0, max_bw=130.0,
           tc=0.0001, overlap=0.95, sens=0.5, weight=1.0, exposure=0.0):
    return StreamDemand(
        name=name,
        demand=demand,
        compute_time_per_gb=tc,
        burst_bw=max_bw,
        overlap=overlap,
        mlp_lines=mlp,
        max_bw=max_bw,
        latency_sensitivity=sens,
        latency_exposure=exposure,
        locality=locality,
        arbitration_weight=weight,
    )


@pytest.fixture()
def mem() -> SharedMemorySystem:
    return SharedMemorySystem(PEAK)


class TestTimePerGB:
    def test_full_overlap_is_roofline_max(self):
        assert time_per_gb(0.02, 100.0, 1.0) == pytest.approx(
            max(0.02, 0.01)
        )

    def test_no_overlap_is_sum(self):
        assert time_per_gb(0.02, 100.0, 0.0) == pytest.approx(0.03)

    def test_partial_overlap_between(self):
        t = time_per_gb(0.02, 100.0, 0.5)
        assert max(0.02, 0.01) < t < 0.03

    def test_exposure_term_adds_time(self):
        base = time_per_gb(0.02, 100.0, 1.0)
        exposed = time_per_gb(0.02, 100.0, 1.0, 0.001, 500.0)
        assert exposed > base

    def test_exposure_negligible_for_memory_bound(self):
        """Streaming phases hide latency; the exposure term is weighted
        by compute-boundedness."""
        memory_bound = time_per_gb(1e-6, 100.0, 1.0, 0.001, 500.0)
        assert memory_bound == pytest.approx(0.01, rel=0.01)

    def test_zero_burst_rejected(self):
        with pytest.raises(SimulationError):
            time_per_gb(0.02, 0.0, 1.0)


class TestEffectiveBW:
    def test_single_stream_gets_single_efficiency(self, mem):
        eff = mem.effective_bw([stream(60.0)])
        assert eff == pytest.approx(
            PEAK * mem.behavior.single_stream_efficiency
        )

    def test_mixing_reduces_capacity(self, mem):
        one = mem.effective_bw([stream(120.0)])
        two = mem.effective_bw([stream(60.0, "a"), stream(60.0, "b")])
        assert two < one

    def test_poor_locality_reduces_capacity(self, mem):
        good = mem.effective_bw([stream(60.0, locality=1.0)])
        bad = mem.effective_bw([stream(60.0, locality=0.7)])
        assert bad < good

    def test_never_below_multi_floor_times_locality(self, mem):
        streams = [stream(70.0, "a"), stream(70.0, "b")]
        eff = mem.effective_bw(streams)
        assert eff >= PEAK * mem.behavior.multi_stream_efficiency * 0.99

    @given(st.floats(10.0, 130.0), st.floats(0.1, 130.0), st.floats(0.1, 130.0))
    @settings(max_examples=100)
    def test_monotone_in_aggressor_demand(self, x, y1, y2):
        """More aggressor demand never *raises* effective bandwidth."""
        mem = SharedMemorySystem(PEAK)
        lo, hi = min(y1, y2), max(y1, y2)
        e_lo = mem.effective_bw([stream(x, "v"), stream(lo, "a")])
        e_hi = mem.effective_bw([stream(x, "v"), stream(hi, "a")])
        assert e_hi <= e_lo + 1e-9


class TestLatency:
    def test_unloaded_is_base(self, mem):
        assert mem.loaded_latency_ns(0.0) == mem.behavior.base_latency_ns

    def test_monotone_in_utilization(self, mem):
        lats = [mem.loaded_latency_ns(r) for r in (0.1, 0.5, 0.9, 0.99)]
        assert lats == sorted(lats)

    def test_clipped_at_max_utilization(self, mem):
        assert mem.loaded_latency_ns(5.0) == mem.loaded_latency_ns(1.0)

    def test_pu_burst_bw_flat_below_saturation(self, mem):
        bw = mem.pu_burst_bw(100.0, 300.0, 1.0, 100.0)  # L_sat = 192 ns
        assert bw == 100.0

    def test_pu_burst_bw_decays_beyond_saturation(self, mem):
        l_sat = 300.0 * 64 / 100.0
        bw = mem.pu_burst_bw(100.0, 300.0, 1.0, l_sat * 2)
        assert bw == pytest.approx(50.0)

    def test_sensitivity_softens_decay(self, mem):
        l_sat = 300.0 * 64 / 100.0
        hard = mem.pu_burst_bw(100.0, 300.0, 1.0, l_sat * 2)
        soft = mem.pu_burst_bw(100.0, 300.0, 0.3, l_sat * 2)
        assert soft > hard

    def test_zero_sensitivity_no_decay(self, mem):
        assert mem.pu_burst_bw(100.0, 10.0, 0.0, 1e6) == 100.0

    def test_zero_latency_rejected(self, mem):
        with pytest.raises(SimulationError):
            mem.pu_burst_bw(100.0, 300.0, 1.0, 0.0)


@st.composite
def allocations(draw, sizes=st.integers(1, 4)):
    """One fairness allocation as ``resolve`` poses it: one to four
    targets, a capacity, weights, a shared cap, and either SoC's
    controller or drawn guarantee and cap fractions."""
    n = draw(sizes)
    if draw(st.booleans()):
        behavior = draw(
            st.sampled_from([xavier_agx().mc, snapdragon_855().mc])
        )
    else:
        # Half the drawn floors are large enough that two of them can
        # exceed the capacity.
        guarantee = draw(
            st.one_of(
                st.floats(0.0, 0.5, exclude_min=True),
                st.floats(0.5, 1.0, exclude_max=True),
            )
        )
        behavior = MCBehavior(
            guarantee_fraction=guarantee,
            cap_fraction=draw(st.floats(guarantee, 1.0)),
        )
    targets = draw(
        st.lists(
            st.one_of(
                st.floats(0.0, 300.0), st.sampled_from([0.0, 5e-10, 5e-9])
            ),
            min_size=n,
            max_size=n,
        )
    )
    # Mostly within a factor of two of the total target, as in resolve,
    # where the effective bandwidth and the demands are of one scale;
    # all-zero targets make it 0.
    capacity = draw(
        st.one_of(
            st.floats(0.05, 2.0).map(lambda r: r * sum(targets)),
            st.floats(1e-3, 300.0),
        )
    )
    weights = draw(
        st.lists(
            st.one_of(st.just(1.0), st.floats(0.01, 100.0)),
            min_size=n,
            max_size=n,
        )
    )
    capped = n > 1 and draw(st.booleans())
    cap = behavior.cap_fraction * capacity if capped else math.inf
    return behavior, capacity, targets, cap, weights


ALLOCATION = settings(max_examples=400, derandomize=True, deadline=None)


def flat_stream(demand, name, weight):
    """A stream whose target is its demand at every L: no compute time,
    latency exposure or latency sensitivity, and a burst bandwidth far
    above the demand."""
    return StreamDemand(
        name=name,
        demand=demand,
        compute_time_per_gb=0.0,
        burst_bw=1e4,
        overlap=1.0,
        mlp_lines=100.0,
        max_bw=1e4,
        latency_sensitivity=0.0,
        latency_exposure=0.0,
        arbitration_weight=weight,
    )


def generic_resolve(mem, streams):
    """``resolve`` through the loop it runs for any count but two."""
    return mem._resolve_streams(streams, _active_streams(streams))


class TestAllocation:
    @ALLOCATION
    @given(allocations())
    def test_fairness_invariants(self, case):
        """``_allocate`` keeps grants within targets and capacity, meets
        guarantee floors when they fit, and hands a saturated bus out in
        full. ``resolve``'s pair loop allocates the same bits (below)."""
        behavior, capacity, targets, cap, weights = case
        n = len(targets)
        mem = SharedMemorySystem(PEAK, behavior)
        grants = mem._allocate(capacity, targets, [cap] * n, weights)
        assert len(grants) == n
        for g, t in zip(grants, targets):
            assert 0.0 <= g <= t
        assert sum(grants) <= capacity * (1 + 1e-12)
        floor_level = behavior.guarantee_fraction * capacity
        floors = [min(t, floor_level) for t in targets]
        if sum(floors) < capacity:
            for g, f in zip(grants, floors):
                assert g >= f
        if sum(targets) >= capacity:
            assert sum(grants) >= capacity - n * _EPS_BW

    @ALLOCATION
    @given(
        allocations(sizes=st.just(2)).filter(
            lambda case: min(case[2]) > _EPS_BW
        )
    )
    # Both streams finish in the capped fill and the capped one then
    # takes the rest, so its grant shows the order of the two updates
    # of ``remaining``.
    @example((
        MCBehavior(guarantee_fraction=0.1, cap_fraction=0.268),
        126.5, [18.2, 126.6], 0.268 * 126.5, [2.0, 0.5],
    ))
    # The two floors exceed the capacity and are scaled down to it.
    @example((
        MCBehavior(guarantee_fraction=0.6, cap_fraction=0.8),
        50.0, [40.0, 45.0], 0.8 * 50.0, [1.0, 1.0],
    ))
    def test_pair_loop_is_generic_loop_bit_for_bit(self, case):
        """Two active streams: ``resolve``'s pair loop returns the
        generic loop's bits. The streams' targets are their demands at
        every L and the effective bandwidth is the peak, so every
        iteration allocates the drawn case with the cap ``resolve`` sets
        for two streams, and the grants are ``_allocate``'s."""
        behavior, capacity, targets, _, weights = case
        mem = SharedMemorySystem(
            capacity,
            replace(
                behavior,
                single_stream_efficiency=1.0,
                multi_stream_efficiency=1.0,
            ),
        )
        streams = [
            flat_stream(t, f"s{i}", w)
            for i, (t, w) in enumerate(zip(targets, weights))
        ]
        got = mem.resolve(streams)
        assert got == generic_resolve(mem, streams)
        cap = behavior.cap_fraction * capacity
        allocated = mem._allocate(capacity, targets, [cap, cap], weights)
        assert [g.granted for g in got] == [
            min(a, t) for a, t in zip(allocated, targets)
        ]


class TestResolve:
    def test_empty_streams(self, mem):
        assert mem.resolve([]) == []

    def test_invalid_stream_rejected(self, mem):
        with pytest.raises(SimulationError):
            mem.resolve([stream(-5.0)])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("demand", math.nan),
            ("demand", math.inf),
            ("arbitration_weight", 0.0),
            ("burst_bw", 0.0),
            ("max_bw", math.inf),
            ("mlp_lines", math.nan),
            ("overlap", 1.5),
            ("latency_sensitivity", -0.1),
            ("locality", 0.0),
            ("compute_time_per_gb", math.inf),
            ("latency_exposure", -1e-3),
        ],
    )
    def test_unsolvable_stream_rejected(self, field, value):
        """A stream the solver cannot handle raises, naming the stream.
        Unchecked, a NaN or infinite demand beside a 90 GB/s stream is
        granted 120 GB/s at 803 ns, two zero-weight streams raise a bare
        ZeroDivisionError and a zero burst bandwidth is granted 1e-9
        GB/s."""
        mem = SharedMemorySystem(137.0)
        bad = replace(stream(40.0, "bad"), **{field: value})
        with pytest.raises(SimulationError, match="'bad'"):
            mem.resolve([bad, stream(90.0, "b")])

    def test_single_stream_fully_granted(self, mem):
        (grant,) = mem.resolve([stream(60.0)])
        assert grant.granted == pytest.approx(60.0, rel=0.02)
        assert grant.satisfaction == pytest.approx(1.0, abs=0.02)

    def test_grants_never_exceed_demand(self, mem):
        grants = mem.resolve([stream(40.0, "a"), stream(90.0, "b")])
        for g in grants:
            assert g.granted <= g.demand + 1e-9

    def test_conservation(self, mem):
        streams = [stream(80.0, "a"), stream(80.0, "b"), stream(80.0, "c")]
        grants = mem.resolve(streams)
        assert sum(g.granted for g in grants) <= mem.effective_bw(streams) + 1e-6

    def test_light_stream_protected(self, mem):
        """Fairness floors: a light client keeps its bandwidth."""
        grants = mem.resolve([stream(10.0, "light"), stream(125.0, "hog")])
        light = grants[0]
        assert light.satisfaction > 0.95

    def test_heavy_pair_shares(self, mem):
        grants = mem.resolve([stream(120.0, "a"), stream(120.0, "b")])
        a, b = (g.granted for g in grants)
        assert a == pytest.approx(b, rel=0.05)

    def test_weighted_stream_gets_more(self, mem):
        grants = mem.resolve(
            [stream(120.0, "heavy", weight=1.25), stream(120.0, "plain")]
        )
        assert grants[0].granted > grants[1].granted

    def test_source_obliviousness_of_allocation(self, mem):
        """Splitting one aggressor into two of half demand leaves the
        victim's grant (nearly) unchanged — the paper's key insight."""
        victim = stream(50.0, "v")
        single = mem.resolve([victim, stream(90.0, "a")])[0].granted
        split = mem.resolve(
            [victim, stream(45.0, "a1"), stream(45.0, "a2")]
        )[0].granted
        # Per-client fairness floors leave a small residual dependence on
        # the client count; the spread must stay within a few percent.
        assert split == pytest.approx(single, rel=0.10)

    def test_latency_shared_across_streams(self, mem):
        grants = mem.resolve([stream(60.0, "a"), stream(60.0, "b")])
        assert grants[0].latency_ns == grants[1].latency_ns

    def test_latency_grows_with_load(self, mem):
        light = mem.resolve([stream(10.0, "a"), stream(10.0, "b")])
        heavy = mem.resolve([stream(90.0, "a"), stream(90.0, "b")])
        assert heavy[0].latency_ns > light[0].latency_ns

    @given(st.floats(5.0, 125.0), st.floats(5.0, 125.0))
    @settings(max_examples=60, deadline=None)
    def test_victim_grant_monotone_in_aggressor(self, x, y):
        mem = SharedMemorySystem(PEAK)
        g_small = mem.resolve([stream(x, "v"), stream(y, "a")])[0].granted
        g_big = mem.resolve([stream(x, "v"), stream(y + 10.0, "a")])[0].granted
        assert g_big <= g_small + 0.5  # small fixed-point tolerance


class TestCapAblation:
    def test_cap_throttles_hog_among_hungry_clients(self):
        """With other clients still hungry, the cap limits a hog; the
        capacity it frees flows to the hungry victims."""
        streams = [stream(80.0, "v1"), stream(80.0, "v2"), stream(125.0, "hog")]
        capped = SharedMemorySystem(PEAK, MCBehavior(cap_fraction=0.3))
        plain = SharedMemorySystem(PEAK)
        hog_capped = capped.resolve(streams)[2].granted
        hog_plain = plain.resolve(streams)[2].granted
        assert hog_capped < hog_plain
        v_capped = capped.resolve(streams)[0].granted
        v_plain = plain.resolve(streams)[0].granted
        assert v_capped >= v_plain - 1e-6

    def test_cap_released_for_lone_hungry_client(self):
        """The bus is not idled when every other client is satisfied."""
        behavior = MCBehavior(cap_fraction=0.4)
        mem = SharedMemorySystem(PEAK, behavior)
        grants = mem.resolve([stream(5.0, "tiny"), stream(125.0, "hog")])
        total = sum(g.granted for g in grants)
        capacity = mem.effective_bw(
            [stream(5.0, "tiny"), stream(125.0, "hog")]
        )
        assert total == pytest.approx(capacity, rel=0.1)
