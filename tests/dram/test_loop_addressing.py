"""The event loop's addressing, request by request, against the public
address path: every traced ``req.enqueue`` record carries the channel
(its ``dram.ch<i>`` track), bank, row and write flag that
``AddressMapper.decode`` gives for the core's next
``CoreState.next_access()``.

``golden_dram.json`` covers only 4096-byte rows, so this runs three
geometries. Traced and untraced runs are bit-identical by contract, so
the records describe the untraced run too.
"""

import pytest

from repro.dram.address import AddressMapper
from repro.dram.cores import CoreConfig, CoreState, staggered_base
from repro.dram.system import CMPSystem
from repro.dram.timing import DDR4_3200, DramTiming
from repro.obs import runtime as obs_runtime

from tests.dram.strategies import trace_cores

GEOMETRIES = {
    "default": DDR4_3200,
    "8ch-4banks-2KiB": DramTiming(
        channels=8, banks_per_channel=4, row_bytes=2048
    ),
    "1ch-16banks-8KiB": DramTiming(
        channels=1, banks_per_channel=16, row_bytes=8192
    ),
}


def synthetic_cores(timing: DramTiming):
    """Streaming cores at write fractions 0, 0.1 and 0.5, each from a
    nonzero base (one of them not line-aligned)."""
    banks = timing.banks_per_channel
    layout = (
        (0.0, staggered_base(1, banks)),
        (0.1, 0x12345),
        (0.5, staggered_base(2, banks) + 3 * timing.row_bytes + 5 * 64),
        (0.1, 1 << 33),
    )
    return [
        CoreConfig(
            demand_gbps=4.0 + 3.0 * i,
            total_requests=90,
            mshr=6,
            burst_lines=5,
            write_fraction=fraction,
            address_base=base,
        )
        for i, (fraction, base) in enumerate(layout)
    ]


def expected_accesses(timing: DramTiming, index: int, config: CoreConfig):
    """(track, bank, row, write) of each access a fresh core makes."""
    mapper = AddressMapper(timing)
    state = CoreState(index=index, config=config)
    accesses = []
    for _ in range(config.total_requests):
        address, is_write = state.next_access()
        state.issued += 1
        channel, bank, row, _ = mapper.decode(address)
        accesses.append((f"dram.ch{channel}", bank, row, is_write))
    return accesses


@pytest.mark.parametrize("policy", ["frfcfs", "sms"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_enqueues_match_decode_of_next_access(geometry, policy):
    timing = GEOMETRIES[geometry]
    cores = synthetic_cores(timing) + trace_cores(seed=2, requests=80)
    with obs_runtime.session(trace=True) as sess:
        CMPSystem(timing=timing, policy=policy, seed=2).run(cores)
        enqueues = [
            e for e in sess.tracer.buffer.events if e.name == "req.enqueue"
        ]
    issued = {index: [] for index in range(len(cores))}
    for event in enqueues:
        args = dict(event.args)
        # A bool, as next_access gives: the trace records its repr.
        assert type(args["write"]) is bool
        issued[args["core"]].append(
            (event.track, args["bank"], args["row"], args["write"])
        )
    for index, config in enumerate(cores):
        assert issued[index] == expected_accesses(timing, index, config)
    assert any(write for accesses in issued.values()
               for *_, write in accesses)
