"""Byte-identity of DRAM results against recorded digests.

``golden_dram.json`` holds sha256(repr(SimResult)) for 60 small runs,
recorded with the engine of commit 4f860c1, before the arrival-ordered
channel queue replaced the swap-pop one. The five ``*-max3000`` entries
were re-recorded when a run stopped by ``max_ns`` began to report
``max_ns`` as its elapsed time instead of the time of the first event
it did not process. Any engine rewrite that claims unchanged results
must reproduce every digest. A change that moves
results on purpose re-records the file and says why:

    PYTHONPATH=src python -m tests.dram.test_golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, NamedTuple

import pytest

from repro.dram.system import CMPSystem
from repro.dram.timing import DDR4_3200, DramTiming

from tests.dram.strategies import (
    FIG5_VICTIMS,
    POLICIES,
    fig5_slice_cores,
    mixed_cores,
    trace_cores,
)

GOLDEN = Path(__file__).with_name("golden_dram.json")


class Case(NamedTuple):
    policy: str
    seed: int
    cores: str  # "mixed", "trace" or "fig5"
    timing: DramTiming = DDR4_3200
    stop_cores: object = None
    max_ns: float = 1e9

    def run(self):
        cores = {
            "mixed": lambda: mixed_cores(6),
            "trace": lambda: trace_cores(self.seed),
            "fig5": fig5_slice_cores,
        }[self.cores]()
        system = CMPSystem(timing=self.timing, policy=self.policy, seed=self.seed)
        return system.run(cores, stop_cores=self.stop_cores, max_ns=self.max_ns)


def cases() -> Dict[str, Case]:
    small_buffer = dataclasses.replace(DDR4_3200, request_buffer=8)
    table = {}
    for policy in POLICIES:
        for seed in (0, 3):
            table[f"{policy}-s{seed}-mixed"] = Case(policy, seed, "mixed")
            table[f"{policy}-s{seed}-trace"] = Case(policy, seed, "trace")
            table[f"{policy}-s{seed}-fig5"] = Case(
                policy, seed, "fig5", stop_cores=set(FIG5_VICTIMS)
            )
        table[f"{policy}-buffer8-mixed"] = Case(
            policy, 0, "mixed", timing=small_buffer
        )
        table[f"{policy}-buffer8-trace"] = Case(
            policy, 0, "trace", timing=small_buffer
        )
        table[f"{policy}-stop0"] = Case(policy, 0, "mixed", stop_cores={0})
        table[f"{policy}-max3000"] = Case(policy, 0, "mixed", max_ns=3000.0)
        table[f"{policy}-2ch16banks"] = Case(
            policy, 0, "mixed",
            timing=DramTiming(
                channels=2, banks_per_channel=16, refresh_enabled=False
            ),
        )
        table[f"{policy}-refi900"] = Case(
            policy, 0, "mixed",
            timing=dataclasses.replace(
                DDR4_3200, t_refi_ns=900.0, t_rfc_ns=300.0
            ),
        )
    return table


CASES = cases()


def digest(case: Case) -> str:
    return hashlib.sha256(repr(case.run()).encode()).hexdigest()


def recorded() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


def test_every_case_recorded():
    assert len(CASES) == 60
    assert sorted(recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_recorded_digest(name):
    assert digest(CASES[name]) == recorded()[name]


if __name__ == "__main__":
    payload = {
        "what": "sha256(repr(SimResult)) per case of tests/dram/test_golden.py",
        "recorded_at": "4f860c1",
        "digests": {name: digest(CASES[name]) for name in sorted(CASES)},
    }
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
