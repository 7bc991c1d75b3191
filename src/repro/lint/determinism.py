"""Dynamic determinism harness: canonical JSON for fixed scenarios.

The static rules (:mod:`repro.lint.rules`) catch nondeterminism
*patterns*; this module catches nondeterminism *outcomes*. It runs a
fixed small simulation and prints a canonical JSON serialization of the
result, so a test can execute it twice in subprocesses under different
``PYTHONHASHSEED`` values and assert the outputs are byte-identical::

    PYTHONHASHSEED=0    python -m repro.lint.determinism --scenario soc
    PYTHONHASHSEED=4242 python -m repro.lint.determinism --scenario soc

Scenarios:

- ``soc`` — three Xavier AGX co-runs through
  :class:`repro.soc.engine.CoRunEngine`, timelines included: a two-phase
  GPU victim under looping CPU pressure, placed first and then second,
  which take the engine's two-placement loop (it writes out the
  branches of each of its two slots), and the same victim under looping
  CPU and DLA pressure, which takes the general loop. In each the
  victim changes phase and the CPU kernel loops before the victim
  finishes;
- ``dram`` — a 2-core DRAM simulation through
  :class:`repro.dram.system.CMPSystem` with the SMS scheduler (the
  policy whose tie-break once depended on set order), about 25 µs long:
  each channel refreshes three times (tREFI is 7.8 µs), so a write that
  only moves a later refresh changes the result too.

Between them they run every obs-guarded branch of the two simulators,
which ``tests/obs/test_guarded_branches.py`` checks.

``--traced`` runs the same scenario under an active observability
session (tracing + metrics on) while printing the *same* result
payload, so a test can assert the zero-perturbation contract of
:mod:`repro.obs`: traced and untraced outputs must be byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Dict, List, Optional

SCENARIOS = ("soc", "dram")


def soc_scenario() -> Dict[str, Any]:
    """Three small Xavier AGX co-runs; returns a JSON-ready dict."""
    from repro.soc.configs import soc_by_name
    from repro.soc.engine import CoRunEngine
    from repro.workloads.kernel import KernelSpec, Phase, single_phase_kernel

    engine = CoRunEngine(soc_by_name("xavier-agx"))
    victim = KernelSpec(
        "det-victim",
        phases=(
            Phase("stream", flops=1e9, traffic_bytes=0.5e9),
            Phase("compute", flops=4e9, traffic_bytes=0.25e9, locality=0.8),
        ),
    )
    pressure = single_phase_kernel("det-pressure", 0.5, traffic_gb=0.1)
    dla_pressure = single_phase_kernel("det-dla", 8.0, traffic_gb=0.2)
    result = engine.corun(
        {"gpu": victim, "cpu": pressure},
        looping=("cpu",),
        until="first",
        record_timeline=True,
    )
    pressure_first = engine.corun(
        {"cpu": pressure, "gpu": victim},
        looping=("cpu",),
        until="first",
        record_timeline=True,
    )
    three_pu = engine.corun(
        {"gpu": victim, "cpu": pressure, "dla": dla_pressure},
        looping=("cpu", "dla"),
        until="first",
        record_timeline=True,
    )
    return {
        "scenario": "soc",
        "result": dataclasses.asdict(result),
        "pressure_first": dataclasses.asdict(pressure_first),
        "three_pu": dataclasses.asdict(three_pu),
        "resolve_calls": engine.resolve_stats.calls,
    }


def dram_scenario() -> Dict[str, Any]:
    """2-core DRAM simulation under the SMS scheduler."""
    from repro.dram.system import CMPSystem

    system = CMPSystem(policy="sms", seed=1)
    cores = system.group_configs(
        group_demand_gbps=24.0, n_cores=2, requests_per_core=4500
    )
    result = system.run(cores)
    return {"scenario": "dram", "result": dataclasses.asdict(result)}


def canonical_json(payload: Dict[str, Any]) -> str:
    """Deterministic rendering: sorted keys, shortest-repr floats."""
    return json.dumps(payload, indent=2, sort_keys=True)


def run_scenario(name: str, traced: bool = False) -> str:
    if name == "soc":
        scenario = soc_scenario
    elif name == "dram":
        scenario = dram_scenario
    else:
        from repro.errors import LintError

        raise LintError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        )
    if not traced:
        return canonical_json(scenario())
    from repro.errors import LintError
    from repro.obs import session as obs_session

    with obs_session(trace=True, metrics=True) as sess:
        payload = canonical_json(scenario())
        if not len(sess.tracer.buffer):
            raise LintError(
                f"traced {name} scenario recorded nothing; the "
                "instrumentation hooks are not firing"
            )
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.determinism",
        description="print a canonical JSON trace of a fixed simulation",
    )
    parser.add_argument("--scenario", choices=SCENARIOS, required=True)
    parser.add_argument(
        "--traced",
        action="store_true",
        help=(
            "run under an active tracing+metrics session (output must "
            "be byte-identical to the untraced run)"
        ),
    )
    args = parser.parse_args(argv)
    print(run_scenario(args.scenario, traced=args.traced))
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
